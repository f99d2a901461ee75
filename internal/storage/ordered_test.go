package storage

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func pricesTable(t *testing.T) *Table {
	t.Helper()
	schema := value.NewSchema(value.Col("fno", value.TypeInt), value.Col("price", value.TypeFloat))
	tbl, err := NewTable("Prices", schema)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []float64{420, 380, 450, 310, 390, 500} {
		if _, err := tbl.Insert(value.NewTuple(100+i, p)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func ids(t *testing.T, tbl *Table, lo, hi Bound) []RowID {
	t.Helper()
	return tbl.LookupRange(1, lo, hi)
}

func TestOrderedIndexRangeLookup(t *testing.T) {
	tbl := pricesTable(t)
	if err := tbl.CreateOrderedIndex("price"); err != nil {
		t.Fatal(err)
	}
	if !tbl.HasOrderedIndex(1) || tbl.HasOrderedIndex(0) {
		t.Error("HasOrderedIndex")
	}
	got := ids(t, tbl, BoundAt(value.NewFloat(380), true), BoundAt(value.NewFloat(450), true))
	if len(got) != 4 { // 380, 390, 420, 450
		t.Fatalf("range [380,450] = %v", got)
	}
	// Results come back in value order.
	prev := -1.0
	for _, id := range got {
		row, _ := tbl.Get(id)
		if row[1].Float() < prev {
			t.Errorf("out of order: %v", got)
		}
		prev = row[1].Float()
	}
	// Exclusive bounds.
	got = ids(t, tbl, BoundAt(value.NewFloat(380), false), BoundAt(value.NewFloat(450), false))
	if len(got) != 2 { // 390, 420
		t.Errorf("range (380,450) = %v", got)
	}
	// Unbounded ends.
	if got := ids(t, tbl, Bound{}, BoundAt(value.NewFloat(380), true)); len(got) != 2 {
		t.Errorf("(-inf,380] = %v", got)
	}
	if got := ids(t, tbl, BoundAt(value.NewFloat(450), true), Bound{}); len(got) != 2 {
		t.Errorf("[450,inf) = %v", got)
	}
	if got := ids(t, tbl, Bound{}, Bound{}); len(got) != 6 {
		t.Errorf("full range = %v", got)
	}
}

func TestOrderedIndexMaintained(t *testing.T) {
	tbl := pricesTable(t)
	tbl.CreateOrderedIndex("price") //nolint:errcheck
	id, _ := tbl.Insert(value.NewTuple(200, 415.0))
	if got := ids(t, tbl, BoundAt(value.NewFloat(410), true), BoundAt(value.NewFloat(425), true)); len(got) != 2 {
		t.Errorf("after insert: %v", got)
	}
	tbl.Update(id, value.NewTuple(200, 50.0)) //nolint:errcheck
	if got := ids(t, tbl, BoundAt(value.NewFloat(410), true), BoundAt(value.NewFloat(425), true)); len(got) != 1 {
		t.Errorf("after update: %v", got)
	}
	if got := ids(t, tbl, Bound{}, BoundAt(value.NewFloat(100), true)); len(got) != 1 {
		t.Errorf("relocated entry missing: %v", got)
	}
	tbl.Delete(id) //nolint:errcheck
	if got := ids(t, tbl, Bound{}, BoundAt(value.NewFloat(100), true)); len(got) != 0 {
		t.Errorf("after delete: %v", got)
	}
}

func TestOrderedIndexNullsExcluded(t *testing.T) {
	tbl := pricesTable(t)
	tbl.CreateOrderedIndex("price")      //nolint:errcheck
	tbl.Insert(value.NewTuple(300, nil)) //nolint:errcheck
	if got := ids(t, tbl, Bound{}, Bound{}); len(got) != 6 {
		t.Errorf("NULL leaked into range scan: %v", got)
	}
}

func TestOrderedIndexErrors(t *testing.T) {
	tbl := pricesTable(t)
	if err := tbl.CreateOrderedIndex("nosuch"); err == nil {
		t.Error("unknown column accepted")
	}
	if err := tbl.CreateOrderedIndex("price"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateOrderedIndex("price"); err != nil {
		t.Error("idempotent create failed")
	}
	if got := tbl.OrderedIndexes(); len(got) != 1 || got[0] != "price" {
		t.Errorf("OrderedIndexes = %v", got)
	}
}

// Property: indexed range lookup ≡ scan-based range lookup, for random data
// and random inclusive bounds.
func TestLookupRangeIndexScanEquivalence(t *testing.T) {
	f := func(vals []int16, loRaw, hiRaw int16) bool {
		schema := value.NewSchema(value.Col("x", value.TypeInt))
		plain, _ := NewTable("p", schema)
		indexed, _ := NewTable("q", schema)
		indexed.CreateOrderedIndex("x") //nolint:errcheck
		for _, v := range vals {
			plain.Insert(value.NewTuple(int(v)))   //nolint:errcheck
			indexed.Insert(value.NewTuple(int(v))) //nolint:errcheck
		}
		lo, hi := int64(loRaw), int64(hiRaw)
		if lo > hi {
			lo, hi = hi, lo
		}
		a := plain.LookupRange(0, BoundAt(value.NewInt(lo), true), BoundAt(value.NewInt(hi), true))
		b := indexed.LookupRange(0, BoundAt(value.NewInt(lo), true), BoundAt(value.NewInt(hi), true))
		if len(a) != len(b) {
			return false
		}
		// Same id sets (order differs: scan is id-order, index value-order).
		seen := make(map[RowID]bool, len(a))
		for _, id := range a {
			seen[id] = true
		}
		for _, id := range b {
			if !seen[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestOrderedIndexLargeInsertionStaysSorted(t *testing.T) {
	schema := value.NewSchema(value.Col("x", value.TypeInt))
	tbl, _ := NewTable("big", schema)
	tbl.CreateOrderedIndex("x") //nolint:errcheck
	for i := 0; i < 500; i++ {
		tbl.Insert(value.NewTuple((i * 7919) % 1000)) //nolint:errcheck
	}
	got := tbl.LookupRange(0, Bound{}, Bound{})
	if len(got) != 500 {
		t.Fatalf("len = %d", len(got))
	}
	prev := int64(-1)
	for _, id := range got {
		row, _ := tbl.Get(id)
		if row[0].Int() < prev {
			t.Fatal("index order violated")
		}
		prev = row[0].Int()
	}
}

// addPerRow is the reference build: an empty index fed every stored version
// through add, one at a time.
func addPerRow(tbl *Table, col int) *orderedIndex {
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	ref := &orderedIndex{col: col}
	for id, h := range tbl.rows {
		for v := h; v != nil; v = v.prev {
			ref.add(id, tbl.tupleOf(v))
		}
	}
	return ref
}

// sameIndex reports how two indexes differ in entries or distinct, "" when
// they agree. Entry values compare with Compare, so INT 1 and FLOAT 1.0
// kept for the same row are one entry either way.
func sameIndex(want, got *orderedIndex) string {
	if want.distinct != got.distinct {
		return fmt.Sprintf("distinct %d, want %d", got.distinct, want.distinct)
	}
	if len(want.entries) != len(got.entries) {
		return fmt.Sprintf("%d entries, want %d", len(got.entries), len(want.entries))
	}
	for i, w := range want.entries {
		if g := got.entries[i]; g.id != w.id || g.v.Compare(w.v) != 0 {
			return fmt.Sprintf("entry %d = (%v, %d), want (%v, %d)", i, g.v, g.id, w.v, w.id)
		}
	}
	return ""
}

// checkBulkBuild asserts that building col's ordered index in bulk, both
// directly and through CreateOrderedIndex (where it may already exist and
// have been maintained row by row), equals the add-per-row reference.
func checkBulkBuild(t *testing.T, tbl *Table, col int) {
	t.Helper()
	want := addPerRow(tbl, col)
	if len(want.entries) == 0 {
		t.Fatal("reference index is empty; test proves nothing")
	}
	tbl.mu.Lock()
	got := &orderedIndex{col: col}
	got.build(tbl)
	tbl.mu.Unlock()
	if d := sameIndex(want, got); d != "" {
		t.Fatalf("bulk build: %s", d)
	}
	if err := tbl.CreateOrderedIndex(tbl.schema.Columns[col].Name); err != nil {
		t.Fatal(err)
	}
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	if d := sameIndex(want, tbl.ordered[col]); d != "" {
		t.Fatalf("table index: %s", d)
	}
}

// plant stores tup as a committed new row without schema coercion, so one
// column can hold INT and FLOAT values side by side; it returns the id.
func plant(tbl *Table, tup value.Tuple) RowID {
	tbl.mu.Lock()
	defer tbl.mu.Unlock()
	id := tbl.nextID
	tbl.nextID++
	tbl.rows[id] = &version{tup: tup, begin: tbl.clock.Add(1), end: liveTS}
	tbl.live++
	return id
}

// replant pushes tup as the committed newest version of row id.
func replant(tbl *Table, id RowID, tup value.Tuple) {
	tbl.mu.Lock()
	defer tbl.mu.Unlock()
	ts := tbl.clock.Add(1)
	h := tbl.rows[id]
	h.end = ts
	tbl.rows[id] = &version{tup: tup, begin: ts, end: liveTS, prev: h}
}

func TestOrderedBulkBuildMatchesAddPerRow(t *testing.T) {
	schema := value.NewSchema(value.Col("id", value.TypeInt), value.Col("k", value.TypeInt))
	// load inserts n rows whose k descends with the RowID, with NULLs every
	// seventh row and each value shared by three rows; then it updates and
	// deletes some of them, so chains hold several versions, some of which
	// repeat the previous value.
	load := func(t *testing.T, tbl *Table, n int) {
		t.Helper()
		ids := make([]RowID, n)
		for i := range n {
			var k any = (n - i) / 3
			if i%7 == 0 {
				k = nil
			}
			id, err := tbl.Insert(value.NewTuple(i, k))
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		for i, id := range ids {
			switch i % 5 {
			case 1:
				tbl.Update(id, value.NewTuple(i, i%4)) //nolint:errcheck
				tbl.Update(id, value.NewTuple(i, i%4)) //nolint:errcheck // same value again
				tbl.Update(id, value.NewTuple(i, nil)) //nolint:errcheck
			case 2:
				tbl.Update(id, value.NewTuple(i, -i)) //nolint:errcheck
			case 3:
				tbl.Delete(id) //nolint:errcheck
			}
		}
	}

	t.Run("versions-nulls-duplicates", func(t *testing.T) {
		tbl, err := NewTable("T", schema)
		if err != nil {
			t.Fatal(err)
		}
		load(t, tbl, 300)
		checkBulkBuild(t, tbl, 1)
	})

	t.Run("cross-type-numerics", func(t *testing.T) {
		tbl, err := NewTable("T", value.NewSchema(value.Col("k", value.TypeNull)))
		if err != nil {
			t.Fatal(err)
		}
		a := plant(tbl, value.Tuple{value.NewInt(1)})
		plant(tbl, value.Tuple{value.NewFloat(1.0)})
		plant(tbl, value.Tuple{value.NewFloat(1.5)})
		plant(tbl, value.Tuple{value.NewInt(2)})
		plant(tbl, value.Tuple{value.Null})
		replant(tbl, a, value.Tuple{value.NewFloat(1.0)}) // same value, other type
		replant(tbl, a, value.Tuple{value.NewFloat(2.0)})
		checkBulkBuild(t, tbl, 0)
		tbl.mu.RLock()
		got := tbl.ordered[0].distinct
		tbl.mu.RUnlock()
		if got != 4 { // NULL, 1, 1.5, 2
			t.Fatalf("distinct = %d, want 4", got)
		}
	})

	t.Run("gc-partly-pruned", func(t *testing.T) {
		c := NewCatalog()
		tbl, err := c.Create("T", schema)
		if err != nil {
			t.Fatal(err)
		}
		// The index exists from the start: it is maintained row by row and
		// by GC's removals, then rebuilt in bulk and compared.
		if err := tbl.CreateOrderedIndex("k"); err != nil {
			t.Fatal(err)
		}
		load(t, tbl, 200)
		var pin SnapRef
		c.PinSnapshot(&pin)
		load(t, tbl, 200)
		if c.GC() == 0 {
			t.Fatal("GC pruned nothing")
		}
		_, versions := tbl.VersionStats()
		if versions <= tbl.Len() {
			t.Fatalf("GC pruned everything (%d versions, %d rows)", versions, tbl.Len())
		}
		checkBulkBuild(t, tbl, 1)
		tbl.mu.Lock()
		rebuilt := &orderedIndex{col: 1}
		rebuilt.build(tbl)
		d := sameIndex(rebuilt, tbl.ordered[1])
		tbl.mu.Unlock()
		if d != "" {
			t.Fatalf("maintained index vs rebuild: %s", d)
		}
		c.UnpinSnapshot(&pin)
	})

	t.Run("spilled", func(t *testing.T) {
		c := spillCatalog(t, 2)
		tbl, err := c.Create("T", value.NewSchema(
			value.Col("id", value.TypeInt), value.Col("k", value.TypeInt), value.Col("body", value.TypeString)))
		if err != nil {
			t.Fatal(err)
		}
		const n = 1200
		for i := range n {
			var k any = (n - i) / 2
			if i%9 == 0 {
				k = nil
			}
			id, err := tbl.Insert(value.NewTuple(i, k, coldBody(i)))
			if err != nil {
				t.Fatal(err)
			}
			if i%4 == 0 {
				tbl.Update(id, value.NewTuple(i, i%10, coldBody(i))) //nolint:errcheck
			}
		}
		if st, _ := c.PoolStats(); st.HeapPages <= st.Capacity {
			t.Fatalf("table fits the pool (%d pages, %d frames)", st.HeapPages, st.Capacity)
		}
		checkBulkBuild(t, tbl, 1)
	})
}

// TestIndexBuildReadsHeapPagesOnce: a whole-table index build over a spilled
// table of P heap pages walks versions in heap order, so with a pool far
// smaller than the table each build faults every page in at most once — at
// most P misses, where a walk in rows-map order misses about once per row.
// detachHeap (PinResident) walks the same way.
func TestIndexBuildReadsHeapPagesOnce(t *testing.T) {
	c := spillCatalog(t, 4)
	tbl, err := c.Create("history", coldSchema(), "id")
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := range n {
		id, err := tbl.Insert(value.NewTuple(i, coldBody(i)))
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 { // a second spilled version at the heap's tail
			if _, err := tbl.Update(id, value.NewTuple(i, coldBody(i+n))); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, _ := c.PoolStats()
	pages := st.HeapPages
	if pages <= 4*st.Capacity {
		t.Fatalf("table of %d pages is too small for a %d-frame pool", pages, st.Capacity)
	}
	misses := func(label string, build func() error) {
		t.Helper()
		before, _ := c.PoolStats()
		if err := build(); err != nil {
			t.Fatal(err)
		}
		after, _ := c.PoolStats()
		if got := after.Misses - before.Misses; got > uint64(pages) {
			t.Errorf("%s: %d pool misses over %d heap pages (%d rows)", label, got, pages, n)
		}
	}
	misses("CREATE ORDERED INDEX", func() error { return tbl.CreateOrderedIndex("body") })
	misses("CREATE INDEX", func() error { return tbl.CreateIndex("body") })
	misses("PinResident", func() error { c.PinResident("history"); return nil })
	if got := tbl.LookupRange(1, Bound{}, Bound{}); len(got) != n {
		t.Fatalf("ordered index serves %d rows, want %d", len(got), n)
	}
}
