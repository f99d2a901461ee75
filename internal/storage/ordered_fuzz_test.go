package storage

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/value"
)

// FuzzOrderedIndex drives random interleavings of insert, update, delete,
// GC (with and without a pinned snapshot) and a mid-stream CREATE ORDERED
// INDEX over one INT column with NULLs and many duplicates. After every step
// once the index exists, range probes at the latest state and at the pinned
// snapshot must return exactly what a filtered ScanAt returns, in (value, id)
// order; the index's distinct count must equal a recount of the values held
// by every stored version; and its entries must equal a fresh bulk build.
//
// Each op is two bytes: the kind, then an argument that picks the row, the
// value and the probe bounds. Inputs are cut at 64 ops: every step re-checks
// the whole table, so longer inputs only slow the fuzzer down.
func FuzzOrderedIndex(f *testing.F) {
	f.Add([]byte{0, 3, 0, 9, 0, 3, 7, 0, 3, 1, 0, 15, 4, 2, 5, 0})
	f.Add([]byte{7, 0, 0, 1, 0, 2, 6, 0, 3, 0, 3, 1, 5, 0, 4, 1, 5, 0, 6, 0, 5, 0})
	f.Add([]byte{0, 5, 0, 5, 0, 15, 6, 0, 3, 0, 3, 0, 3, 1, 7, 44, 5, 0, 6, 0, 5, 200})

	schema := value.NewSchema(value.Col("id", value.TypeInt), value.Col("k", value.TypeInt))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		c := NewCatalog()
		tbl, err := c.Create("T", schema)
		if err != nil {
			t.Fatal(err)
		}
		var rows []RowID
		var pin SnapRef
		pinned := false
		var pinTS uint64
		indexed := false
		kOf := func(arg byte) any {
			if arg%16 == 15 {
				return nil
			}
			return int(arg%16) - 4
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 8 {
			case 0, 1, 2:
				id, err := tbl.Insert(value.NewTuple(len(rows), kOf(arg)))
				if err != nil {
					t.Fatal(err)
				}
				rows = append(rows, id)
			case 3:
				if len(rows) > 0 {
					id := rows[int(arg)%len(rows)]
					tbl.Update(id, value.NewTuple(int(id), kOf(arg/16))) //nolint:errcheck // row may be deleted
				}
			case 4:
				if len(rows) > 0 {
					tbl.Delete(rows[int(arg)%len(rows)]) //nolint:errcheck // row may be deleted
				}
			case 5:
				c.GC()
			case 6:
				if pinned {
					c.UnpinSnapshot(&pin)
				} else {
					pinTS = c.PinSnapshot(&pin)
				}
				pinned = !pinned
			case 7:
				if !indexed {
					if err := tbl.CreateOrderedIndex("k"); err != nil {
						t.Fatal(err)
					}
					indexed = true
				}
			}
			if !indexed {
				continue
			}
			snaps := []Snapshot{Latest()}
			if pinned {
				snaps = append(snaps, SnapshotAt(pinTS, nil))
			}
			lo := BoundAt(value.NewInt(int64(arg%8)-5), arg&0x40 != 0)
			hi := BoundAt(value.NewInt(int64(arg%8)-5+int64(arg/8%8)), arg&0x80 != 0)
			for _, s := range snaps {
				for _, b := range [][2]Bound{{{}, {}}, {lo, hi}, {lo, {}}, {{}, hi}} {
					got := tbl.LookupRangeAt(s, 1, b[0], b[1])
					want := filteredScan(tbl, s, 1, b[0], b[1])
					if !slices.Equal(got, want) {
						t.Fatalf("op %d: range %v..%v at ts %d: index %v, scan %v", i/2, b[0], b[1], s.TS(), got, want)
					}
				}
			}
			if got, want := tbl.ordered[1].distinct, recountDistinct(tbl, 1); got != want {
				t.Fatalf("op %d: distinct %d, recount %d", i/2, got, want)
			}
			tbl.mu.Lock()
			fresh := &orderedIndex{col: 1}
			fresh.build(tbl)
			d := sameIndex(fresh, tbl.ordered[1])
			tbl.mu.Unlock()
			if d != "" {
				t.Fatalf("op %d: maintained index vs bulk build: %s", i/2, d)
			}
		}
	})
}

// filteredScan answers a range probe from ScanAt alone, in (value, id)
// order. NULL never satisfies a range predicate.
func filteredScan(tbl *Table, s Snapshot, col int, lo, hi Bound) []RowID {
	var hits []orderedEntry
	tbl.ScanAt(s, func(id RowID, row value.Tuple) bool {
		v := row[col]
		if v.IsNull() {
			return true
		}
		if c := v.Compare(lo.Value); lo.Set && (c < 0 || c == 0 && !lo.Inclusive) {
			return true
		}
		if c := v.Compare(hi.Value); hi.Set && (c > 0 || c == 0 && !hi.Inclusive) {
			return true
		}
		hits = append(hits, orderedEntry{v: v, id: id})
		return true
	})
	slices.SortFunc(hits, func(a, b orderedEntry) int {
		return cmp.Or(a.v.Compare(b.v), cmp.Compare(a.id, b.id))
	})
	ids := make([]RowID, len(hits))
	for i, e := range hits {
		ids[i] = e.id
	}
	return ids
}

// recountDistinct counts the groups of equal values (NULLs one group) over
// every stored version of col.
func recountDistinct(tbl *Table, col int) int {
	tbl.mu.RLock()
	var vals []value.Value
	for _, h := range tbl.rows {
		for v := h; v != nil; v = v.prev {
			vals = append(vals, tbl.tupleOf(v)[col])
		}
	}
	tbl.mu.RUnlock()
	slices.SortFunc(vals, value.Value.Compare)
	n := 0
	for i, v := range vals {
		if i == 0 || vals[i-1].Compare(v) != 0 {
			n++
		}
	}
	return n
}
