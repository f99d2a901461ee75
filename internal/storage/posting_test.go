package storage

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/value"
)

// postingRows lists the key's rows in ascending order.
func postingRows(ix *hashIndex, k string) []RowID { return slices.Sorted(ix.m[k].all) }

func TestPostingAddAndRemove(t *testing.T) {
	ix := newHashIndex([]int{0})
	row := func(s string) value.Tuple { return value.NewTuple(s) }
	k := ix.key(row("a"))

	ix.add(1, row("a"))
	if p := ix.m[k]; p.one != 1 || p.more != nil {
		t.Fatalf("first row: posting %+v, want inline 1 and no overflow", p)
	}
	ix.add(1, row("a"))
	if p := ix.m[k]; p.one != 1 || p.more != nil {
		t.Fatalf("duplicate add of the inline row: posting %+v", p)
	}
	ix.add(2, row("a"))
	ix.add(3, row("a"))
	ix.add(3, row("a"))
	if p := ix.m[k]; p.one != 1 || len(p.more) != 2 {
		t.Fatalf("two overflow rows, one added twice: posting %+v", p)
	}
	if got := postingRows(ix, k); !slices.Equal(got, []RowID{1, 2, 3}) {
		t.Fatalf("rows = %v, want [1 2 3]", got)
	}

	ix.removeKey(k, 9)
	ix.removeKey(ix.key(row("zz")), 1)
	if got := postingRows(ix, k); !slices.Equal(got, []RowID{1, 2, 3}) || len(ix.m) != 1 {
		t.Fatalf("after removing absent rows: %v, %d keys", got, len(ix.m))
	}

	ix.removeKey(k, 1) // inline row with overflow: an overflow row moves inline
	p := ix.m[k]
	if (p.one != 2 && p.one != 3) || len(p.more) != 1 {
		t.Fatalf("inline removed with overflow: posting %+v", p)
	}
	if got := postingRows(ix, k); !slices.Equal(got, []RowID{2, 3}) {
		t.Fatalf("rows = %v, want [2 3]", got)
	}
	ix.removeKey(k, 5-p.one) // the last overflow row: the overflow set goes
	if q := ix.m[k]; q.one != p.one || q.more != nil {
		t.Fatalf("overflow emptied: posting %+v, want inline %d and no overflow", q, p.one)
	}
	ix.removeKey(k, p.one) // inline row without overflow: the key goes
	if _, ok := ix.m[k]; ok || len(ix.m) != 0 {
		t.Fatalf("last row removed, key still present: %+v", ix.m)
	}
}

func TestPostingAllStopsEarly(t *testing.T) {
	p := posting{one: 1, more: map[RowID]struct{}{2: {}, 3: {}}}
	n := 0
	for range p.all {
		n++
		break
	}
	if n != 1 {
		t.Fatalf("visited %d rows after break, want 1", n)
	}
	for range (posting{}).all {
		t.Fatal("empty posting yielded a row")
	}
}

// TestPostingGCDropsKeys drives the index through GC's dropKeys → removeKey
// path: a key leaves the index only when the last version carrying it is
// pruned, and Distinct counts the keys left.
func TestPostingGCDropsKeys(t *testing.T) {
	c := NewCatalog()
	tbl, err := c.Create("T", value.NewSchema(value.Col("id", value.TypeInt), value.Col("k", value.TypeString)), "id")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	a, _ := tbl.Insert(value.NewTuple(1, "x"))
	b, _ := tbl.Insert(value.NewTuple(2, "x"))
	distinct := func() int { return tbl.Stats().Indexes[0].Distinct }
	probe := func(k string) []RowID { return tbl.LookupEq([]int{1}, value.NewTuple(k)) }

	if _, err := tbl.Update(a, value.NewTuple(1, "y")); err != nil {
		t.Fatal(err)
	}
	if distinct() != 2 {
		t.Fatalf("before GC: distinct %d, want 2 (x is still carried by a's old version)", distinct())
	}
	c.GC()
	ix := tbl.indexes[indexName([]int{1})]
	if got := postingRows(ix, ix.key(value.NewTuple(0, "x"))); !slices.Equal(got, []RowID{b}) {
		t.Fatalf("x after GC: index rows %v, want [%d]", got, b)
	}
	if got := probe("y"); !slices.Equal(got, []RowID{a}) || distinct() != 2 {
		t.Fatalf("y after GC: %v, distinct %d", got, distinct())
	}

	if _, err := tbl.Delete(b); err != nil {
		t.Fatal(err)
	}
	c.GC() // b's chain is gone: x loses its last row
	if got := probe("x"); len(got) != 0 || distinct() != 1 {
		t.Fatalf("x after deleting its last row: %v, distinct %d, want none and 1", got, distinct())
	}
	if _, ok := tbl.pk.m[tbl.pk.key(value.NewTuple(2, ""))]; ok || len(tbl.pk.m) != 1 {
		t.Fatalf("pk index still holds the pruned row: %d keys", len(tbl.pk.m))
	}
	if _, err := tbl.Delete(a); err != nil {
		t.Fatal(err)
	}
	c.GC()
	if distinct() != 0 || len(tbl.pk.m) != 0 {
		t.Fatalf("empty table: distinct %d, pk keys %d", distinct(), len(tbl.pk.m))
	}
}

// TestHashIndexBytesPerRow guards the resident cost of an answer-relation
// shaped table: 100 000 rows of (STRING, INT), every string distinct, with a
// hash index on the STRING column. A Go map per key cost about 450 live
// bytes per row; an inline posting and a 32-byte Value about 260.
func TestHashIndexBytesPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation inflates allocations")
	}
	const rows, limit = 100_000, 320
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tbl, err := NewTable("R", value.NewSchema(value.Col("who", value.TypeString), value.Col("fno", value.TypeInt)))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("who"); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if _, err := tbl.Insert(value.Tuple{value.NewString(fmt.Sprintf("traveler-%07d", i)), value.NewInt(int64(i % 97))}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tbl)
	perRow := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / rows
	t.Logf("%.0f live bytes per row", perRow)
	if perRow > limit {
		t.Fatalf("%.0f live bytes per row, want at most %d", perRow, limit)
	}
}
