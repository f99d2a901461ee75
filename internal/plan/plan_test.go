package plan

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// flights is a 1000-row table: primary key on column 0, a hash index on
// column 1 (50 distinct keys), an ordered index on column 2 (900 non-NULL
// keys spread over [100, 1100]), an unnamed hash index on column 4 with no
// distinct-count yet, and no index on column 3.
var flights = storage.TableStats{
	Rows:   1000,
	PKCols: []int{0},
	Indexes: []storage.IndexStat{
		{Name: "by_dest", Cols: []int{1}, Distinct: 50},
		{Cols: []int{4}},
		{Name: "by_price", Cols: []int{2}, Ordered: true, Distinct: 200,
			NonNull: 900, Min: value.NewInt(100), Max: value.NewInt(1100)},
	},
}

// stale has more ordered-index entries than live rows (old versions awaiting
// GC) over a single-key domain.
var stale = storage.TableStats{
	Rows: 100,
	Indexes: []storage.IndexStat{
		{Name: "by_day", Cols: []int{0}, Ordered: true, Distinct: 1,
			NonNull: 300, Min: value.NewInt(5), Max: value.NewInt(5)},
	},
}

func eq(stats storage.TableStats, cols ...int) Input {
	return Input{Stats: stats, EqCols: cols, RangeCol: -1}
}

func rng(stats storage.TableStats, col int, lo, hi storage.Bound) Input {
	return Input{Stats: stats, RangeCol: col, Lo: lo, Hi: hi}
}

func at(v any) storage.Bound { return storage.BoundAt(value.NewTuple(v)[0], true) }

var unbounded storage.Bound

func TestEstimate(t *testing.T) {
	nullEq := func(stats storage.TableStats, col int) Input {
		in := eq(stats, col)
		in.EqVals, in.EqKnown = []value.Value{value.Null}, []bool{true}
		return in
	}
	withParams := func(in Input, lo, hi bool) Input {
		in.LoParam, in.HiParam = lo, hi
		return in
	}
	eqRange := rng(flights, 2, unbounded, unbounded)
	eqRange.EqRange = true

	cases := []struct {
		name string
		in   Input
		want Access
	}{
		{"pk probe", eq(flights, 0), Access{Path: PKProbe, Cols: []int{0}, Rows: 1}},
		{"pk probe on NULL", nullEq(flights, 0), Access{Path: PKProbe, Cols: []int{0}, Rows: 0.1}},
		{"hash eq", eq(flights, 1), Access{Path: HashEq, Index: "by_dest", Cols: []int{1}, Rows: 20}},
		{"hash eq on NULL", nullEq(flights, 1), Access{Path: HashEq, Index: "by_dest", Cols: []int{1}, Rows: 0.1}},
		{"hash eq, no distinct count", eq(flights, 4), Access{Path: HashEq, Cols: []int{4}, Rows: 100}},
		{"eq without index", eq(flights, 3), Access{Path: ScanEq, Cols: []int{3}, Rows: 100}},
		{"eq on ordered index", eq(flights, 2), Access{Path: OrderedEq, Index: "by_price", Cols: []int{2}, Rows: 5}},
		{"multi-column eq without index", eq(flights, 1, 3), Access{Path: ScanEq, Cols: []int{1, 3}, Rows: 100}},

		{"range by min/max fraction", rng(flights, 2, at(350), at(600)),
			Access{Path: OrderedRange, Index: "by_price", Cols: []int{2}, Rows: 225}},
		{"range, lower bound only", rng(flights, 2, at(850), unbounded),
			Access{Path: OrderedRange, Index: "by_price", Cols: []int{2}, Rows: 225}},
		{"range, float bound", rng(flights, 2, unbounded, at(350.0)),
			Access{Path: OrderedRange, Index: "by_price", Cols: []int{2}, Rows: 225}},
		{"range clamped below min", rng(flights, 2, at(0), at(100)),
			Access{Path: OrderedRange, Index: "by_price", Cols: []int{2}, Rows: 1}},
		{"empty range", rng(flights, 2, at(700), at(600)),
			Access{Path: OrderedRange, Index: "by_price", Cols: []int{2}, Rows: 1}},
		{"range, string bound", rng(flights, 2, at("x"), unbounded),
			Access{Path: OrderedRange, Index: "by_price", Cols: []int{2}, Rows: 1000.0 / 3}},
		{"range, unbound lower param", withParams(rng(flights, 2, unbounded, at(600)), true, false),
			Access{Path: OrderedRange, Index: "by_price", Cols: []int{2}, Rows: 1000.0 / 3}},
		{"range, unbound upper param", withParams(rng(flights, 2, at(350), unbounded), false, true),
			Access{Path: OrderedRange, Index: "by_price", Cols: []int{2}, Rows: 1000.0 / 3}},
		{"range without ordered index", rng(flights, 1, at(1), at(2)),
			Access{Path: FullScan, Cols: []int{1}, Rows: 1000.0 / 3}},
		{"single-key domain clamped to live rows", rng(stale, 0, at(1), at(9)),
			Access{Path: OrderedRange, Index: "by_day", Cols: []int{0}, Rows: 100}},

		{"EqRange with unbound probe", eqRange, Access{Path: OrderedEq, Index: "by_price", Cols: []int{2}, Rows: 5}},
		{"degenerate [v, v] range", rng(flights, 2, at(500), at(500)),
			Access{Path: OrderedEq, Index: "by_price", Cols: []int{2}, Rows: 5}},
		{"degenerate NULL range", rng(flights, 2, at(nil), at(nil)),
			Access{Path: OrderedEq, Index: "by_price", Cols: []int{2}, Rows: 0.1}},

		{"full scan", Input{Stats: flights, RangeCol: -1}, Access{Path: FullScan, Rows: 1000}},
		{"full scan of empty table", Input{RangeCol: -1}, Access{Path: FullScan, Rows: 1}},
	}
	for _, c := range cases {
		got := Estimate(c.in)
		if got.Path != c.want.Path || got.Index != c.want.Index ||
			!reflect.DeepEqual(got.Cols, c.want.Cols) || math.Abs(got.Rows-c.want.Rows) > 1e-9 {
			t.Errorf("%s: Estimate = %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestOrder(t *testing.T) {
	cases := []struct {
		rows []float64
		want []int
	}{
		{nil, []int{}},
		{[]float64{3, 1, 2}, []int{1, 2, 0}},
		{[]float64{5, 1, 5, 1}, []int{1, 3, 0, 2}}, // ties keep FROM order
		{[]float64{7, 7, 7}, []int{0, 1, 2}},
		{[]float64{1000, 0.1, 1000.0 / 3, 20}, []int{1, 3, 2, 0}},
	}
	for _, c := range cases {
		if got := Order(c.rows); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Order(%v) = %v, want %v", c.rows, got, c.want)
		}
	}
}
