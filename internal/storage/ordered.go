package storage

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/value"
)

// orderedIndex keeps row ids sorted by one column's value, enabling range
// lookups (BETWEEN, <, >) without a full scan. Entries are kept in a sorted
// slice. A whole-table build (CREATE ORDERED INDEX, and so WAL replay of
// one) collects every version in heap order and sorts once — O(n log n),
// each heap page faulted into the pool once. Maintenance after the build
// inserts into the slice, O(n) worst case per row, which is the right
// trade-off for the read-heavy generator subqueries of the coordination
// workload.
//
// Like the hash indexes, the ordered index covers every stored version of a
// row: an entry means "some version of this row has this value", entries are
// added when such a version appears and removed only when GC prunes the last
// version carrying the value. Probes re-resolve each candidate against the
// read snapshot and verify the visible version's value. All access runs
// under the owning table's mutex.
type orderedIndex struct {
	col     int
	name    string         // user-assigned index name, "" when unnamed
	entries []orderedEntry // sorted by (value, id), unique
	// distinct counts the groups of equal values currently in entries
	// (NULLs form one group). Maintained incrementally by add/remove with a
	// neighbor check, so the planner snapshots it in O(1).
	distinct int
}

type orderedEntry struct {
	v  value.Value
	id RowID
}

// compareEntries orders entries by (value, id).
func compareEntries(a, b orderedEntry) int {
	if c := a.v.Compare(b.v); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// build fills an empty index from every stored version of t: one (value, id)
// entry per version, read in heap order, sorted once, with the duplicate
// pairs of versions sharing a value dropped and the distinct groups counted
// in the same pass. Equivalent to add per version, in O(n log n) instead of
// O(n²). Caller holds t.mu exclusively.
func (ix *orderedIndex) build(t *Table) {
	entries := make([]orderedEntry, 0, len(t.rows))
	t.eachVersion(func(id RowID, v *version) {
		entries = append(entries, orderedEntry{v: t.tupleOf(v)[ix.col], id: id})
	})
	slices.SortFunc(entries, compareEntries)
	out := entries[:0]
	ix.distinct = 0
	for _, e := range entries {
		if n := len(out); n > 0 && out[n-1].v.Compare(e.v) == 0 {
			if out[n-1].id == e.id {
				continue // another version of the row with the same value
			}
		} else {
			ix.distinct++
		}
		out = append(out, e)
	}
	ix.entries = out
}

// locate returns the position of the first entry ≥ e.
func (ix *orderedIndex) locate(e orderedEntry) int {
	return sort.Search(len(ix.entries), func(i int) bool {
		return compareEntries(ix.entries[i], e) >= 0
	})
}

// add records (value, id) if absent; idempotent across versions sharing the
// value. Caller holds t.mu.
func (ix *orderedIndex) add(id RowID, row value.Tuple) {
	e := orderedEntry{v: row[ix.col], id: id}
	pos := ix.locate(e)
	if pos < len(ix.entries) && ix.entries[pos].id == e.id && ix.entries[pos].v.Compare(e.v) == 0 {
		return
	}
	dup := (pos > 0 && ix.entries[pos-1].v.Compare(e.v) == 0) ||
		(pos < len(ix.entries) && ix.entries[pos].v.Compare(e.v) == 0)
	ix.entries = append(ix.entries, orderedEntry{})
	copy(ix.entries[pos+1:], ix.entries[pos:])
	ix.entries[pos] = e
	if !dup {
		ix.distinct++
	}
}

// remove drops (value, id); GC calls it once no version of the row carries
// the value anymore. Caller holds t.mu.
func (ix *orderedIndex) remove(id RowID, row value.Tuple) {
	e := orderedEntry{v: row[ix.col], id: id}
	pos := ix.locate(e)
	if pos < len(ix.entries) && ix.entries[pos].id == id && ix.entries[pos].v.Compare(e.v) == 0 {
		dup := (pos > 0 && ix.entries[pos-1].v.Compare(e.v) == 0) ||
			(pos+1 < len(ix.entries) && ix.entries[pos+1].v.Compare(e.v) == 0)
		ix.entries = append(ix.entries[:pos], ix.entries[pos+1:]...)
		if !dup {
			ix.distinct--
		}
	}
}

// Bound is one end of a range lookup.
type Bound struct {
	Value     value.Value
	Inclusive bool
	Set       bool // false = unbounded
}

// BoundAt returns an inclusive/exclusive bound at v.
func BoundAt(v value.Value, inclusive bool) Bound {
	return Bound{Value: v, Inclusive: inclusive, Set: true}
}

// scanAt appends ids with lo ≤(≤) visible value ≤(≤) hi in (value, id)
// order, verifying each candidate against the snapshot: the entry counts
// only when the version of the row visible at s actually carries the entry's
// value (an id appears at most once — its visible version has one value).
// NULLs never satisfy a range predicate, matching the engine's comparison
// semantics. Caller holds t.mu.
func (ix *orderedIndex) scanAt(t *Table, s Snapshot, lo, hi Bound) []RowID {
	start := 0
	if lo.Set {
		start = sort.Search(len(ix.entries), func(i int) bool {
			c := ix.entries[i].v.Compare(lo.Value)
			if lo.Inclusive {
				return c >= 0
			}
			return c > 0
		})
	}
	var out []RowID
	for i := start; i < len(ix.entries); i++ {
		e := ix.entries[i]
		if e.v.IsNull() {
			continue // NULL never satisfies a range predicate
		}
		if hi.Set {
			c := e.v.Compare(hi.Value)
			if c > 0 || (c == 0 && !hi.Inclusive) {
				break
			}
		}
		if v := visibleVersion(t.rows[e.id], s); v != nil && t.tupleOf(v)[ix.col].Compare(e.v) == 0 {
			out = append(out, e.id)
		}
	}
	return out
}

// CreateOrderedIndex builds (or reuses) an unnamed ordered index on one
// column.
func (t *Table) CreateOrderedIndex(col string) error {
	return t.CreateOrderedIndexNamed("", col)
}

// CreateOrderedIndexNamed builds (or reuses) an ordered index on one column
// under a user-assigned name. An existing index on the column is reused;
// a previously unnamed one adopts the name so WAL replay converges on the
// final name.
func (t *Table) CreateOrderedIndexNamed(name, col string) error {
	o := t.schema.Ordinal(col)
	if o < 0 {
		return fmt.Errorf("storage: table %s: unknown index column %q", t.name, col)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ix, ok := t.ordered[o]; ok {
		if name != "" && ix.name == "" {
			ix.name = name
			t.log.emit(LogRecord{Op: OpCreateOrderedIndex, Table: t.name, Cols: []string{col}, Index: name})
		}
		return nil
	}
	ix := &orderedIndex{col: o, name: name}
	if t.ordered == nil {
		t.ordered = make(map[int]*orderedIndex)
	}
	t.ordered[o] = ix
	ix.build(t) // cover every version so old snapshots probe correctly
	t.log.emit(LogRecord{Op: OpCreateOrderedIndex, Table: t.name, Cols: []string{col}, Index: name})
	return nil
}

// HasOrderedIndex reports whether an ordered index exists on the column
// offset.
func (t *Table) HasOrderedIndex(col int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.ordered[col]
	return ok
}

// OrderedIndexes returns the column names carrying ordered indexes, sorted.
func (t *Table) OrderedIndexes() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var offs []int
	for o := range t.ordered {
		offs = append(offs, o)
	}
	sort.Ints(offs)
	names := make([]string, len(offs))
	for i, o := range offs {
		names[i] = t.schema.Columns[o].Name
	}
	return names
}

// LookupRange returns ids of rows whose col value lies within [lo, hi] in
// the latest committed state.
func (t *Table) LookupRange(col int, lo, hi Bound) []RowID {
	return t.LookupRangeAt(Latest(), col, lo, hi)
}

// LookupRangeAt is the snapshot-visible range probe, using the ordered index
// when present and a scan otherwise. Results are in (value, id) order with
// the index, RowID order without (bounds optional either way).
func (t *Table) LookupRangeAt(s Snapshot, col int, lo, hi Bound) []RowID {
	t.mu.RLock()
	ix, ok := t.ordered[col]
	if ok {
		out := ix.scanAt(t, s, lo, hi)
		t.mu.RUnlock()
		return out
	}
	t.mu.RUnlock()
	var out []RowID
	t.ScanAt(s, func(id RowID, row value.Tuple) bool {
		v := row[col]
		if v.IsNull() {
			return true
		}
		if lo.Set {
			c := v.Compare(lo.Value)
			if c < 0 || (c == 0 && !lo.Inclusive) {
				return true
			}
		}
		if hi.Set {
			c := v.Compare(hi.Value)
			if c > 0 || (c == 0 && !hi.Inclusive) {
				return true
			}
		}
		out = append(out, id)
		return true
	})
	return out
}
