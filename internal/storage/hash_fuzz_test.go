package storage

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/value"
)

// FuzzHashIndex drives random interleavings of insert, update, delete and GC
// (with and without a pinned snapshot) over a table with a primary key on id
// and a hash index on k, a column with NULLs and many duplicates. Inserts
// and updates reuse a small id range, so the primary key both refuses
// duplicates and sees a key move between rows. One op opens a writer that
// takes the next 1–4 inserts, updates and deletes and then rolls back; the
// committed rows after the rollback must equal those before the writer. After every step, equality
// probes of every k and primary-key probes of every id, at the latest state
// and at the pinned snapshot, must return exactly what a filtered ScanAt
// returns; and both indexes must hold exactly the (key, row) pairs carried by
// stored versions, with no empty posting, so Distinct equals a recount.
//
// Each op is two bytes: the kind, then an argument that picks the row, the
// id and the value. Inputs are cut at 64 ops: every step re-checks the whole
// table, so longer inputs only slow the fuzzer down.
func FuzzHashIndex(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0x13, 0, 0x23, 3, 0x10, 5, 0, 3, 0x21, 5, 0})
	f.Add([]byte{6, 0, 0, 1, 0, 0x11, 3, 0x42, 4, 1, 5, 0, 6, 0, 5, 0})
	f.Add([]byte{0, 5, 0, 5, 0, 0x15, 0, 0x7f, 6, 0, 3, 0, 3, 0x30, 4, 2, 5, 0, 6, 0, 5, 0})
	f.Add([]byte{0, 0, 0, 0x12, 0, 0x24, 4, 0, 5, 0, 4, 1, 5, 0})
	f.Add([]byte{0, 1, 3, 0x81, 3, 0x02, 3, 0x83, 5, 0, 4, 0, 5, 0, 0, 1, 5, 0})
	f.Add([]byte{0, 0x10, 0, 0x21, 7, 3, 3, 0xb0, 0, 0x12, 3, 0xc1, 4, 1, 5, 0})
	f.Add([]byte{0, 0x10, 6, 0, 7, 1, 4, 0, 0, 0x13, 5, 0, 6, 0, 5, 0})

	schema := value.NewSchema(value.Col("id", value.TypeInt), value.Col("k", value.TypeInt))
	const ids, ks = 8, 6
	kOf := func(arg byte) any {
		if arg%ks == ks-1 {
			return nil
		}
		return int(arg % ks)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		c := NewCatalog()
		tbl, err := c.Create("T", schema, "id")
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.CreateIndex("k"); err != nil {
			t.Fatal(err)
		}
		var rows []RowID
		var pin SnapRef
		pinned := false
		var pinTS uint64
		var w *Writer // open writer, nil for auto-commit
		left := 0     // row ops the open writer still takes
		var before []string
		committed := func() (out []string) {
			tbl.Scan(func(id RowID, row value.Tuple) bool {
				out = append(out, fmt.Sprint(id, row))
				return true
			})
			return out
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 8 {
			case 0, 1, 2:
				id, err := tbl.InsertW(w, value.NewTuple(int(arg/16%ids), kOf(arg)))
				if err == nil {
					rows = append(rows, id)
				}
			case 3:
				if len(rows) > 0 {
					id := rows[int(arg%16)%len(rows)]
					old, err := tbl.Get(id)
					if err != nil {
						break // deleted
					}
					pk := old[0]
					if arg&0x80 != 0 {
						pk = value.NewInt(int64(arg / 16 % ids))
					}
					tbl.UpdateW(w, id, value.NewTuple(pk, kOf(arg/4))) //nolint:errcheck // the new id may be taken
				}
			case 4:
				if len(rows) > 0 {
					tbl.DeleteW(w, rows[int(arg)%len(rows)]) //nolint:errcheck // row may be deleted
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
				if w == nil {
					w = c.NewWriter()
					w.SetSnapshot(c.Clock())
					left = int(arg%4) + 1
					before = committed()
				}
			}
			if w != nil && op%8 <= 4 {
				if left--; left == 0 {
					w.Rollback()
					w = nil
					if after := committed(); !slices.Equal(after, before) {
						t.Fatalf("op %d: rows %v after rollback, %v before the writer", i/2, after, before)
					}
				}
			}
			snaps := []Snapshot{Latest()}
			if pinned {
				snaps = append(snaps, SnapshotAt(pinTS, nil))
			}
			for _, s := range snaps {
				for k := range byte(ks) {
					key := value.NewTuple(kOf(k))
					got := tbl.LookupEqAppendAt(s, nil, []int{1}, key)
					if want := scanMatching(tbl, s, 1, key[0]); !slices.Equal(got, want) {
						t.Fatalf("op %d: k = %v at ts %d: index %v, scan %v", i/2, key[0], s.TS(), got, want)
					}
				}
				for pk := range int64(ids) {
					gotID, gotRow, ok := tbl.LookupPKAt(s, value.Tuple{value.NewInt(pk)})
					want := scanMatching(tbl, s, 0, value.NewInt(pk))
					if len(want) > 1 {
						t.Fatalf("op %d: id %d visible in rows %v at ts %d", i/2, pk, want, s.TS())
					}
					if ok != (len(want) == 1) || ok && gotID != want[0] {
						t.Fatalf("op %d: LookupPKAt(%d) at ts %d = %d %v %v, scan %v", i/2, pk, s.TS(), gotID, gotRow, ok, want)
					}
					if row, err := tbl.GetAt(s, gotID); ok && (err != nil || !row.Equal(gotRow)) {
						t.Fatalf("op %d: LookupPKAt(%d) row %v, stored %v (%v)", i/2, pk, gotRow, row, err)
					}
				}
			}
			tbl.mu.RLock()
			d := indexDrift(tbl, tbl.pk)
			if d == "" {
				d = indexDrift(tbl, tbl.indexes[indexName([]int{1})])
			}
			tbl.mu.RUnlock()
			if d != "" {
				t.Fatalf("op %d: %s", i/2, d)
			}
			if got, want := tbl.Stats().Indexes[0].Distinct, recountKeys(tbl, 1); got != want {
				t.Fatalf("op %d: Distinct %d, recount %d", i/2, got, want)
			}
		}
	})
}

// scanMatching lists, in RowID order, the rows visible at s whose col is
// Identical to v — the index's key equality, under which NULL finds NULL.
func scanMatching(tbl *Table, s Snapshot, col int, v value.Value) []RowID {
	var ids []RowID
	tbl.ScanAt(s, func(id RowID, row value.Tuple) bool {
		if row[col].Identical(v) {
			ids = append(ids, id)
		}
		return true
	})
	return ids
}

// indexDrift compares the index with the (key, row) pairs of every stored
// version and checks the posting invariants: no empty posting is stored, and
// the overflow set is nil or non-empty and never repeats the inline row.
// Caller holds tbl.mu.
func indexDrift(tbl *Table, ix *hashIndex) string {
	want := map[string]map[RowID]bool{}
	for id, h := range tbl.rows {
		for v := h; v != nil; v = v.prev {
			k := ix.key(tbl.tupleOf(v))
			if want[k] == nil {
				want[k] = map[RowID]bool{}
			}
			want[k][id] = true
		}
	}
	if len(ix.m) != len(want) {
		return fmt.Sprintf("index %v holds %d keys, stored versions carry %d", ix.cols, len(ix.m), len(want))
	}
	for k, p := range ix.m {
		if p.one == 0 || p.more != nil && len(p.more) == 0 {
			return fmt.Sprintf("index %v key %q: malformed posting %+v", ix.cols, k, p)
		}
		if _, dup := p.more[p.one]; dup {
			return fmt.Sprintf("index %v key %q: inline row %d repeated in the overflow", ix.cols, k, p.one)
		}
		got := map[RowID]bool{}
		for id := range p.all {
			got[id] = true
		}
		if !maps.Equal(got, want[k]) {
			return fmt.Sprintf("index %v key %q: rows %v, stored versions %v", ix.cols, k, got, want[k])
		}
	}
	return ""
}

// recountKeys counts the distinct keys of col over every stored version.
func recountKeys(tbl *Table, col int) int {
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	keys := map[string]bool{}
	for _, h := range tbl.rows {
		for v := h; v != nil; v = v.prev {
			keys[string(tbl.tupleOf(v)[col].AppendKey(nil))] = true
		}
	}
	return len(keys)
}
