package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/value"
)

func mvccTable(t *testing.T) (*Catalog, *Table) {
	t.Helper()
	cat := NewCatalog()
	schema := value.NewSchema(value.Col("id", value.TypeInt), value.Col("s", value.TypeString))
	tbl, err := cat.Create("T", schema, "id")
	if err != nil {
		t.Fatal(err)
	}
	return cat, tbl
}

// TestVersionChainVisibility: a snapshot pinned before a writer commits keeps
// seeing the old version; a snapshot pinned after sees the new one.
func TestVersionChainVisibility(t *testing.T) {
	cat, tbl := mvccTable(t)
	id, err := tbl.Insert(value.NewTuple(1, "old"))
	if err != nil {
		t.Fatal(err)
	}

	var before SnapRef
	old := SnapshotAt(cat.PinSnapshot(&before), nil)
	defer cat.UnpinSnapshot(&before)

	w := cat.NewWriter()
	w.SetSnapshot(old.TS())
	if _, err := tbl.UpdateW(w, id, value.NewTuple(1, "new")); err != nil {
		t.Fatal(err)
	}

	// Uncommitted: invisible to everyone but the writer itself.
	if row, err := tbl.GetAt(old, id); err != nil || row[1].Str() != "old" {
		t.Fatalf("pre-commit old snapshot: %v %v, want old", row, err)
	}
	if row, err := tbl.Get(id); err != nil || row[1].Str() != "old" {
		t.Fatalf("pre-commit Latest: %v %v, want old", row, err)
	}
	if row, err := tbl.GetAt(SnapshotAt(old.TS(), w), id); err != nil || row[1].Str() != "new" {
		t.Fatalf("writer's own read: %v %v, want new", row, err)
	}

	ts := w.Commit()
	if ts == 0 || ts <= old.TS() {
		t.Fatalf("commit ts %d not after snapshot %d", ts, old.TS())
	}
	if row, err := tbl.GetAt(old, id); err != nil || row[1].Str() != "old" {
		t.Fatalf("post-commit old snapshot: %v %v, want old (repeatable)", row, err)
	}
	if row, err := tbl.GetAt(SnapshotAt(cat.Clock(), nil), id); err != nil || row[1].Str() != "new" {
		t.Fatalf("post-commit fresh snapshot: %v %v, want new", row, err)
	}
}

// TestFirstCommitterWinsStorage: two writers race for one row; the second to
// touch it gets ErrWriteConflict and the conflict counter moves.
func TestFirstCommitterWinsStorage(t *testing.T) {
	cat, tbl := mvccTable(t)
	id, _ := tbl.Insert(value.NewTuple(1, "base"))

	snap := cat.Clock()
	w1 := cat.NewWriter()
	w1.SetSnapshot(snap)
	w2 := cat.NewWriter()
	w2.SetSnapshot(snap)

	if _, err := tbl.UpdateW(w1, id, value.NewTuple(1, "w1")); err != nil {
		t.Fatal(err)
	}
	// w1 uncommitted: w2 must not wait, it must abort immediately.
	if _, err := tbl.UpdateW(w2, id, value.NewTuple(1, "w2")); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("conflicting update got %v, want ErrWriteConflict", err)
	}
	w1.Commit()
	// w1 committed past w2's snapshot: still a conflict.
	if _, err := tbl.UpdateW(w2, id, value.NewTuple(1, "w2")); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("post-commit conflicting update got %v, want ErrWriteConflict", err)
	}
	if got := cat.Conflicts(); got != 2 {
		t.Fatalf("catalog conflicts = %d, want 2", got)
	}
	if row, _ := tbl.Get(id); row[1].Str() != "w1" {
		t.Fatalf("row = %v, want the first committer's write", row)
	}
}

// TestGCWatermark: versions below the oldest pinned snapshot survive GC;
// once the pin is released they are reclaimed and the stats move.
func TestGCWatermark(t *testing.T) {
	cat, tbl := mvccTable(t)
	id, _ := tbl.Insert(value.NewTuple(1, "v0"))

	var pin SnapRef
	old := SnapshotAt(cat.PinSnapshot(&pin), nil)

	for i, s := range []string{"v1", "v2", "v3"} {
		w := cat.NewWriter()
		w.SetSnapshot(cat.Clock())
		if _, err := tbl.UpdateW(w, id, value.NewTuple(1, s)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		w.Commit()
	}
	if _, versions := tbl.VersionStats(); versions != 4 {
		t.Fatalf("versions = %d, want 4 before GC", versions)
	}

	// The pinned snapshot holds the watermark down: v0 must survive.
	cat.GC()
	if row, err := tbl.GetAt(old, id); err != nil || row[1].Str() != "v0" {
		t.Fatalf("pinned snapshot after GC: %v %v, want v0", row, err)
	}

	cat.UnpinSnapshot(&pin)
	reclaimed := cat.GC()
	if reclaimed == 0 {
		t.Fatal("GC reclaimed nothing after the pin was released")
	}
	if _, versions := tbl.VersionStats(); versions != 1 {
		t.Fatalf("versions = %d, want 1 after GC", versions)
	}
	if got := cat.GCReclaimed(); got != uint64(reclaimed) {
		t.Fatalf("GCReclaimed = %d, want %d", got, reclaimed)
	}
	if row, _ := tbl.Get(id); row[1].Str() != "v3" {
		t.Fatalf("surviving version %v, want v3", row)
	}
}

// TestGCDeletedChain: a deleted row's whole chain disappears once no snapshot
// can see it, and its index keys are dropped with it.
func TestGCDeletedChain(t *testing.T) {
	cat, tbl := mvccTable(t)
	if err := tbl.CreateIndex("s"); err != nil {
		t.Fatal(err)
	}
	id, _ := tbl.Insert(value.NewTuple(1, "gone"))
	if _, err := tbl.Delete(id); err != nil {
		t.Fatal(err)
	}

	cat.GC()
	if chains, versions := tbl.VersionStats(); chains != 0 || versions != 0 {
		t.Fatalf("chains=%d versions=%d after GC of a deleted row, want 0/0", chains, versions)
	}
	if ids := tbl.LookupEq([]int{1}, value.NewTuple("gone")); len(ids) != 0 {
		t.Fatalf("index still returns %v for a reclaimed chain", ids)
	}
	// The primary key is free again.
	if _, err := tbl.Insert(value.NewTuple(1, "back")); err != nil {
		t.Fatalf("re-insert after GC: %v", err)
	}
}

// TestScanCompletesWhileWriterCommitsMidScan: a snapshot scan parked mid-row
// finishes — and sees only its snapshot — while a writer commits an update
// and an insert underneath it. Run under -race this also proves the reader
// path is synchronization-free against commits.
func TestScanCompletesWhileWriterCommitsMidScan(t *testing.T) {
	cat, tbl := mvccTable(t)
	var ids []RowID
	for i := 0; i < 4; i++ {
		id, err := tbl.Insert(value.NewTuple(i, "pre"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	var pin SnapRef
	snap := SnapshotAt(cat.PinSnapshot(&pin), nil)
	defer cat.UnpinSnapshot(&pin)

	parked := make(chan struct{})
	committed := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-parked
		w := cat.NewWriter()
		w.SetSnapshot(cat.Clock())
		if _, err := tbl.UpdateW(w, ids[2], value.NewTuple(2, "post")); err != nil {
			t.Error(err)
		}
		if _, err := tbl.InsertW(w, value.NewTuple(99, "post")); err != nil {
			t.Error(err)
		}
		w.Commit()
		close(committed)
	}()

	n := 0
	tbl.ScanAt(snap, func(_ RowID, row value.Tuple) bool {
		if n == 0 {
			close(parked)
			<-committed // the write commits while the scan is mid-flight
		}
		if row[1].Str() != "pre" {
			t.Errorf("scan saw post-snapshot write %v", row)
		}
		n++
		return true
	})
	wg.Wait()
	if n != 4 {
		t.Fatalf("scan visited %d rows, want the 4 in its snapshot", n)
	}
}

// TestWriterRollbackPKReuse rolls back two sequences that hand primary key 1
// from row A to a new row B inside one writer, on a resident and on a spilled
// table: (a) delete A, insert B with A's key; (b) move A's key 1 → 3, insert
// B with key 1, move A again 3 → 4. Undoing (b) row by row in last-touch
// order would restore A's key 1 while B still holds it. After Rollback the
// table holds exactly its committed rows under their RowIDs, the primary key
// finds them and nothing else, and the log ends with the writer's commit.
func TestWriterRollbackPKReuse(t *testing.T) {
	schema := value.NewSchema(value.Col("id", value.TypeInt), value.Col("s", value.TypeString))
	seqs := []struct {
		name string
		run  func(tbl *Table, w *Writer, a RowID) error
	}{
		{"delete A, insert B", func(tbl *Table, w *Writer, a RowID) error {
			if _, err := tbl.DeleteW(w, a); err != nil {
				return err
			}
			_, err := tbl.InsertW(w, value.NewTuple(1, "B"))
			return err
		}},
		{"move A, insert B, move A", func(tbl *Table, w *Writer, a RowID) error {
			if _, err := tbl.UpdateW(w, a, value.NewTuple(3, "A")); err != nil {
				return err
			}
			if _, err := tbl.InsertW(w, value.NewTuple(1, "B")); err != nil {
				return err
			}
			_, err := tbl.UpdateW(w, a, value.NewTuple(4, "A"))
			return err
		}},
	}
	for _, spilled := range []bool{false, true} {
		for _, seq := range seqs {
			t.Run(fmt.Sprintf("%s/spilled=%v", seq.name, spilled), func(t *testing.T) {
				cat := NewCatalog()
				if spilled {
					cat = spillCatalog(t, 2)
				}
				tbl, err := cat.Create("T", schema, "id")
				if err != nil {
					t.Fatal(err)
				}
				a, _ := tbl.Insert(value.NewTuple(1, "A"))
				b, _ := tbl.Insert(value.NewTuple(2, "other"))
				var last LogRecord
				cat.SetLog(func(r LogRecord) { last = r })
				w := cat.NewWriter()
				w.SetSnapshot(cat.Clock())
				if err := seq.run(tbl, w, a); err != nil {
					t.Fatal(err)
				}
				w.Rollback()

				var got []string
				tbl.Scan(func(id RowID, row value.Tuple) bool {
					got = append(got, fmt.Sprint(id, row))
					return true
				})
				if want := []string{fmt.Sprint(a, value.NewTuple(1, "A")), fmt.Sprint(b, value.NewTuple(2, "other"))}; fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("rows after rollback %v, want %v", got, want)
				}
				for pk, want := range map[int]RowID{1: a, 2: b, 3: 0, 4: 0} {
					id, _, ok := tbl.LookupPKAt(Latest(), value.NewTuple(pk))
					if ok != (want != 0) || id != want {
						t.Errorf("LookupPK(%d) = %d, %v; want %d", pk, id, ok, want)
					}
				}
				if tbl.Len() != 2 {
					t.Errorf("Len = %d, want 2", tbl.Len())
				}
				if last.Op != OpCommit || last.Txn != w.id {
					t.Errorf("last logged record %+v, want the writer's commit", last)
				}
				if _, err := tbl.Insert(value.NewTuple(3, "C")); err != nil {
					t.Errorf("key 3 still held after rollback: %v", err)
				}
			})
		}
	}
}
