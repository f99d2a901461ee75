package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// rows lists the committed rows of table name, in RowID order.
func rows(t *testing.T, cat *storage.Catalog, name string) []value.Tuple {
	t.Helper()
	tbl, err := cat.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	var out []value.Tuple
	tbl.Scan(func(_ storage.RowID, row value.Tuple) bool {
		out = append(out, row)
		return true
	})
	return out
}

// takeOver reopens the log at dir the way a primary starts: replay, attach
// the log hook, roll back every transaction the log left open. It returns
// how many were rolled back.
func takeOver(t *testing.T, dir string) (*storage.Catalog, *Log, int) {
	t.Helper()
	l, cat := openLog(t, dir, Options{})
	attach(cat, l)
	n, err := l.Applier().RollbackAll()
	if err != nil {
		t.Fatal(err)
	}
	return cat, l, n
}

// TestUncommittedWriterInvisibleAfterReopen: a row inserted by a writer that
// never commits is invisible after a reopen, where its transaction stays
// open; once a takeover rolls it back, a second reopen agrees and has nothing
// left open.
func TestUncommittedWriterInvisibleAfterReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cat, l := loggedCatalog(t, dir)
	tbl, err := cat.Create("T", flightsSchema(), "fno")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.InsertW(cat.NewWriter(), value.NewTuple(1, "Paris")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, cat2 := openLog(t, dir, Options{})
	if got := rows(t, cat2, "T"); len(got) != 0 {
		t.Fatalf("uncommitted row visible after reopen: %v", got)
	}
	if n := l2.Applier().OpenTxns(); n != 1 {
		t.Fatalf("open transactions after reopen = %d, want 1", n)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	cat3, l3, n := takeOver(t, dir)
	if n != 1 || len(rows(t, cat3, "T")) != 0 {
		t.Fatalf("takeover rolled back %d, rows %v", n, rows(t, cat3, "T"))
	}
	if err := l3.Close(); err != nil {
		t.Fatal(err)
	}
	l4, cat4 := openLog(t, dir, Options{})
	defer l4.Close()
	if got := rows(t, cat4, "T"); len(got) != 0 || l4.Applier().OpenTxns() != 0 {
		t.Fatalf("second reopen: rows %v, open %d", got, l4.Applier().OpenTxns())
	}
}

// TestCompactMidTransaction seals a segment while a tagged transaction is
// open and compacts it. The snapshot holds committed state only and carries
// the open transaction's records after it: committing afterwards makes its
// changes visible, crashing instead leaves them absent.
func TestCompactMidTransaction(t *testing.T) {
	for _, commit := range []bool{true, false} {
		dir := filepath.Join(t.TempDir(), "wal")
		cat, l := loggedCatalog(t, dir)
		tbl, err := cat.Create("T", flightsSchema(), "fno")
		if err != nil {
			t.Fatal(err)
		}
		a, err := tbl.Insert(value.NewTuple(1, "Paris"))
		if err != nil {
			t.Fatal(err)
		}
		w := cat.NewWriter()
		w.SetSnapshot(cat.Clock())
		if _, err := tbl.InsertW(w, value.NewTuple(2, "Rome")); err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.UpdateW(w, a, value.NewTuple(1, "Oslo")); err != nil {
			t.Fatal(err)
		}
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		if segs := l.Segments(); !segs[0].Snapshot {
			t.Fatalf("no snapshot segment after Compact: %+v", segs)
		}
		want := "[(1, 'Paris')]"
		if commit {
			w.Commit()
			want = "[(1, 'Oslo') (2, 'Rome')]"
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // the second replays the first one's rollback
			cat2, l2, _ := takeOver(t, dir)
			if got := fmt.Sprint(rows(t, cat2, "T")); got != want {
				t.Errorf("commit=%v, recovery %d: rows %s, want %s", commit, i, got, want)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// An open transaction writes T, then T is dropped and re-created and an
	// auto-commit insert takes RowID 1 of the new T. Compaction must not
	// carry the transaction's records into the new table: every recovery of
	// the compacted log equals that of the same log left uncompacted.
	t.Run("dropped table", func(t *testing.T) {
		script := func(dir string, compact, commit bool) {
			cat, l := loggedCatalog(t, dir)
			old, err := cat.Create("T", flightsSchema(), "fno")
			if err != nil {
				t.Fatal(err)
			}
			w := cat.NewWriter()
			w.SetSnapshot(cat.Clock())
			if _, err := old.InsertW(w, value.NewTuple(1, "Paris")); err != nil {
				t.Fatal(err)
			}
			if err := cat.Drop("T"); err != nil {
				t.Fatal(err)
			}
			tbl, err := cat.Create("T", flightsSchema(), "fno")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tbl.Insert(value.NewTuple(2, "Rome")); err != nil {
				t.Fatal(err)
			}
			if compact {
				if err := l.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			if commit {
				w.Commit()
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
		for _, commit := range []bool{true, false} {
			plain := filepath.Join(t.TempDir(), "wal")
			compacted := filepath.Join(t.TempDir(), "wal")
			script(plain, false, commit)
			script(compacted, true, commit)
			for i := 0; i < 2; i++ {
				var got [2]string
				for j, dir := range []string{plain, compacted} {
					cat, l, _ := takeOver(t, dir)
					got[j] = fmt.Sprint(rows(t, cat, "T"))
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
				}
				if got[0] != "[(2, 'Rome')]" || got[1] != got[0] {
					t.Errorf("commit=%v, recovery %d: uncompacted %s, compacted %s; want [(2, 'Rome')]", commit, i, got[0], got[1])
				}
			}
		}
	})
}

// TestTxnTagReuseAfterRestart: Txn tags restart at 1 with every process.
// A crash with tag 1 open, a restart that rolls it back, and a new tag-1
// transaction that commits: two later recoveries show only the new rows,
// because the rollback closed the old tag in the log itself.
func TestTxnTagReuseAfterRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cat, l := loggedCatalog(t, dir)
	tbl, err := cat.Create("T", flightsSchema(), "fno")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.InsertW(cat.NewWriter(), value.NewTuple(1, "old")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // the crash: tag 1 is open
		t.Fatal(err)
	}

	cat2, l2, n := takeOver(t, dir)
	if n != 1 {
		t.Fatalf("rolled back %d transactions, want 1", n)
	}
	tbl2, _ := cat2.Get("T")
	w := cat2.NewWriter()
	if _, err := tbl2.InsertW(w, value.NewTuple(2, "new")); err != nil {
		t.Fatal(err)
	}
	w.Commit()
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	commits := 0
	for _, s := range l2.Segments() {
		for _, r := range decodeSegmentFile(OSFS(), s).recs {
			if r.Op == storage.OpCommit && r.Txn == 1 {
				commits++
			}
		}
	}
	if commits != 2 {
		t.Fatalf("log holds %d commits of tag 1, want the rollback's and the new one's", commits)
	}
	for i := 0; i < 2; i++ {
		l3, cat3 := openLog(t, dir, Options{})
		if got := fmt.Sprint(rows(t, cat3, "T")); got != "[(2, 'new')]" || l3.Applier().OpenTxns() != 0 {
			t.Errorf("recovery %d: rows %s, open %d", i, got, l3.Applier().OpenTxns())
		}
		if err := l3.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRollbackAllRefusesSnapshotBatch: a snapshot segment being applied is a
// rebuild of the whole database, not a transaction; RollbackAll refuses it
// and leaves every open transaction in place.
func TestRollbackAllRefusesSnapshotBatch(t *testing.T) {
	a := NewApplier(storage.NewCatalog())
	for _, r := range []storage.LogRecord{
		{Op: storage.OpCreateTable, Table: "T", Schema: flightsSchema()},
		{Op: storage.OpInsert, Table: "T", RowID: 1, Row: value.NewTuple(1, "Paris"), Txn: 1},
	} {
		if err := a.Apply(r); err != nil {
			t.Fatal(err)
		}
	}
	a.BeginSnapshot()
	if n, err := a.RollbackAll(); err == nil || n != 0 || a.OpenTxns() != 2 {
		t.Fatalf("RollbackAll with a snapshot batch open = %d, %v; %d open", n, err, a.OpenTxns())
	}
}

// TestLogFromPublishingRecovery replays logs shaped the way a recovery that
// published open transactions left them: tag 1 is open at a crash, the
// restart makes its row visible without logging anything, and the new
// process draws Txn tags from 1 again. Today's replay keeps tag 1 open
// instead, so such a log replays differently; compacting it with the build
// that wrote it first turns the published rows into snapshot rows.
func TestLogFromPublishingRecovery(t *testing.T) {
	crash := []storage.LogRecord{
		{Op: storage.OpCreateTable, Table: "T", Schema: flightsSchema(), PK: []string{"fno"}},
		{Op: storage.OpInsert, Table: "T", RowID: 1, Row: value.NewTuple(1, "Paris"), Txn: 1},
	}
	write := func(t *testing.T, dir string, segs ...[]storage.LogRecord) {
		t.Helper()
		for _, recs := range segs {
			l, _ := openLog(t, dir, Options{})
			for _, r := range recs {
				if err := l.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("later writer touches the row", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "wal")
		write(t, dir, crash, []storage.LogRecord{
			{Op: storage.OpUpdate, Table: "T", RowID: 1, Row: value.NewTuple(1, "Oslo")},
		})
		_, err := OpenLog(dir, storage.NewCatalog(), Options{})
		if !errors.Is(err, storage.ErrWriteConflict) ||
			!strings.Contains(err.Error(), "record 3 (update T)") ||
			!strings.Contains(err.Error(), "held by a transaction with no commit record") {
			t.Fatalf("OpenLog = %v, want a refusal naming record 3 (update T)", err)
		}
	})

	t.Run("reused tag commits the orphan", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "wal")
		write(t, dir, crash, []storage.LogRecord{
			{Op: storage.OpInsert, Table: "T", RowID: 2, Row: value.NewTuple(2, "Rome"), Txn: 1},
			{Op: storage.OpCommit, Txn: 1, TS: 10},
		})
		cat, l, n := takeOver(t, dir)
		defer l.Close()
		if got := fmt.Sprint(rows(t, cat, "T")); n != 0 || got != "[(1, 'Paris') (2, 'Rome')]" {
			t.Fatalf("rolled back %d, rows %s", n, got)
		}
	})

	t.Run("tag never reused is rolled back", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "wal")
		write(t, dir, crash, []storage.LogRecord{
			{Op: storage.OpInsert, Table: "T", RowID: 2, Row: value.NewTuple(2, "Rome")},
		})
		cat, l, n := takeOver(t, dir)
		defer l.Close()
		if got := fmt.Sprint(rows(t, cat, "T")); n != 1 || got != "[(2, 'Rome')]" {
			t.Fatalf("rolled back %d, rows %s", n, got)
		}
	})

	t.Run("compacted by the build that wrote it", func(t *testing.T) {
		// That build's compaction published the open row into the snapshot.
		dir := filepath.Join(t.TempDir(), "wal")
		snap := storage.NewCatalog()
		tbl, err := snap.Create("T", flightsSchema(), "fno")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.Insert(value.NewTuple(1, "Paris")); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := writeSnapshotSegment(OSFS(), dir, 1, snap, nil); err != nil {
			t.Fatal(err)
		}
		write(t, dir, []storage.LogRecord{
			{Op: storage.OpUpdate, Table: "T", RowID: 1, Row: value.NewTuple(1, "Oslo")},
		})
		cat, l, n := takeOver(t, dir)
		defer l.Close()
		if got := fmt.Sprint(rows(t, cat, "T")); n != 0 || got != "[(1, 'Oslo')]" {
			t.Fatalf("rolled back %d, rows %s", n, got)
		}
	})
}
