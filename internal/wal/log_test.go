package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/value"
)

func openLog(t *testing.T, dir string, opts Options) (*Log, *storage.Catalog) {
	t.Helper()
	cat := storage.NewCatalog()
	l, err := OpenLog(dir, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, cat
}

// attach wires every catalog mutation into the log, as core does.
func attach(cat *storage.Catalog, l *Log) {
	cat.SetLog(func(r storage.LogRecord) { l.Append(r) }) //nolint:errcheck
}

func TestBinaryRecordRoundTrip(t *testing.T) {
	schema := value.NewSchema(
		value.Col("i", value.TypeInt), value.Col("s", value.TypeString),
		value.Col("f", value.TypeFloat), value.Col("b", value.TypeBool),
	)
	recs := []storage.LogRecord{
		{Op: storage.OpCreateTable, Table: "T", Schema: schema, PK: []string{"i"}},
		{Op: storage.OpDropTable, Table: "Gone"},
		{Op: storage.OpCreateIndex, Table: "T", Cols: []string{"s", "f"}},
		{Op: storage.OpCreateOrderedIndex, Table: "T", Cols: []string{"i"}},
		{Op: storage.OpInsert, Table: "T", RowID: 42, Row: value.NewTuple(-7, "x'y\"z", 2.5, true)},
		{Op: storage.OpUpdate, Table: "T", RowID: 42, Row: value.NewTuple(8, "", -0.0, false)},
		{Op: storage.OpDelete, Table: "T", RowID: 42},
		{Op: storage.OpRestore, Table: "T", RowID: 42, Row: value.NewTuple(nil, nil, nil, nil)},
		{Op: storage.OpInsert, Table: "T", RowID: 43, Row: value.NewTuple(1, "t", 0.5, true), Txn: 7},
		{Op: storage.OpCommit, TS: 1 << 40, Txn: 7},
	}
	var buf []byte
	var err error
	for _, r := range recs {
		buf, err = appendFramedRecord(buf, r)
		if err != nil {
			t.Fatal(err)
		}
	}
	got, good, torn, err := decodeRecords(buf)
	if err != nil || torn || good != len(buf) {
		t.Fatalf("decode: err=%v torn=%v good=%d/%d", err, torn, good, len(buf))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i, r := range recs {
		g := got[i]
		if g.Op != r.Op || g.Table != r.Table || g.RowID != r.RowID || g.Txn != r.Txn || g.TS != r.TS {
			t.Errorf("record %d: got %+v want %+v", i, g, r)
		}
		if len(g.Row) != len(r.Row) {
			t.Fatalf("record %d row arity %d != %d", i, len(g.Row), len(r.Row))
		}
		for c := range r.Row {
			if !g.Row[c].Identical(r.Row[c]) {
				t.Errorf("record %d col %d: %v != %v", i, c, g.Row[c], r.Row[c])
			}
		}
		if r.Op == storage.OpCreateTable {
			if g.Schema.String() != r.Schema.String() {
				t.Errorf("schema %v != %v", g.Schema, r.Schema)
			}
			if fmt.Sprint(g.PK) != fmt.Sprint(r.PK) {
				t.Errorf("pk %v != %v", g.PK, r.PK)
			}
		}
	}
}

func TestLogRoundTripAndRowIDContinuity(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, cat := openLog(t, dir, Options{})
	attach(cat, l)

	tbl, err := cat.Create("Flights", flightsSchema(), "fno")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("dest"); err != nil {
		t.Fatal(err)
	}
	id1, _ := tbl.Insert(value.NewTuple(122, "Paris"))
	id2, _ := tbl.Insert(value.NewTuple(136, "Rome"))
	tbl.Update(id2, value.NewTuple(136, "Milan")) //nolint:errcheck
	id3, _ := tbl.Insert(value.NewTuple(140, "Oslo"))
	tbl.Delete(id3) //nolint:errcheck
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, cat2 := openLog(t, dir, Options{})
	defer l2.Close()
	if n := l2.Recovered().Records; n != 7 {
		t.Errorf("recovered %d records", n)
	}
	tbl2, err := cat2.Get("Flights")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != 2 {
		t.Fatalf("recovered %d rows", tbl2.Len())
	}
	row, err := tbl2.Get(id1)
	if err != nil || row[1].Str() != "Paris" {
		t.Errorf("row1 = %v, %v", row, err)
	}
	row, err = tbl2.Get(id2)
	if err != nil || row[1].Str() != "Milan" {
		t.Errorf("row2 = %v, %v", row, err)
	}
	if !tbl2.HasIndex([]int{1}) {
		t.Error("index not recovered")
	}
	if _, err := tbl2.Insert(value.NewTuple(122, "Dup")); err == nil {
		t.Error("PK not recovered")
	}
	newID, err := tbl2.Insert(value.NewTuple(150, "Lima"))
	if err != nil {
		t.Fatal(err)
	}
	if newID <= id3 {
		t.Errorf("rowid %d reused (last was %d)", newID, id3)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, cat := openLog(t, dir, Options{SegmentBytes: 256})
	attach(cat, l)
	tbl, err := cat.Create("T", flightsSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := tbl.Insert(value.NewTuple(i, "Paris")); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	if len(segs) < 4 {
		t.Fatalf("expected several segments at 256-byte rotation, got %d", len(segs))
	}
	if st := l.Stats(); st.Rotations == 0 {
		t.Error("no rotations counted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, cat2 := openLog(t, dir, Options{SegmentBytes: 256})
	defer l2.Close()
	if got := l2.Recovered().Segments; got != len(segs) {
		t.Errorf("replayed %d segments, want %d", got, len(segs))
	}
	tbl2, err := cat2.Get("T")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != 100 {
		t.Errorf("recovered %d rows", tbl2.Len())
	}
}

func TestGroupCommitConcurrentDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, cat := openLog(t, dir, Options{Sync: SyncAlways})
	attach(cat, l)
	if _, err := cat.Create("T", flightsSchema()); err != nil {
		t.Fatal(err)
	}

	// Transaction shape: each writer streams 4 records into the buffer and
	// pays the durability wait once, at Commit. Even fully serialized that
	// guarantees ≥4 records per flush; concurrent committers share flushes.
	const writers, txns, perTxn = 8, 25, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				for k := 0; k < perTxn; k++ {
					n := (w*txns+i)*perTxn + k
					rec := storage.LogRecord{
						Op: storage.OpInsert, Table: "T",
						RowID: storage.RowID(1 + n),
						Row:   value.NewTuple(n, "Paris"),
					}
					if err := l.AppendAsync(rec); err != nil {
						t.Error(err)
						return
					}
				}
				if err := l.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Records != 1+writers*txns*perTxn {
		t.Fatalf("records = %d", st.Records)
	}
	if st.Syncs > st.Records/perTxn+1 {
		t.Errorf("group commit did not amortize: %d fsyncs for %d records", st.Syncs, st.Records)
	}
	t.Logf("group commit: %d records in %d batches (%d fsyncs), %.1f records/fsync",
		st.Records, st.Batches, st.Syncs, float64(st.Records)/float64(st.Syncs))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, cat2 := openLog(t, dir, Options{})
	defer l2.Close()
	tbl2, err := cat2.Get("T")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != writers*txns*perTxn {
		t.Errorf("recovered %d rows, want %d", tbl2.Len(), writers*txns*perTxn)
	}
}

// TestConcurrentSynchronousAppend: plain Append from many goroutines — the
// per-record commit path — stays correct under contention (batching is
// scheduler-dependent and not asserted here).
func TestConcurrentSynchronousAppend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, cat := openLog(t, dir, Options{Sync: SyncAlways, SegmentBytes: 4096})
	attach(cat, l)
	if _, err := cat.Create("T", flightsSchema()); err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				n := w*each + i
				err := l.Append(storage.LogRecord{
					Op: storage.OpInsert, Table: "T",
					RowID: storage.RowID(1 + n), Row: value.NewTuple(n, "Rome"),
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, cat2 := openLog(t, dir, Options{})
	defer l2.Close()
	tbl2, err := cat2.Get("T")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != writers*each {
		t.Errorf("recovered %d rows, want %d", tbl2.Len(), writers*each)
	}
}

func TestCompactSealedSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, cat := openLog(t, dir, Options{SegmentBytes: 256})
	attach(cat, l)
	tbl, err := cat.Create("T", flightsSchema(), "fno")
	if err != nil {
		t.Fatal(err)
	}
	tbl.CreateIndex("dest") //nolint:errcheck
	var keep []storage.RowID
	for i := 0; i < 200; i++ {
		id, err := tbl.Insert(value.NewTuple(i, "Paris"))
		if err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			keep = append(keep, id)
		} else {
			tbl.Delete(id) //nolint:errcheck
		}
	}
	before := len(l.Segments())
	var beforeBytes int64
	for _, s := range l.Segments() {
		beforeBytes += s.Bytes
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	segs := l.Segments()
	if len(segs) != 2 { // snapshot + fresh active
		t.Fatalf("segments after compact = %d (before %d): %+v", len(segs), before, segs)
	}
	if !segs[0].Snapshot {
		t.Error("first segment is not a snapshot")
	}
	var afterBytes int64
	for _, s := range segs {
		afterBytes += s.Bytes
	}
	if afterBytes >= beforeBytes {
		t.Errorf("compact did not shrink: %d → %d bytes", beforeBytes, afterBytes)
	}
	// On-disk file set matches the in-memory view.
	onDisk, err := listSegments(OSFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != 2 {
		t.Errorf("files on disk = %+v", onDisk)
	}
	// Appends continue after compaction.
	if _, err := tbl.Insert(value.NewTuple(999, "Oslo")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, cat2 := openLog(t, dir, Options{})
	defer l2.Close()
	tbl2, err := cat2.Get("T")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != len(keep)+1 {
		t.Fatalf("rows = %d, want %d", tbl2.Len(), len(keep)+1)
	}
	for _, id := range keep {
		if _, err := tbl2.Get(id); err != nil {
			t.Errorf("row %d lost: %v", id, err)
		}
	}
	if !tbl2.HasIndex([]int{1}) {
		t.Error("index lost in compaction")
	}
	if pk := tbl2.PrimaryKey(); len(pk) != 1 || pk[0] != "fno" {
		t.Errorf("pk = %v", pk)
	}
}

func TestAutoCompactInBackground(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, cat := openLog(t, dir, Options{SegmentBytes: 256, CompactAfter: 3})
	attach(cat, l)
	tbl, err := cat.Create("T", flightsSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := tbl.Insert(value.NewTuple(i, "Paris")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Compacts == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if l.Stats().Compacts == 0 {
		t.Fatal("background compaction never ran")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, cat2 := openLog(t, dir, Options{})
	defer l2.Close()
	tbl2, err := cat2.Get("T")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != 300 {
		t.Errorf("recovered %d rows", tbl2.Len())
	}
}

// TestInterruptedCompactionRecovers: a snapshot was published but the stale
// segments it absorbed were never deleted (crash in between). Recovery must
// start at the snapshot and ignore — then delete — the stale prefix.
func TestInterruptedCompactionRecovers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	// CompactPoolPages keeps the crash/recovery coverage on the pooled
	// scratch path; the scratch is non-durable, so the recovery story must
	// be identical either way.
	l, cat := openLog(t, dir, Options{SegmentBytes: 256, CompactPoolPages: 4})
	attach(cat, l)
	tbl, _ := cat.Create("T", flightsSchema())
	for i := 0; i < 60; i++ {
		tbl.Insert(value.NewTuple(i, "Paris")) //nolint:errcheck
	}
	// Save a sealed segment, compact, then put the stale file back.
	segs := l.Segments()
	if len(segs) < 3 {
		t.Fatalf("need sealed segments, got %+v", segs)
	}
	stale, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	stalePath := segs[0].Path
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stalePath, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, cat2 := openLog(t, dir, Options{})
	defer l2.Close()
	tbl2, err := cat2.Get("T")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != 60 {
		t.Errorf("rows = %d (stale segment replayed?)", tbl2.Len())
	}
	if _, err := os.Stat(stalePath); !os.IsNotExist(err) {
		t.Errorf("stale pre-snapshot segment not cleaned up: %v", err)
	}
}

func TestAppendAfterCloseLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _ := openLog(t, dir, Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(storage.LogRecord{Op: storage.OpDropTable, Table: "x"}); err == nil {
		t.Error("append after close succeeded")
	}
}

func TestParallelRecoveryManySegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, cat := openLog(t, dir, Options{SegmentBytes: 128})
	attach(cat, l)
	tbl, _ := cat.Create("T", flightsSchema())
	const rows = 500
	for i := 0; i < rows; i++ {
		if _, err := tbl.Insert(value.NewTuple(i, fmt.Sprintf("city-%d", i%7))); err != nil {
			t.Fatal(err)
		}
	}
	nsegs := len(l.Segments())
	if nsegs < 10 {
		t.Fatalf("want many segments, got %d", nsegs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, cat2 := openLog(t, dir, Options{SegmentBytes: 128})
	defer l2.Close()
	tbl2, err := cat2.Get("T")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != rows {
		t.Fatalf("recovered %d rows, want %d", tbl2.Len(), rows)
	}
	for i := 0; i < rows; i++ {
		row, err := tbl2.Get(storage.RowID(i + 1))
		if err != nil {
			t.Fatalf("row %d: %v", i+1, err)
		}
		if row[0].Int() != int64(i) || row[1].Str() != fmt.Sprintf("city-%d", i%7) {
			t.Errorf("row %d = %v", i+1, row)
		}
	}
}

// TestCompactRotationDrainsParkedAppends is the regression test for a group-
// commit deadlock: Compact takes flush ownership to rotate the active
// segment, and any Append arriving inside that window parks on a fresh
// commit generation with no elected leader. Compact must drain that
// generation after releasing ownership — if every writer goroutine is
// parked there, no later Append will ever come along to do it.
func TestCompactRotationDrainsParkedAppends(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _ := openLog(t, dir, Options{SegmentBytes: 256})
	defer l.Close()

	// The log must replay, since Compact replays it: create the table
	// first, and give every insert its own row.
	if err := l.Append(storage.LogRecord{Op: storage.OpCreateTable, Table: "T", Schema: flightsSchema()}); err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := storage.LogRecord{Op: storage.OpInsert, Table: "T", RowID: storage.RowID(w*each + i + 1),
					Row: value.NewTuple(1, "payload payload payload")}
				if err := l.Append(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Compact concurrently and repeatedly: each run rotates the (tiny)
	// active segment while appenders race into the ownership window.
	for i := 0; i < 20; i++ {
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("appenders deadlocked: a commit generation parked during Compact's rotation window was never drained")
	}
	if got := l.Stats().Records; got != writers*each+1 {
		t.Fatalf("records = %d, want %d", got, writers*each)
	}
}

// TestCompactPoolBoundsScratchMemory: compacting a log whose live set is
// several times larger than the scratch pool must hold O(pool frames)
// tuples in memory, not O(rows) — the scratch catalog pages everything
// else out to a throwaway temp directory.
func TestCompactPoolBoundsScratchMemory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	const poolFrames = 8
	l, cat := openLog(t, dir, Options{SegmentBytes: 128 << 10, CompactPoolPages: poolFrames})
	attach(cat, l)
	tbl, err := cat.Create("T", flightsSchema(), "fno")
	if err != nil {
		t.Fatal(err)
	}
	payload := strings.Repeat("x", 200)
	const rows = 4000
	for i := 0; i < rows; i++ {
		if _, err := tbl.Insert(value.NewTuple(i, payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	info := l.CompactScratch()
	if !info.Pooled {
		t.Fatal("compaction scratch did not run pooled")
	}
	if info.Frames != poolFrames {
		t.Fatalf("scratch frames = %d, want %d", info.Frames, poolFrames)
	}
	if info.Resident > info.Frames {
		t.Fatalf("resident %d exceeds pool of %d frames", info.Resident, info.Frames)
	}
	// The dataset must genuinely dwarf the pool, or the bound is vacuous.
	if info.HeapPages < 4*poolFrames {
		t.Fatalf("scratch spilled only %d heap pages for %d frames; dataset too small to prove the bound", info.HeapPages, poolFrames)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The bounded scratch must still produce a faithful snapshot.
	l2, cat2 := openLog(t, dir, Options{})
	defer l2.Close()
	tbl2, err := cat2.Get("T")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != rows {
		t.Fatalf("rows after recovery = %d, want %d", tbl2.Len(), rows)
	}
	for _, probe := range []int{0, rows / 2, rows - 1} {
		if _, row, ok := tbl2.LookupPK(value.NewTuple(probe)); !ok || len(row) != 2 {
			t.Fatalf("pk %d lost after pooled compaction", probe)
		}
	}
}

// TestCompactOrderedIndexAfterRows compacts a log whose ordered index covers
// a column in reverse RowID order. The snapshot must carry the index record
// after the table's rows (so replay builds the index with one sort), and
// recovering it must give the same index as recovering the uncompacted log:
// the same entries in (value, id) order, the same statistics and the same
// range query results.
func TestCompactOrderedIndexAfterRows(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "wal")
	l, cat := openLog(t, dir, Options{SegmentBytes: 4096})
	attach(cat, l)
	schema := value.NewSchema(value.Col("id", value.TypeInt), value.Col("k", value.TypeInt))
	tbl, err := cat.Create("T", schema, "id")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateOrderedIndexNamed("by_k", "k"); err != nil {
		t.Fatal(err)
	}
	const n = 600
	for i := 0; i < n; i++ {
		var k any = (n - i) / 2 // descending with RowID, in pairs
		if i%37 == 0 {
			k = nil
		}
		id, err := tbl.Insert(value.NewTuple(i, k))
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case i%11 == 0:
			tbl.Delete(id) //nolint:errcheck
		case i%13 == 0:
			tbl.Update(id, value.NewTuple(i, -i)) //nolint:errcheck
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	plain := filepath.Join(base, "plain")
	if err := os.MkdirAll(plain, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(plain, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	l, _ = openLog(t, dir, Options{SegmentBytes: 4096})
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	snap := l.Segments()[0]
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if !snap.Snapshot {
		t.Fatalf("first segment after compaction is not a snapshot: %+v", snap)
	}
	d := decodeSegmentFile(OSFS(), snap)
	if d.err != nil || d.torn {
		t.Fatalf("decode snapshot: err=%v torn=%v", d.err, d.torn)
	}
	lastInsert, indexAt := -1, -1
	for i, r := range d.recs {
		switch r.Op {
		case storage.OpInsert:
			lastInsert = i
		case storage.OpCreateOrderedIndex:
			indexAt = i
		}
	}
	if indexAt < 0 || indexAt < lastInsert {
		t.Fatalf("ordered index record at %d, last insert at %d: index must follow the rows", indexAt, lastInsert)
	}

	recovered := func(dir string) *storage.Table {
		l, cat := openLog(t, dir, Options{})
		t.Cleanup(func() { l.Close() }) //nolint:errcheck
		cat.GC()
		tbl, err := cat.Get("T")
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	want, got := recovered(plain), recovered(dir)
	if w, g := fmt.Sprint(want.Stats()), fmt.Sprint(got.Stats()); w != g {
		t.Fatalf("stats differ:\n uncompacted %s\n compacted   %s", w, g)
	}
	bounds := [][2]storage.Bound{
		{{}, {}},
		{storage.BoundAt(value.NewInt(10), true), storage.BoundAt(value.NewInt(100), false)},
		{storage.BoundAt(value.NewInt(-50), false), storage.BoundAt(value.NewInt(0), true)},
		{storage.BoundAt(value.NewInt(150), true), {}},
	}
	for _, b := range bounds {
		w, g := want.LookupRange(1, b[0], b[1]), got.LookupRange(1, b[0], b[1])
		if fmt.Sprint(w) != fmt.Sprint(g) {
			t.Errorf("range %v..%v: uncompacted %v, compacted %v", b[0], b[1], w, g)
		}
	}
	if len(want.LookupRange(1, storage.Bound{}, storage.Bound{})) == 0 {
		t.Fatal("index holds no entries; test proves nothing")
	}
}
