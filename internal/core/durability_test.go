package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func walSystem(t *testing.T, path string) *System {
	t.Helper()
	s := NewSystem(Config{WALPath: path})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDurableRestart: base tables AND installed coordinated answers survive a
// restart; pending queries do not (they belong to live sessions).
func TestDurableRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "y.wal")

	s1 := walSystem(t, path)
	if err := s1.Exec(`
		CREATE TABLE Flights (fno INT, dest STRING, PRIMARY KEY (fno));
		INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris');
	`); err != nil {
		t.Fatal(err)
	}
	// A matched pair installs durable answers.
	h1, err := s1.Submit(`SELECT 'K', fno INTO ANSWER Reservation
		WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')
		AND ('J', fno) IN ANSWER Reservation CHOOSE 1`, "k")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Submit(`SELECT 'J', fno INTO ANSWER Reservation
		WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')
		AND ('K', fno) IN ANSWER Reservation CHOOSE 1`, "j"); err != nil {
		t.Fatal(err)
	}
	out := wait(t, h1)
	flight := out.Answers[0].Tuples[0][1].Int()
	// Plus one forever-pending query (must NOT survive).
	if _, err := s1.Submit(`SELECT 'X', fno INTO ANSWER Reservation
		WHERE fno IN (SELECT fno FROM Flights) AND ('Ghost', fno) IN ANSWER Reservation`, "x"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart.
	s2 := walSystem(t, path)
	defer s2.Close()
	res, err := s2.Query("SELECT fno FROM Flights ORDER BY fno")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("flights after restart = %v", res.Rows)
	}
	// Installed answers recovered and queryable.
	res, err = s2.Query("SELECT * FROM Reservation")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("reservation after restart = %v", res.Rows)
	}
	// Pending queries are volatile.
	if n := s2.Coordinator().PendingCount(); n != 0 {
		t.Errorf("pending after restart = %d", n)
	}
	// The recovered Reservation is adopted as an answer relation: a new
	// partner can entangle with the pre-crash answer.
	h3, err := s2.Submit(`SELECT 'E', fno INTO ANSWER Reservation
		WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')
		AND ('K', fno) IN ANSWER Reservation CHOOSE 1`, "e")
	if err != nil {
		t.Fatal(err)
	}
	out3 := wait(t, h3)
	if got := out3.Answers[0].Tuples[0][1].Int(); got != flight {
		t.Errorf("post-restart coordination got flight %d, pre-crash friends on %d", got, flight)
	}
}

// TestDurableRollbackConverges: a statement that fails mid-way (duplicate PK
// on the second row) leaves no trace after replay.
func TestDurableRollbackConverges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "y.wal")
	s1 := walSystem(t, path)
	if err := s1.Exec(`CREATE TABLE T (x INT, PRIMARY KEY (x)); INSERT INTO T VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	if err := s1.Exec(`INSERT INTO T VALUES (2), (1)`); err == nil {
		t.Fatal("duplicate PK accepted")
	}
	s1.Close()

	s2 := walSystem(t, path)
	defer s2.Close()
	res, err := s2.Query("SELECT x FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Errorf("rows after replayed rollback = %v", res.Rows)
	}
}

// TestWALRecoveryError: corruption in a sealed segment surfaces through Err.
// (A damaged tail is truncated, not an error — that is the torn-write path.)
func TestWALRecoveryError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "y.wal")
	// Auto-compaction off: the test needs the sealed segment file to still
	// exist (un-absorbed) after Close so it can corrupt it.
	s1 := NewSystem(Config{WALPath: path, WALSegmentBytes: 128, WALCompactAfter: -1})
	if err := s1.Err(); err != nil {
		t.Fatal(err)
	}
	s1.Exec("CREATE TABLE T (x INT)") //nolint:errcheck
	for i := 0; i < 40; i++ {
		s1.Exec(fmt.Sprintf("INSERT INTO T VALUES (%d)", i)) //nolint:errcheck
	}
	segs := s1.WAL().Segments()
	if len(segs) < 2 {
		t.Fatalf("need a sealed segment, got %+v", segs)
	}
	sealedPath := segs[0].Path
	s1.Close()

	// Corrupt the sealed segment mid-record.
	data, err := os.ReadFile(sealedPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(sealedPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := NewSystem(Config{WALPath: path})
	if s2.Err() == nil || !strings.Contains(s2.Err().Error(), "recovery") {
		t.Errorf("Err = %v", s2.Err())
	}
}

// TestDurableSyncRestart: the group-committed fsync mode round-trips and the
// WAL stats show fsyncs amortized below one per record.
func TestDurableSyncRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "y.wal")
	s1 := NewSystem(Config{WALPath: path, WALSync: true})
	if err := s1.Err(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Exec(`
		CREATE TABLE Flights (fno INT, dest STRING, PRIMARY KEY (fno));
		INSERT INTO Flights VALUES (1, 'Paris'), (2, 'Rome'), (3, 'Oslo');
		UPDATE Flights SET dest = 'Milan' WHERE fno = 2;
	`); err != nil {
		t.Fatal(err)
	}
	st, ok := s1.WALStatsSnapshot()
	if !ok {
		t.Fatal("no WAL stats on a durable system")
	}
	if st.Commits.Syncs == 0 || st.Commits.Syncs >= st.Commits.Records {
		t.Errorf("sync mode stats: %+v (want 0 < syncs < records)", st.Commits)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := NewSystem(Config{WALPath: path, WALSync: true})
	if err := s2.Err(); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res, err := s2.Query("SELECT dest FROM Flights WHERE fno = 2")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str() != "Milan" {
		t.Errorf("rows = %v, %v", res, err)
	}
}

// TestRollbackCompensationsDurable: under WALSync a ROLLBACK must flush its
// compensation records. If a concurrent statement's group commit already
// carried the transaction's forward records to disk, an un-flushed rollback
// followed by a crash would resurrect the rolled-back rows on replay.
func TestRollbackCompensationsDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "y.wal")
	s1 := NewSystem(Config{WALPath: path, WALSync: true})
	if err := s1.Err(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Exec("CREATE TABLE T (x INT, PRIMARY KEY (x)); CREATE TABLE Other (y INT)"); err != nil {
		t.Fatal(err)
	}
	sess := NewSession(s1)
	for _, stmt := range []string{"BEGIN", "INSERT INTO T VALUES (1)"} {
		if _, err := sess.Execute(stmt, ""); err != nil {
			t.Fatal(err)
		}
	}
	// A concurrent plain statement group-commits, carrying the open
	// transaction's buffered forward records to disk with it.
	if err := s1.Exec("INSERT INTO Other VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute("ROLLBACK", ""); err != nil {
		t.Fatal(err)
	}

	// Crash: abandon s1 without Close and replay the directory.
	s2 := NewSystem(Config{WALPath: path})
	if err := s2.Err(); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res, err := s2.Query("SELECT x FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("rolled-back row resurrected by recovery: %v", res.Rows)
	}
}

// TestLegacyJSONLogRefused: a system whose WALPath holds a log in the
// retired JSON-lines format — as a file at the path or as a "*.json"
// segment in the directory — fails to start and leaves the file unchanged,
// instead of starting an empty database beside it.
func TestLegacyJSONLogRefused(t *testing.T) {
	legacy := []byte(`{"op":"create","table":"T","schema":[{"name":"x","type":"INT"}]}` + "\n")
	filePath := filepath.Join(t.TempDir(), "y.wal")
	dirPath := filepath.Join(t.TempDir(), "y.wal")
	if err := os.MkdirAll(dirPath, 0o755); err != nil {
		t.Fatal(err)
	}
	for path, file := range map[string]string{
		filePath: filePath,
		dirPath:  filepath.Join(dirPath, "00000001.json"),
	} {
		if err := os.WriteFile(file, legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		s := NewSystem(Config{WALPath: path})
		if err := s.Err(); err == nil || !strings.Contains(err.Error(), file) {
			t.Errorf("WALPath %s: Err = %v, want a refusal naming %s", path, err, file)
		}
		s.Close() //nolint:errcheck
		if got, err := os.ReadFile(file); err != nil || !bytes.Equal(got, legacy) {
			t.Errorf("%s changed: %q, %v", file, got, err)
		}
	}
}

// TestCompactUnderConcurrentWrites: compaction does not quiesce the system —
// writers keep committing while it runs, and nothing is lost on restart.
func TestCompactUnderConcurrentWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "y.wal")
	s1 := NewSystem(Config{WALPath: path, WALSegmentBytes: 512, WALCompactAfter: -1})
	if err := s1.Err(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Exec("CREATE TABLE T (x INT, PRIMARY KEY (x))"); err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 50
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := s1.Exec(fmt.Sprintf("INSERT INTO T VALUES (%d)", w*each+i)); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for i := 0; i < 5; i++ {
		if err := s1.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := s1.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := walSystem(t, path)
	defer s2.Close()
	res, err := s2.Query("SELECT COUNT(*) FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != writers*each {
		t.Errorf("rows after compaction under load = %d, want %d", got, writers*each)
	}
}

// TestPromotionRollsBackOpenTxn: a follower whose chain holds half of a
// transaction — its row records shipped, its commit record not — is
// promoted. The rows stay absent, and the promoted log closes the
// transaction with compensations and a commit, so a replay of it leaves
// nothing open and shows the same rows.
func TestPromotionRollsBackOpenTxn(t *testing.T) {
	pdir := filepath.Join(t.TempDir(), "p")
	p := walSystem(t, pdir)
	defer p.Close()
	if err := p.Exec("CREATE TABLE T (x INT, PRIMARY KEY (x)); INSERT INTO T VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	sess := NewSession(p)
	for _, q := range []string{"BEGIN", "INSERT INTO T VALUES (2)", "UPDATE T SET x = 3 WHERE x = 1"} {
		if _, err := sess.Execute(q, ""); err != nil {
			t.Fatal(err)
		}
	}
	// The follower's chain is a byte copy of the primary's, as shipping
	// leaves it.
	fdir := filepath.Join(t.TempDir(), "f")
	if err := os.MkdirAll(fdir, 0o755); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(pdir, "*.wal"))
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(fdir, filepath.Base(seg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	follower := func() *System {
		t.Helper()
		f := NewSystem(Config{WALPath: fdir, WALFollower: true})
		if err := f.Err(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	rows := func(s *System) string {
		t.Helper()
		res, err := s.Query("SELECT x FROM T ORDER BY x")
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Rows)
	}

	f := follower()
	if n := f.ReplApplier().OpenTxns(); n != 1 {
		t.Fatalf("follower holds %d open transactions, want 1", n)
	}
	if err := f.BecomePrimary(); err != nil {
		t.Fatal(err)
	}
	if got := rows(f); got != "[(1)]" {
		t.Errorf("promoted rows %s, want [(1)]", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	re := follower()
	defer re.Close()
	if n, got := re.ReplApplier().OpenTxns(), rows(re); n != 0 || got != "[(1)]" {
		t.Errorf("replay of the promoted log: %d open, rows %s; want 0, [(1)]", n, got)
	}
}
