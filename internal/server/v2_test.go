package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/travel"
)

// TestV2Int64Exact: the v2 codec round-trips int64 exactly, pinned at
// 1<<60 + 1 — a value float64 cannot represent.
func TestV2Int64Exact(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	const big = int64(1<<60 + 1)
	if _, err := c.Query("CREATE TABLE Big (i INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(fmt.Sprintf("INSERT INTO Big VALUES (%d)", big)); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT i FROM Big")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != big {
		t.Errorf("v2: %d != %d (lost precision)", got, big)
	}
	if int64(float64(big)) == big {
		t.Fatal("test value does not exercise float64 precision loss")
	}
}

// TestV2BadFrameKeepsConnection: a v2 frame that decodes to garbage gets a
// correlated error frame — typed as kindError, never as an event — and the
// connection keeps serving.
func TestV2BadFrameKeepsConnection(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	// Watch an entangled query so a misrouted error would be observable.
	_, ev, err := c.Submit(travel.BuildFlightQuery("K", []string{"Ghost"}, travel.FlightFilter{Dest: "Paris"}), "k")
	if err != nil {
		t.Fatal(err)
	}

	// Inject a malformed frame with a recoverable id straight into the
	// connection, bypassing the client's encoder.
	bad := []byte{kindExec, 42, 0xFF, 0xFF} // kind + id 42 + truncated body
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(bad)))
	c.wmu.Lock()
	c.conn.Write(append(hdr[:], bad...)) //nolint:errcheck
	c.wmu.Unlock()

	// The connection must still answer real requests afterwards.
	res, err := c.Query("SELECT fno FROM Flights WHERE fno = 122")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("connection dead after bad frame: %v %v", res, err)
	}
	select {
	case out := <-ev:
		t.Fatalf("error misrouted onto event watch: %+v", out)
	default:
	}
}

// TestV2LargeStatement: the v2 framed protocol carries multi-megabyte
// statements.
func TestV2LargeStatement(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.Query("CREATE TABLE Blob (s STRING)"); err != nil {
		t.Fatal(err)
	}
	payload := strings.Repeat("y", 2<<20) // 2 MiB
	if _, err := c.Query(fmt.Sprintf("INSERT INTO Blob VALUES ('%s')", payload)); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT s FROM Blob")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Str(); got != payload {
		t.Fatalf("blob came back %d bytes, want %d", len(got), len(payload))
	}
}

// TestV2OversizedFrameError: a frame above maxFrameLen gets the explicit
// max-frame-size error frame before the connection closes.
func TestV2OversizedFrameError(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(v2Magic[:]); err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrameLen+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no error frame before close: %v", err)
	}
	rp, err := decodeReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rp.kind != kindError || rp.errCode != errFrameTooBig {
		t.Errorf("reply = %+v, want kindError/errFrameTooBig", rp)
	}
}

// TestMultiplexedInFlight: one v2 connection sustains many concurrent
// in-flight requests. A second connection holds an exclusive table lock and
// the pipelined statements are writes to that table, so the first blocks
// server-side on the lock (snapshot reads would not) while the rest arrive
// behind it.
func TestMultiplexedInFlight(t *testing.T) {
	_, addr := startServer(t)
	locker := dial(t, addr)
	piped := dial(t, addr)

	mustQ := func(src string) {
		t.Helper()
		if _, err := locker.Query(src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	mustQ("BEGIN")
	mustQ("INSERT INTO Flights VALUES (900, 'X', 'Bonn', 1, 9.0, 'Z')") // X-lock on Flights

	const inflight = 6
	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := piped.Query("UPDATE Flights SET price = price WHERE fno = 122"); err != nil {
				errs <- err
			}
		}()
	}

	// All six must be registered in-flight on the one connection while the
	// lock holds them server-side.
	deadline := time.Now().Add(5 * time.Second)
	for piped.MaxInFlight() < inflight {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight high-water = %d, want %d", piped.MaxInFlight(), inflight)
		}
		time.Sleep(time.Millisecond)
	}
	mustQ("ROLLBACK") // release the lock; everything completes
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := piped.MaxInFlight(); got < 4 {
		t.Errorf("pipelined high-water = %d, want >= 4", got)
	}
}

// TestTeardownWithdrawsAllInFlight: N pending entangled queries multiplexed
// on one connection are all withdrawn when the connection drops — the
// pending bookkeeping followed the writer-loop redesign.
func TestTeardownWithdrawsAllInFlight(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := travel.BuildFlightQuery(fmt.Sprintf("solo%d", i), []string{fmt.Sprintf("ghost%d", i)},
				travel.FlightFilter{Dest: "Paris"})
			if _, _, err := c.Submit(q, "t"); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := srv.sys.Coordinator().PendingCount(); got != n {
		t.Fatalf("pending = %d, want %d", got, n)
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.sys.Coordinator().PendingCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("still %d pending after disconnect", srv.sys.Coordinator().PendingCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubmitContextDeadline: a context deadline rides the wire as a TTL and
// withdraws the entangled query server-side, delivering a canceled event.
func TestSubmitContextDeadline(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, ev, err := c.SubmitContext(ctx,
		travel.BuildFlightQuery("K", []string{"Ghost"}, travel.FlightFilter{Dest: "Paris"}), "k")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-ev:
		if !out.Canceled {
			t.Errorf("event = %+v, want canceled", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadline did not cancel the query server-side")
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.sys.Coordinator().PendingCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("expired query still pending")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQueryContextCancel: canceling the context abandons the wait (the
// reply, when it arrives, is dropped) without poisoning the connection.
func TestQueryContextCancel(t *testing.T) {
	_, addr := startServer(t)
	locker := dial(t, addr)
	c := dial(t, addr)
	if _, err := locker.Query("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := locker.Query("INSERT INTO Flights VALUES (901, 'X', 'Bonn', 1, 9.0, 'Z')"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// Under MVCC reads never block, so stall on the writer's exclusive lock
	// with a (no-match) write instead.
	if _, err := c.QueryContext(ctx, "DELETE FROM Flights WHERE fno = -1"); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if _, err := locker.Query("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	// The connection survives the abandoned call.
	res, err := c.Query("SELECT fno FROM Flights WHERE fno = 122")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("connection unusable after ctx cancel: %v %v", res, err)
	}
}

// TestTypedAdminEquivalence: the typed getters return data equivalent to the
// server's own snapshots, and their client-side rendering matches the
// server-side formatting.
func TestTypedAdminEquivalence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	sys := core.NewSystem(core.Config{WALPath: dir, CoordShards: 2})
	if err := sys.Err(); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := travel.SeedFigure1(sys); err != nil {
		t.Fatal(err)
	}
	srv, err := Listen(sys, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, err := c.Submit(travel.BuildFlightQuery("K", []string{"Ghost"}, travel.FlightFilter{Dest: "Paris"}), "kramer"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	stats, err := c.AdminStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := sys.Coordinator().Stats(); stats != want {
		t.Errorf("stats = %+v, want %+v", stats, want)
	}

	shards, err := c.AdminShardInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 {
		t.Fatalf("shards = %+v", shards)
	}
	pendTotal := 0
	for _, si := range shards {
		pendTotal += si.Pending
	}
	if pendTotal != 1 {
		t.Errorf("shard pending total = %d", pendTotal)
	}

	pend, err := c.AdminPendingList(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(pend) != 1 || pend[0].Owner != "kramer" || pend[0].Waiting <= 0 {
		t.Errorf("pending = %+v", pend)
	}
	if !strings.Contains(pend[0].Source, "INTO ANSWER") {
		t.Errorf("source not carried: %q", pend[0].Source)
	}

	st, durable, err := c.AdminWALStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !durable || st.Commits.Records == 0 {
		t.Errorf("walstats = %+v durable=%v", st, durable)
	}
	// Client-side rendering reproduces the server's own text form.
	text, err := c.AdminWAL()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sys.WALStatsSnapshot()
	if !strings.HasPrefix(text, "wal: records=") || !strings.Contains(text, "segment") {
		t.Errorf("rendered wal = %q", text)
	}
	if text != want.String() {
		t.Errorf("client rendering diverged:\n%q\n%q", text, want.String())
	}
	shardText, err := c.AdminShards()
	if err != nil {
		t.Fatal(err)
	}
	if shardText != renderShards(sys.Coordinator().Shards()) {
		t.Errorf("shard rendering diverged: %q", shardText)
	}

	txnStats, err := c.AdminTxnStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := sys.TxnStats(); txnStats != want {
		t.Errorf("txn stats = %+v, want %+v", txnStats, want)
	}
	if txnStats.Committed == 0 {
		t.Errorf("txn stats show no commits after seeding: %+v", txnStats)
	}
	txnText, err := c.AdminTxn()
	if err != nil {
		t.Fatal(err)
	}
	if txnText != renderTxn(sys.TxnStats()) {
		t.Errorf("txn rendering diverged: %q", txnText)
	}
}

// TestAbandonedSubmitReaped: a SubmitContext abandoned by context
// cancellation (no deadline, so no server-side TTL) must not leak — the
// reaper learns the query id from the late ack, withdraws the query, and
// its final event is dropped instead of parking in the early map forever.
func TestAbandonedSubmitReaped(t *testing.T) {
	srv, addr := startServer(t)
	locker := dial(t, addr)
	c := dial(t, addr)

	mustQ := func(src string) {
		t.Helper()
		if _, err := locker.Query(src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	// Stall c's dispatch queue behind a table lock so the submit's ack is
	// deterministically delayed past the context cancellation. Snapshot reads
	// never block, so the staller is a (no-match) write contending on the
	// exclusive lock.
	mustQ("BEGIN")
	mustQ("INSERT INTO Flights VALUES (910, 'X', 'Bonn', 1, 9.0, 'Z')")
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		c.Query("DELETE FROM Flights WHERE fno = -1") //nolint:errcheck
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.MaxInFlight() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocker not in flight")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.SubmitContext(ctx,
			travel.BuildFlightQuery("K", []string{"Ghost"}, travel.FlightFilter{Dest: "Paris"}), "k")
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the submit frame reach the pipe
	cancel()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	mustQ("ROLLBACK")
	<-blocked
	// The reaper must withdraw the abandoned query and swallow its event.
	wait := time.Now().Add(5 * time.Second)
	for srv.sys.Coordinator().PendingCount() != 0 {
		if time.Now().After(wait) {
			t.Fatalf("abandoned submit leaked: %d pending", srv.sys.Coordinator().PendingCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for {
		c.mu.Lock()
		early, orphans := len(c.early), len(c.orphans)
		c.mu.Unlock()
		if early == 0 && orphans == 0 {
			break
		}
		if time.Now().After(wait) {
			t.Fatalf("event bookkeeping leaked: early=%d orphans=%d", early, orphans)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientWriteErrorPoisons: after a frame-write failure the connection is
// unusable (ErrClosed), never silently re-framed mid-stream.
func TestClientWriteErrorPoisons(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	c.conn.Close() // force the next write to fail
	if _, err := c.Query("SELECT fno FROM Flights"); err == nil {
		t.Fatal("write on closed conn succeeded")
	}
	if _, err := c.Query("SELECT fno FROM Flights"); err != ErrClosed {
		t.Fatalf("second call err = %v, want ErrClosed", err)
	}
}
