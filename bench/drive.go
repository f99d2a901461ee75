package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/travel"
)

// opTimeout bounds the wait for one answer event. An op that exceeds it
// counts as failed.
const opTimeout = 30 * time.Second

// acked is one coordination every member of which got its answer event.
type acked struct {
	group    string // coordGroup of the members' names
	k        int
	fno, hno int64
}

// workerLog is what one worker saw: latencies per op kind, failures, and
// the coordinations it may hold the server to after a crash.
type workerLog struct {
	lat [numOpKinds][]float64 // milliseconds
	// park is the first member's submit call of every coordination (it
	// parks: no partner has arrived); deliver is how long after the last
	// member's acknowledgement the first member's event arrived on the
	// other connection. The traced run compares both with in-process calls.
	park, deliver []float64
	attempted     int
	failed        int
	failures      []string
	acked         []acked
}

func (l *workerLog) fail(format string, args ...any) {
	l.failed++
	if len(l.failures) < 5 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

// numConns gives every worker two connections of its own: its own, for the
// first member of a coordination and its plain statements, and one for its
// partners. The server executes one connection's requests one after another,
// so two workers sharing connections queue behind each other's commits and
// every latency turns bimodal (read_p50_ms spread 20-50 % over ten seeds
// against 5 % with connections of their own). At most numWorkers requests are
// ever in flight.
const numConns = 2 * numWorkers

// ownConn and partnerConn are worker w's two connections.
func ownConn(w int) int     { return 2 * w }
func partnerConn(w int) int { return 2*w + 1 }

// session is the connections that load one server, with what came back over
// them. The server is a youtopia-server process; the traced run opens a
// session on server.Listen inside the benchmark for its wire rungs.
type session struct {
	rig   *rig
	wl    *workload
	gen   *scriptGen
	dir   string      // the server process's directory
	proc  *serverProc // nil for a session on an in-process server
	conn  [numConns]*server.Client
	stmts [numConns][numStmts]*server.Stmt
	logs  [numWorkers]*workerLog
	timer [numWorkers]*time.Timer
}

func (s *session) close() {
	for _, c := range s.conn {
		if c != nil {
			c.Close()
		}
	}
	if s.proc != nil {
		s.proc.kill()
		os.RemoveAll(s.dir) //nolint:errcheck // scratch
	}
}

func newSession(r *rig, wl *workload, gen *scriptGen) *session {
	s := &session{rig: r, wl: wl, gen: gen}
	for w := range s.logs {
		s.logs[w] = &workerLog{}
		s.timer[w] = time.NewTimer(time.Hour)
	}
	return s
}

// dial opens the session's connections.
func (s *session) dial(addr string) error {
	for w := range s.conn {
		var err error
		if s.conn[w], err = server.Dial(addr); err != nil {
			return err
		}
	}
	return nil
}

// prepare prepares the workload's statements on every connection.
func (s *session) prepare() error {
	for w := range s.conn {
		for _, st := range s.wl.stmts {
			var err error
			if s.stmts[w][st], err = s.conn[w].Prepare(stmtText[st]); err != nil {
				return fmt.Errorf("prepare %q: %w", stmtText[st], err)
			}
		}
	}
	return nil
}

// newSystem is a System configured and seeded as youtopia-server does it.
func newSystem(wl *workload, dir string) (*core.System, error) {
	sys := core.NewSystem(wl.coreConfig(dir))
	if err := sys.Err(); err != nil {
		return nil, err
	}
	if err := travel.Seed(sys, travel.SeedConfig{Seed: 1}); err != nil {
		sys.Close() //nolint:errcheck // scratch state
		return nil, err
	}
	return sys, nil
}

// eachWorker runs fn once per worker, concurrently, and returns the first
// error.
func eachWorker(fn func(w int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, numWorkers)
	for w := 0; w < numWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// historyInserts calls fn with the INSERT statements that load rows
// [lo, hi) of sql_spill's cold table.
func historyInserts(lo, hi int, fn func(stmt string) error) error {
	const batch = 400
	var b strings.Builder
	for at := lo; at < hi; at += batch {
		b.Reset()
		b.WriteString("INSERT INTO History VALUES ")
		for id := at; id < at+batch && id < hi; id++ {
			if id > at {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, '%s')", id, historyBodyOf(int64(id), 0))
		}
		if err := fn(b.String()); err != nil {
			return err
		}
	}
	return nil
}

const (
	historyCreate = "CREATE TABLE History (id INT, body STRING, PRIMARY KEY (id))"
	historyIndex  = "CREATE ORDERED INDEX ON History (id)"
)

// loadHistory creates, fills and indexes sql_spill's cold table through
// exec, one statement at a time.
func loadHistory(exec func(stmt string) error) error {
	if err := exec(historyCreate); err != nil {
		return err
	}
	if err := historyInserts(0, historyRows, exec); err != nil {
		return err
	}
	return exec(historyIndex)
}

// setUp starts a fresh server on a fresh directory and brings it to the
// state the measured phase starts from: schema, data, prepared statements,
// pending loners, primed prices, the first warm cycles run as warm-up. It
// returns how long that took from the server's exec.
func (r *rig) setUp(wl *workload, seed int64, warm int, n int) (*session, float64, error) {
	s := newSession(r, wl, newScriptGen(wl, seed))
	s.dir = filepath.Join(r.scratch, fmt.Sprintf("%s-%d", wl.name, n))
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	var err error
	if s.proc, err = r.startServer(s.dir, true, wl.serverArgs()); err != nil {
		return nil, 0, err
	}
	if err := s.dial(s.proc.addr); err != nil {
		return nil, 0, err
	}
	if wl.history {
		if err := s.loadHistoryOverWire(); err != nil {
			return nil, 0, fmt.Errorf("load History: %w", err)
		}
	}
	if err := s.prepare(); err != nil {
		return nil, 0, err
	}
	for i := 0; i < wl.loners; i++ {
		params := s.gen.lonerParams(i)
		if _, _, err := s.stmts[i%numConns][stPair].SubmitContext(context.Background(), params[0].Str(), params); err != nil {
			return nil, 0, fmt.Errorf("loner %d: %w", i, err)
		}
	}
	for w := 0; w < numWorkers; w++ {
		for _, o := range s.gen.primeOps(w) {
			s.exec(w, &o)
		}
	}
	s.run(0, warm)
	for w, l := range s.logs {
		if l.failed > 0 {
			return nil, 0, fmt.Errorf("set-up of %s failed on worker %d: %s", wl.name, w, strings.Join(l.failures, "; "))
		}
		// Warm-up latencies are not reported.
		*l = workerLog{acked: l.acked}
	}
	ok = true
	return s, time.Since(start).Seconds(), nil
}

// loadHistoryOverWire creates sql_spill's cold table and fills it, each
// worker loading half the rows over its own connection.
func (s *session) loadHistoryOverWire() error {
	if _, err := s.conn[0].Query(historyCreate); err != nil {
		return err
	}
	err := eachWorker(func(w int) error {
		return historyInserts(historyRows*w/numWorkers, historyRows*(w+1)/numWorkers, func(stmt string) error {
			_, err := s.conn[ownConn(w)].Query(stmt)
			return err
		})
	})
	if err != nil {
		return err
	}
	_, err = s.conn[0].Query(historyIndex)
	return err
}

// run executes cycles [from, to) of both workers' scripts side by side,
// closed loop.
func (s *session) run(from, to int) {
	eachWorker(func(w int) error { //nolint:errcheck // workers record failures in their logs
		var ops []op
		for c := from; c < to; c++ {
			ops = s.wl.cycle(s.gen, w, c, ops[:0])
			for i := range ops {
				s.exec(w, &ops[i])
			}
		}
		return nil
	})
}

// exec runs one op, records its latency and checks its result.
func (s *session) exec(w int, o *op) {
	l := s.logs[w]
	l.attempted++
	ctx := context.Background()
	t0 := time.Now()
	switch o.kind {
	case opCoord:
		evs, parkMs, err := s.submit(w, o)
		if err != nil {
			l.fail("%s: submit: %v", describe(o), err)
			return
		}
		ackAt := time.Now()
		got, ok := s.await(w, evs)
		if !ok {
			l.fail("%s: no answer event within %s", describe(o), opTimeout)
			return
		}
		l.lat[opCoord] = append(l.lat[opCoord], msSince(t0))
		l.park = append(l.park, parkMs)
		l.deliver = append(l.deliver, msSince(ackAt))
		a, err := checkCoord(o, got)
		if err != nil {
			l.fail("%s: %v", describe(o), err)
			return
		}
		l.acked = append(l.acked, a)
	default:
		var res *server.QueryResult
		var err error
		if o.stmt < 0 {
			res, err = s.conn[ownConn(w)].QueryContext(ctx, o.sql)
		} else {
			res, err = s.stmts[ownConn(w)][o.stmt].QueryContext(ctx, o.params)
		}
		if err == nil {
			l.lat[o.kind] = append(l.lat[o.kind], msSince(t0))
			err = checkPlain(s.wl, o, res)
		}
		if err != nil {
			l.fail("%s: %v", describe(o), err)
		}
	}
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

// submit sends the members of a coordination alternately on the worker's own
// connection and on its partners' — partners are different users.
func (s *session) submit(w int, o *op) (evs []<-chan server.Event, parkMs float64, err error) {
	evs = make([]<-chan server.Event, len(o.members))
	ctx := context.Background()
	for j, m := range o.members {
		c := ownConn(w)
		if j%2 == 1 {
			c = partnerConn(w)
		}
		t0 := time.Now()
		if o.stmt >= 0 {
			_, evs[j], err = s.stmts[c][o.stmt].SubmitContext(ctx, m.name, m.params)
		} else {
			_, evs[j], err = s.conn[c].SubmitContext(ctx, m.sql, m.name)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("member %d: %w", j, err)
		}
		if j == 0 {
			parkMs = msSince(t0)
		}
	}
	return evs, parkMs, nil
}

// await collects one answer event per member.
func (s *session) await(w int, evs []<-chan server.Event) ([]server.Event, bool) {
	got := make([]server.Event, len(evs))
	t := s.timer[w]
	t.Reset(opTimeout)
	defer t.Stop()
	for j, ch := range evs {
		select {
		case got[j] = <-ch:
		case <-t.C:
			return nil, false
		}
	}
	return got, true
}

// walMark is the WAL state at one instant: counters, and the bytes the log
// directory holds.
type walMark struct {
	st    core.WALStats
	bytes int64
}

func (s *session) walMark() (walMark, error) {
	st, durable, err := s.conn[0].AdminWALStats(context.Background())
	if err != nil {
		return walMark{}, err
	}
	if !durable {
		return walMark{}, fmt.Errorf("server reports no WAL")
	}
	m := walMark{st: st}
	for _, seg := range st.Segments {
		m.bytes += seg.Bytes
	}
	return m, nil
}

// measured is what the measured phase of one run produced.
type measured struct {
	wall      float64 // seconds
	cpu       float64 // server CPU seconds
	rssMB     float64
	wal0, wal walMark
	logs      [numWorkers]*workerLog
}

// measure runs cycles [warm, warm+cycles) on both workers and brackets them
// with the server's counters.
func (s *session) measure(cycles int) (*measured, error) {
	warm := warmCycles(cycles)
	m := &measured{}
	var err error
	if m.wal0, err = s.walMark(); err != nil {
		return nil, err
	}
	cpu0, err := s.proc.cpuSeconds()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	s.run(warm, warm+cycles)
	m.wall = time.Since(start).Seconds()
	cpu1, err := s.proc.cpuSeconds()
	if err != nil {
		return nil, err
	}
	m.cpu = cpu1 - cpu0
	if m.wal, err = s.walMark(); err != nil {
		return nil, err
	}
	if m.rssMB, err = s.proc.peakRSSMB(); err != nil {
		return nil, err
	}
	m.logs = s.logs
	return m, nil
}

// crashTail keeps both workers submitting coordinations while the server is
// killed under them, so that recovery meets coordinations that were in
// flight. Coordinations acknowledged before the kill join the log; the one
// cut off may survive whole or not at all, never in part.
func (s *session) crashTail(from int) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < numWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := from; ; c++ {
				select {
				case <-stop:
					return
				default:
				}
				o := s.gen.coordOp(w, c, 0)
				evs, _, err := s.submit(w, &o)
				if err != nil {
					return
				}
				got, ok := s.await(w, evs)
				if !ok {
					return
				}
				a, err := checkCoord(&o, got)
				if err != nil {
					return // the kill cancels the events of the coordination it cut off
				}
				s.logs[w].acked = append(s.logs[w].acked, a)
			}
		}(w)
	}
	time.Sleep(30 * time.Millisecond)
	s.proc.kill()
	close(stop)
	// The kill closes every connection: a worker blocked on a submit gets an
	// error, one blocked on an event gets a canceled event from the client.
	for c := range s.conn {
		s.conn[c].Close()
		s.conn[c] = nil
	}
	wg.Wait()
	s.proc = nil
}

// A run restarts the killed server at least minRecoveries times and goes on,
// up to maxRecoveries, while the restarts so far took under two seconds:
// short recoveries need more samples for a steady median.
const (
	minRecoveries = 3
	maxRecoveries = 15
)

// recoverAndVerify restarts the killed server on its directory, without
// -seed, times exec → ready, and then checks durability on the recovered
// state. The restart is repeated with kill -9 in between.
func (s *session) recoverAndVerify() ([]float64, error) {
	var times []float64
	total := 0.0
	for i := 0; i < maxRecoveries && (i < minRecoveries || total < 2); i++ {
		if s.proc != nil {
			s.proc.kill()
		}
		t0 := time.Now()
		p, err := s.rig.startServer(s.dir, false, s.wl.serverArgs())
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		s.proc = p
		if err := awaitReady(p.addr, time.Minute); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		total += times[i]
	}
	c, err := server.Dial(s.proc.addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return times, s.verifyDurable(c)
}
