package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eq"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/txn"
)

// span is one timed call into a layer. Spans of one op share its index; a
// rung's parent is the op's root span. A span's self time is its duration
// minus its children's.
type span struct {
	Op     int    `json:"op"`
	Span   int    `json:"span"`
	Parent int    `json:"parent"` // -1 for an op's root span
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Switched off it costs a
// branch per call, which is how the tracing overhead is measured.
type tracer struct {
	on    bool
	epoch time.Time
	op    int
	spans []span
}

func (t *tracer) begin(parent int, layer, name string) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Op: t.op, Span: len(t.spans), Parent: parent, Layer: layer, Name: name,
		Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.epoch))
	}
}

// counters are the program's own counts, read at the boundaries of the
// replay's measured part so that ratios come from where the work happens.
type counters struct {
	coord coord.StatsSnapshot
	txn   txn.Stats
	pool  storage.PoolStats
	wal   core.WALStats
	bytes int64
}

func readCounters(sys *core.System) counters {
	c := counters{coord: sys.Coordinator().Stats(), txn: sys.TxnStats()}
	c.pool, _ = sys.PoolStats()
	c.wal, _ = sys.WALStatsSnapshot()
	for _, seg := range c.wal.Segments {
		c.bytes += seg.Bytes
	}
	return c
}

// A replay runs its cycles in four modes, taking turns cycle by cycle on
// one System, so that all four see the same state growth and the same drift
// in the machine's speed and their differences are the modes' own.
const (
	modeTraced = iota // rung by rung through the layers' public functions, spans on
	modePlain         // rung by rung, spans off: the difference is what tracing costs
	modeWhole         // through the call core offers for the whole op: what the rungs must add up to
	modeWire          // through server.Client against server.Listen on loopback: what the wire adds
	numModes
)

// replay runs a workload's script inside the benchmark against a System
// configured like the server's, one op at a time on one goroutine, the two
// workers taking turns.
type replay struct {
	wl   *workload
	gen  *scriptGen
	sys  *core.System
	dir  string
	mode int
	tr   tracer

	srv  *server.Server // serves sys to wire
	wire *session

	pair  *eq.Template                 // rungs: the pair template
	plans [numStmts]*engine.Prepared   // rungs: plain prepared statements
	stmts [numStmts]*core.PreparedStmt // whole op: core's handles

	log       workerLog
	lat       [numModes][numOpKinds][]float64 // microseconds
	park      []float64                       // whole mode: first member's submit, microseconds
	userBytes int64                           // payload bytes of the tuples written
	pool      [numOpKinds]struct{ hits, misses uint64 }
	before    counters
	after     counters
}

func (r *rig) newReplay(wl *workload, seed int64) (*replay, error) {
	rp := &replay{wl: wl, gen: newScriptGen(wl, seed), mode: modeWhole,
		dir: filepath.Join(r.scratch, wl.name+"-replay")}
	if err := os.MkdirAll(rp.dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if rp.sys, err = newSystem(wl, rp.dir); err != nil {
		os.RemoveAll(rp.dir) //nolint:errcheck // scratch
		return nil, err
	}
	if err := rp.prepare(); err != nil {
		rp.close()
		return nil, err
	}
	if rp.srv, err = server.Listen(rp.sys, "127.0.0.1:0"); err != nil {
		rp.close()
		return nil, err
	}
	rp.wire = newSession(r, wl, rp.gen)
	if err = rp.wire.dial(rp.srv.Addr().String()); err == nil {
		err = rp.wire.prepare()
	}
	if err != nil {
		rp.close()
		return nil, err
	}
	return rp, nil
}

func (rp *replay) close() {
	if rp.wire != nil {
		rp.wire.close()
	}
	if rp.srv != nil {
		rp.srv.Close()
	}
	rp.sys.Close()       //nolint:errcheck // scratch state
	os.RemoveAll(rp.dir) //nolint:errcheck // scratch
}

// prepare loads data, compiles the statements, parks the loners and primes
// the prices, as a session's set-up does over the wire.
func (rp *replay) prepare() error {
	if rp.wl.history {
		if err := loadHistory(rp.sys.Exec); err != nil {
			return err
		}
	}
	for _, st := range rp.wl.stmts {
		ps, err := rp.sys.Prepare(stmtText[st])
		if err != nil {
			return err
		}
		rp.stmts[st] = ps
		stmt, err := sql.Parse(stmtText[st])
		if err != nil {
			return err
		}
		if es, ok := stmt.(*sql.EntangledSelect); ok {
			rp.pair, err = eq.CompileTemplate(es, stmtText[st])
		} else {
			rp.plans[st], err = rp.sys.Engine().Prepare(stmt)
		}
		if err != nil {
			return err
		}
	}
	for i := 0; i < rp.wl.loners; i++ {
		params := rp.gen.lonerParams(i)
		if _, err := rp.stmts[stPair].SubmitBound(params, params[0].Str()); err != nil {
			return err
		}
	}
	for w := 0; w < numWorkers; w++ {
		for _, o := range rp.gen.primeOps(w) {
			rp.exec(w, &o)
		}
	}
	return nil
}

// run replays cycles [0, numModes*perMode) of both workers, the modes taking
// turns; the first tenth is warm-up and stays out of every number.
func (rp *replay) run(perMode int) {
	cycles := numModes * perMode
	warm := cycles / 10
	var ops []op
	for c := 0; c < cycles; c++ {
		if c == warm {
			rp.log = workerLog{acked: rp.log.acked, failed: rp.log.failed, failures: rp.log.failures}
			for _, l := range rp.wire.logs {
				*l = workerLog{acked: l.acked, failed: l.failed, failures: l.failures}
			}
			rp.lat, rp.park, rp.userBytes = [numModes][numOpKinds][]float64{}, nil, 0
			rp.pool = [numOpKinds]struct{ hits, misses uint64 }{}
			rp.tr = tracer{epoch: time.Now()}
			rp.before = readCounters(rp.sys)
		}
		rp.mode = c % numModes
		rp.tr.on = rp.mode == modeTraced
		for w := 0; w < numWorkers; w++ {
			ops = rp.wl.cycle(rp.gen, w, c, ops[:0])
			for i := range ops {
				rp.exec(w, &ops[i])
			}
		}
	}
	rp.after = readCounters(rp.sys)
}

func (rp *replay) exec(w int, o *op) {
	rp.userBytes += userBytes(o)
	if rp.mode == modeWire {
		rp.wire.exec(w, o) // logs and checks like a run against the server process
		return
	}
	l := &rp.log
	l.attempted++
	var pool0 storage.PoolStats
	if rp.wl.poolPages > 0 {
		pool0, _ = rp.sys.PoolStats()
	}
	t0 := time.Now()
	var err error
	if rp.mode == modeWhole {
		err = rp.execWhole(o)
	} else {
		err = rp.execLadder(o)
	}
	took := time.Since(t0)
	if rp.tr.on {
		rp.tr.op++
	}
	if err != nil {
		l.fail("%s: %v", describe(o), err)
		return
	}
	rp.lat[rp.mode][o.kind] = append(rp.lat[rp.mode][o.kind], float64(took)/float64(time.Microsecond))
	if rp.wl.poolPages > 0 {
		ps, _ := rp.sys.PoolStats()
		rp.pool[o.kind].hits += ps.Hits - pool0.Hits
		rp.pool[o.kind].misses += ps.Misses - pool0.Misses
	}
}

// userBytes is the payload an op asks the log to keep: its answer tuples, or
// the row it rewrites.
func userBytes(o *op) int64 {
	switch {
	case o.kind == opCoord && o.trip:
		return 2 * int64(len(o.members)) * int64(len(o.members[0].name)+8)
	case o.kind == opCoord:
		return int64(len(o.members)) * int64(len(o.members[0].name)+8)
	case o.stmt == stHistoryWrite:
		return 8 + historyBody
	case o.kind == opWrite:
		return 8 + 8
	}
	return 0
}

// commit is the statement-level durability point core reaches after every
// statement: the group commit covering what the statement logged.
func (rp *replay) commit(root int) error {
	id := rp.tr.begin(root, "wal", "commit")
	err := rp.sys.WAL().Commit()
	rp.tr.end(id)
	return err
}

func (rp *replay) execLadder(o *op) error {
	tr := &rp.tr
	root := tr.begin(-1, "core", opKindNames[o.kind])
	defer tr.end(root)
	switch o.kind {
	case opCoord:
		handles := make([]*coord.Handle, len(o.members))
		for j, m := range o.members {
			var q *eq.Query
			var err error
			if o.stmt >= 0 {
				id := tr.begin(root, "eq", "bind")
				q, err = rp.pair.Bind(m.params)
				tr.end(id)
			} else {
				id := tr.begin(root, "sql", "parse_group")
				stmt, perr := sql.Parse(m.sql)
				tr.end(id)
				if perr != nil {
					return perr
				}
				id = tr.begin(root, "eq", "compile")
				var tmpl *eq.Template
				if tmpl, err = eq.CompileTemplate(stmt.(*sql.EntangledSelect), m.sql); err == nil {
					q, err = tmpl.Bind(nil)
				}
				tr.end(id)
			}
			if err != nil {
				return err
			}
			name := "park"
			if j == len(o.members)-1 {
				name = "match"
			}
			id := tr.begin(root, "coord", name)
			handles[j], err = rp.sys.Coordinator().Submit(q, m.name)
			tr.end(id)
			if err != nil {
				return err
			}
			if err := rp.commit(root); err != nil {
				return err
			}
		}
		return rp.settle(o, handles)
	case opScan:
		id := tr.begin(root, "sql", "parse_scan")
		stmt, err := sql.Parse(o.sql)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin(root, "engine", "prepare")
		plan, err := rp.sys.Engine().Prepare(stmt)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin(root, "engine", "scan")
		res, err := plan.Execute(nil)
		tr.end(id)
		if err != nil {
			return err
		}
		if err := rp.commit(root); err != nil {
			return err
		}
		return checkPlain(rp.wl, o, clientResult(res))
	default:
		id := tr.begin(root, "engine", opKindNames[o.kind])
		res, err := rp.plans[o.stmt].Execute(o.params)
		tr.end(id)
		if err != nil {
			return err
		}
		if o.kind == opWrite && rp.sys.Coordinator().PendingCount() > 0 {
			// core retries parked queries after every write that could
			// have changed what they can match.
			id := tr.begin(root, "coord", "retry")
			rp.sys.Retry()
			tr.end(id)
		}
		if err := rp.commit(root); err != nil {
			return err
		}
		return checkPlain(rp.wl, o, clientResult(res))
	}
}

func (rp *replay) execWhole(o *op) error {
	switch o.kind {
	case opCoord:
		handles := make([]*coord.Handle, len(o.members))
		for j, m := range o.members {
			t0 := time.Now()
			var err error
			if o.stmt >= 0 {
				handles[j], err = rp.stmts[o.stmt].SubmitBound(m.params, m.name)
			} else {
				handles[j], err = rp.sys.Submit(m.sql, m.name)
			}
			if err != nil {
				return err
			}
			if j == 0 {
				rp.park = append(rp.park, float64(time.Since(t0))/float64(time.Microsecond))
			}
		}
		return rp.settle(o, handles)
	case opScan:
		res, err := rp.sys.Query(o.sql)
		if err != nil {
			return err
		}
		return checkPlain(rp.wl, o, clientResult(res))
	default:
		resp, err := rp.stmts[o.stmt].ExecuteBound(o.params, "")
		if err != nil {
			return err
		}
		return checkPlain(rp.wl, o, clientResult(resp.Result))
	}
}

// settle collects the outcome every member's handle must hold by now and
// checks it as a session checks answer events.
func (rp *replay) settle(o *op, handles []*coord.Handle) error {
	evs := make([]server.Event, len(handles))
	for j, h := range handles {
		out, ok := h.TryOutcome()
		if !ok {
			return fmt.Errorf("member %s has no outcome after the last member arrived", o.members[j].name)
		}
		evs[j] = server.Event{Query: out.QueryID, Canceled: out.Canceled, MatchSize: out.MatchSize}
		for _, a := range out.Answers {
			evs[j].Answers = append(evs[j].Answers, server.ClientAnswer{Relation: a.Relation, Tuples: a.Tuples})
		}
	}
	a, err := checkCoord(o, evs)
	if err == nil {
		rp.log.acked = append(rp.log.acked, a)
	}
	return err
}

func clientResult(res *engine.Result) *server.QueryResult {
	return &server.QueryResult{Cols: res.Cols, Rows: res.Rows, Affected: res.Affected}
}

// spanStats groups a traced replay's spans: durations in microseconds per
// "layer.name", summed self time per layer, and the summed root spans.
type spanStats struct {
	byName map[string][]float64
	self   map[string]float64
	total  float64
}

func (t *tracer) stats() spanStats {
	st := spanStats{byName: map[string][]float64{}, self: map[string]float64{}}
	for _, s := range t.spans {
		us := float64(s.End-s.Start) / 1000
		if s.Parent < 0 {
			st.total += us
			st.self["core"] += us
			continue
		}
		st.byName[s.Layer+"."+s.Name] = append(st.byName[s.Layer+"."+s.Name], us)
		st.self[s.Layer] += us
		st.self["core"] -= us // a root's self time is what its rungs leave
	}
	return st
}

func (st spanStats) median(name string) float64 { return median(st.byName[name]) }

// replayCycles is the length of the traced replay per mode: a sixth of the
// run, so that the replays and the fixtures fit the time one end-to-end run
// takes.
func replayCycles(cycles int) int {
	n := cycles / 6
	if n < 10 {
		n = 10
	}
	return n
}

// meanOp is the mean op duration of one in-process replay mode, in
// microseconds. Every cycle has the same op mix, so the modes' means compare.
func (rp *replay) meanOp(mode int) float64 {
	n := 0
	for _, l := range rp.lat[mode] {
		n += len(l)
	}
	return sum(rp.lat[mode][:]) / float64(n)
}

// runTraced is the traced run of one workload. It replays the first cycles
// of the workload's script in-process, the four replay modes taking turns;
// measures each layer alone on fixed fixtures; and writes the spans to
// bench/out/trace-<workload>.json.
func (r *rig) runTraced(wl *workload, seed int64, seconds float64) (*outcome, error) {
	cycles := replayCycles(wl.cycles(seconds))
	out := &outcome{metrics: metricSet{}}
	set := out.metrics
	put := func(name string, v float64, n int) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a ratio over a count the workload never bumps
		}
		set[name] = sample{v, n}
	}
	tally := func(l *workerLog) {
		out.attempted += l.attempted
		out.failed += l.failed
		out.failures = append(out.failures, l.failures...)
	}

	rp, err := r.newReplay(wl, seed)
	if err != nil {
		return nil, err
	}
	rp.run(cycles)
	tally(&rp.log)
	wireLog := mergeLogs(rp.wire.logs[:])
	tally(wireLog)
	st := rp.tr.stats()
	hit := timeEach(2000, func(int) { rp.sys.Prepare(stmtText[wl.stmts[0]]) }) //nolint:errcheck // cache hit
	recoverRate, rerr := rp.recoverRate()
	rp.close()
	if rerr != nil {
		return nil, rerr
	}
	if err := writeTrace(r.root, wl, seed, rp.tr.spans); err != nil {
		return nil, err
	}

	whole := &rp.lat[modeWhole]
	// The counters saw every mode's ops, the wire's included; the pool's
	// per-kind counts and the kinds' tallies below cover the in-process modes.
	nops := wireLog.attempted - wireLog.failed
	var nkind [numOpKinds]int
	for m := range rp.lat {
		for k, l := range rp.lat[m] {
			nops += len(l)
			nkind[k] += len(l)
		}
	}
	ops := float64(nops)
	us := func(ms []float64) float64 { return median(ms) * 1000 }
	wireMean := sum(wireLog.lat[:]) * 1000 / float64(wireLog.attempted-wireLog.failed)

	put("server.query_rtt_us", us(wireLog.lat[opRead])-median(whole[opRead]), len(wireLog.lat[opRead]))
	put("server.submit_rtt_us", us(wireLog.park)-median(rp.park), len(wireLog.park))
	put("server.event_delivery_us", us(wireLog.deliver), len(wireLog.deliver))
	put("server.self_frac", (wireMean-rp.meanOp(modeWhole))/wireMean, wireLog.attempted)

	put("sql.parse_pair_us", median(timeEach(300, func(int) { sql.Parse(stmtText[stPair]) })), 300) //nolint:errcheck // known good text
	put("sql.parse_group_us", st.median("sql.parse_group"), len(st.byName["sql.parse_group"]))
	put("sql.parse_scan_us", st.median("sql.parse_scan"), len(st.byName["sql.parse_scan"]))
	put("eq.compile_group_us", st.median("eq.compile"), len(st.byName["eq.compile"]))
	put("eq.bind_pair_us", st.median("eq.bind"), len(st.byName["eq.bind"]))

	pairUs, groupUs := median(whole[opCoord]), 0.0
	if wl.groupSize > 2 {
		pairUs, groupUs = 0, pairUs
	}
	tracedOps := float64(rp.tr.op)
	rungs := (st.total - st.self["core"]) / tracedOps
	put("core.prepare_hit_us", median(hit), len(hit))
	put("core.pair_inproc_us", pairUs, len(whole[opCoord]))
	put("core.group_inproc_us", groupUs, len(whole[opCoord]))
	put("core.ladder_residual_frac", math.Abs(rungs-rp.meanOp(modeWhole))/rp.meanOp(modeWhole), rp.tr.op)
	put("core.trace_overhead_frac", (rp.meanOp(modeTraced)-rp.meanOp(modePlain))/rp.meanOp(modePlain), rp.tr.op)
	for _, layer := range []string{"sql", "eq", "coord", "engine", "wal", "core"} {
		put(layer+".self_frac", st.self[layer]/st.total, rp.tr.op)
	}

	d, b := rp.after, rp.before
	matches := float64(d.coord.Matches - b.coord.Matches)
	put("coord.nodes_per_match", float64(d.coord.NodesExplored-b.coord.NodesExplored)/matches, int(matches))
	put("coord.retries_per_match", float64(d.coord.Retries-b.coord.Retries)/matches, int(matches))
	put("coord.escalations_per_match", float64(d.coord.Escalations-b.coord.Escalations)/matches, int(matches))
	ground := float64(d.coord.GroundingAttempts - b.coord.GroundingAttempts)
	put("coord.grounding_attempts_per_match", ground/matches, int(matches))
	put("coord.grounding_fail_frac", float64(d.coord.GroundingFailures-b.coord.GroundingFailures)/ground, int(ground))

	put("txn.write_conflicts_per_op", float64(d.txn.WriteConflicts-b.txn.WriteConflicts)/ops, nops)
	put("txn.aborted_per_op", float64(d.txn.Aborted-b.txn.Aborted)/ops, nops)
	put("txn.gc_reclaimed_per_op", float64(d.txn.GCReclaimed-b.txn.GCReclaimed)/ops, nops)

	// The pool counters of the point reads alone: a write scans the table.
	reads, nreads, ncoord := rp.pool[opRead], nkind[opRead], nkind[opCoord]
	hitFrac := 1.0 // without a pool every read is served from memory
	if reads.hits+reads.misses > 0 {
		hitFrac = float64(reads.hits) / float64(reads.hits+reads.misses)
	}
	put("storage.pool_hit_frac", hitFrac, int(reads.hits+reads.misses))
	put("storage.misses_per_read", float64(reads.misses)/float64(nreads), nreads)
	put("storage.misses_per_coord", float64(rp.pool[opCoord].misses)/float64(ncoord), ncoord)
	put("storage.evictions_per_op", float64(d.pool.Evictions-b.pool.Evictions)/ops, nops)
	put("storage.writebacks_per_op", float64(d.pool.Writebacks-b.pool.Writebacks)/ops, nops)
	put("storage.load_waits_per_op", float64(d.pool.LoadWaits-b.pool.LoadWaits)/ops, nops)
	put("storage.heap_pages_end", float64(d.pool.HeapPages), 1)
	put("storage.dead_slots_end", float64(d.pool.DeadSlots), 1)

	syncs := float64(d.wal.Commits.Syncs - b.wal.Commits.Syncs)
	put("wal.records_per_fsync", float64(d.wal.Commits.Records-b.wal.Commits.Records)/syncs, int(syncs))
	put("wal.rotations", float64(d.wal.Commits.Rotations-b.wal.Commits.Rotations), 1)
	put("wal.compactions", float64(d.wal.Commits.Compacts-b.wal.Commits.Compacts), 1)
	put("wal.disk_bytes_per_user_byte", float64(d.bytes-b.bytes)/float64(rp.userBytes), nops)
	put("wal.recover_records_per_s", recoverRate, 1)

	fx, err := r.fixtures(seed)
	if err != nil {
		return nil, err
	}
	for name, s := range fx {
		put(name, s.value, s.n)
	}
	out.correct = out.failed == 0
	return out, nil
}

func sum(series [][]float64) float64 {
	t := 0.0
	for _, s := range series {
		for _, v := range s {
			t += v
		}
	}
	return t
}

func mergeLogs(logs []*workerLog) *workerLog {
	m := &workerLog{}
	for _, l := range logs {
		m.attempted += l.attempted
		m.failed += l.failed
		m.failures = append(m.failures, l.failures...)
		for k := range m.lat {
			m.lat[k] = append(m.lat[k], l.lat[k]...)
		}
		m.park = append(m.park, l.park...)
		m.deliver = append(m.deliver, l.deliver...)
	}
	return m
}

// timeEach times n calls of fn one by one, in microseconds.
func timeEach(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn(i)
		out[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	return out
}

// recoverRate closes the replay's System and reopens its WAL directory, and
// returns the records replayed per second.
func (rp *replay) recoverRate() (float64, error) {
	if err := rp.sys.Close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	sys := core.NewSystem(rp.wl.coreConfig(rp.dir))
	took := time.Since(t0).Seconds()
	rp.sys = sys // close() shuts this one down
	if err := sys.Err(); err != nil {
		return 0, err
	}
	return float64(sys.WAL().Recovered().Records) / took, nil
}

// writeTrace writes the spans of a traced replay, ops in order, rungs under
// their op's root span.
func writeTrace(root string, wl *workload, seed int64, spans []span) error {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Op < spans[j].Op })
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{wl.name, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+wl.name+".json"), b, 0o644)
}
