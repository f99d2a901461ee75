// Package core assembles the Youtopia system of the paper: the query
// compiler, the coordination component and the execution engine behind one
// public API (Figure 2). The middle tier of an application — like the travel
// site in internal/travel — talks to a core.System exactly the way the
// paper's middle tier talks to Youtopia: it submits ordinary SQL and
// entangled queries, and receives coordinated answers asynchronously.
package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/answers"
	"repro/internal/coord"
	"repro/internal/engine"
	"repro/internal/eq"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// Config tunes a System.
type Config struct {
	// Coord configures the coordination component (see coord.Options). The
	// zero value selects coord.DefaultOptions().
	Coord coord.Options
	// CoordShards is the number of relation-partitioned coordination lanes.
	// Zero selects GOMAXPROCS — one lane per schedulable core, so arrivals
	// on disjoint relation footprints coordinate in parallel. Set 1 (or
	// Coord.Shards) to force the paper's single serialized round. An
	// explicit Coord.Shards wins over this knob.
	CoordShards int
	// DisableAutoRetry turns off the automatic re-coordination pass after
	// DML statements. The paper's coordination component re-examines pending
	// queries when the world changes; auto-retry is that hook. Benchmarks
	// that want to isolate arrival-time matching disable it.
	DisableAutoRetry bool
	// WALPath, when set, makes base tables and answer relations durable: the
	// log rooted at this path is replayed on startup and every mutation is
	// appended to it. Pending (unanswered) entangled queries are deliberately
	// volatile — they belong to live sessions.
	//
	// The path names a directory of binary log segments (format v2:
	// length-prefixed, CRC32C-checksummed records; size-based rotation). A
	// legacy single-file JSON log found at this path is migrated in place on
	// open and absorbed by the next compaction.
	WALPath string
	// WALSync moves the durability point to a group-committed fsync:
	// mutations stream into the log buffer and each API-level statement
	// (Execute/Exec/Submit, Session COMMIT) returns only after its records
	// are on disk — one fsync is amortized across every record and every
	// concurrent lane that reached the log meanwhile. Without it, commit
	// batches are handed to the OS without fsync (the pre-v2 behavior:
	// process-crash safe, not power-failure safe).
	WALSync bool
	// WALSegmentBytes overrides the segment rotation threshold
	// (0 = wal.DefaultSegmentBytes).
	WALSegmentBytes int64
	// WALCompactAfter starts a background compaction of sealed segments
	// whenever at least this many have accumulated. 0 selects 8; negative
	// disables auto-compaction (Compact still works explicitly).
	WALCompactAfter int
	// WALFollower opens the log as a replication follower: recovery replays
	// through a transaction-demultiplexing applier (so later streamed records
	// never expose half a transaction to readers), no log hook is attached
	// (records arrive from the primary, already logged), auto-compaction is
	// off (the follower's segment chain must stay byte-identical to the
	// primary's), and every statement but a plain SELECT is rejected with a
	// NotPrimaryError until promotion.
	WALFollower bool
	// WALFS overrides the log's filesystem (fault injection, tests). Nil
	// selects the real filesystem.
	WALFS wal.FS
	// BufferPoolPages, when positive, enables the disk-backed paged store:
	// tables spill committed tuples to 8 KiB heap pages cached in a buffer
	// pool of this many frames, so datasets several times larger than RAM
	// stay queryable. Heap files live under WALPath/pages (or a private
	// temporary directory when the system is not durable); they are scratch —
	// the WAL remains the only recovery source, and startup rebuilds them by
	// replay. Zero keeps the pre-PR-8 all-in-memory layout.
	BufferPoolPages int
	// BufferPoolShards splits the buffer pool into independently latched
	// shards so concurrent fetches on different pages never contend on one
	// mutex. Zero auto-sizes to min(GOMAXPROCS, BufferPoolPages/8), at
	// least 1. Ignored when BufferPoolPages is zero.
	BufferPoolShards int
	// PinnedRelations names tables kept fully in memory despite
	// BufferPoolPages — the hot coordination relations of the workload.
	// Answer relations are always pinned; matching is case-insensitive.
	PinnedRelations []string
	// StmtCacheSize bounds the text→artifact LRU behind Prepare and plain
	// Execute: up to this many statement texts keep their parsed/compiled
	// artifacts alive, so identical text is parsed once. 0 selects 256;
	// negative disables the cache (every Execute parses, Prepare still
	// returns uncached handles).
	StmtCacheSize int
	// GCInterval is the cadence of the background MVCC garbage collector
	// that prunes tuple versions below the oldest-active-snapshot watermark.
	// 0 selects one second; negative disables background collection
	// (storage.Catalog.GC still works explicitly).
	GCInterval time.Duration
}

// gcInterval resolves the Config.GCInterval convention.
func gcInterval(d time.Duration) time.Duration {
	if d == 0 {
		return time.Second
	}
	return d
}

// System is one Youtopia database instance.
type System struct {
	cat       *storage.Catalog
	mgr       *txn.Manager
	eng       *engine.Engine
	store     *answers.Store
	coord     *coord.Coordinator
	autoRetry bool
	wal       *wal.Log
	walSync   bool
	stmts     *stmtCache
	stopGC    func() // halts the MVCC version-chain garbage collector
	repl      repl   // replication role/state (zero value: standalone primary)
	pagesDir  string // ephemeral pages directory to remove on Close ("" = none)
	err       error  // startup (recovery) error
}

// NewSystem creates a Youtopia instance. With Config.WALPath set, the
// existing log is recovered first; check Err before use.
func NewSystem(cfg Config) *System {
	cat := storage.NewCatalog()
	mgr := txn.NewManager(cat)
	eng := engine.New(mgr)
	store := answers.NewStore(cat)
	shards := cfg.Coord.Shards // an explicit coord-level setting wins
	if shards == 0 {
		shards = cfg.CoordShards
	}
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	// A config that only picks a lane count still gets the default matcher
	// knobs: compare against the zero Options with Shards masked out.
	allButShards := cfg.Coord
	allButShards.Shards = 0
	if allButShards == (coord.Options{}) {
		cfg.Coord = coord.DefaultOptions()
	}
	cfg.Coord.Shards = shards
	cacheSize := cfg.StmtCacheSize
	if cacheSize == 0 {
		cacheSize = 256
	}
	s := &System{
		cat:       cat,
		mgr:       mgr,
		eng:       eng,
		store:     store,
		coord:     coord.New(eng, store, cfg.Coord),
		autoRetry: !cfg.DisableAutoRetry,
		stmts:     newStmtCache(cacheSize),
	}
	// Background MVCC garbage collection: prune version chains no snapshot
	// can read, at a cadence comfortably above the per-search pin lifetime.
	if iv := gcInterval(cfg.GCInterval); iv > 0 {
		s.stopGC = mgr.StartGC(iv)
	}
	// Paged storage must be armed before WAL recovery so replay writes cold
	// relations through the buffer pool instead of materializing them.
	if cfg.BufferPoolPages > 0 {
		dir := ""
		if cfg.WALPath != "" {
			// Lives inside the WAL directory; segment discovery skips
			// subdirectories, so the chain scan never mistakes heap files
			// for segments.
			dir = filepath.Join(cfg.WALPath, "pages")
		} else {
			tmp, err := os.MkdirTemp("", "youtopia-pages-")
			if err != nil {
				s.err = fmt.Errorf("core: pages directory: %w", err)
				return s
			}
			dir = tmp
			s.pagesDir = tmp
		}
		err := cat.EnableSpillOpts(storage.SpillOptions{
			Dir:        dir,
			PoolPages:  cfg.BufferPoolPages,
			PoolShards: cfg.BufferPoolShards,
			Pinned:     cfg.PinnedRelations,
		})
		if err != nil {
			s.err = fmt.Errorf("core: enable buffer pool: %w", err)
			return s
		}
	}
	if cfg.WALPath != "" {
		opts := wal.Options{
			SegmentBytes: cfg.WALSegmentBytes,
			CompactAfter: cfg.WALCompactAfter,
			FS:           cfg.WALFS,
			// Bound checkpoint memory the same way the live catalog is
			// bounded: the compaction scratch replay spills through its own
			// pool of the same size.
			CompactPoolPages: cfg.BufferPoolPages,
		}
		if opts.CompactAfter == 0 {
			opts.CompactAfter = 8
		} else if opts.CompactAfter < 0 {
			opts.CompactAfter = 0
		}
		if cfg.WALSync {
			opts.Sync = wal.SyncAlways
		}
		if cfg.WALFollower {
			// The follower's chain must stay a byte-identical copy of the
			// primary's; compacting locally would diverge it (and could
			// materialize rows of transactions still awaiting their commit
			// record). Recovery and all streamed records replay through the
			// applier so concurrent readers only ever see committed states.
			opts.CompactAfter = 0
			s.repl.follower = true
			s.repl.applier = wal.NewApplier(cat)
			opts.Replay = s.repl.applier.Apply
		}
		l, err := wal.OpenLog(cfg.WALPath, cat, opts)
		if err != nil {
			s.err = fmt.Errorf("core: WAL recovery: %w", err)
			return s
		}
		store.AdoptFromCatalog()
		s.wal = l
		s.walSync = cfg.WALSync
		if cfg.WALFollower {
			// Recovery may end mid-transaction (the primary will re-ship the
			// rest); readers see only through the last replayed commit. No
			// log hook: shipped records are appended by the replication
			// layer, byte-for-byte.
			//
			// The read gate opens only if recovery actually replayed state: a
			// chain is always a consistent (if stale) prefix of the primary's
			// history, but a chain emptied by a crash mid-resync (IngestReset
			// ran, the replacement never landed) reopens like a brand-new
			// follower, and serving its empty catalog would present data loss
			// as truth. Such a node stays not-ready — and unpromotable —
			// until its next catch-up completes.
			s.repl.ready = s.repl.applier.Applied() > 0
			return s
		}
		if cfg.WALSync {
			// Mutations stream into the log buffer; the statement boundary
			// (commitWAL) is the durability wait.
			cat.SetLog(func(r storage.LogRecord) { l.AppendAsync(r) }) //nolint:errcheck // sticky error surfaced by commitWAL/Close
		} else {
			cat.SetLog(func(r storage.LogRecord) { l.Append(r) }) //nolint:errcheck // sticky error surfaced by Close
		}
	}
	return s
}

// commitWAL is the statement-level durability point: under Config.WALSync it
// parks on the group commit covering every record this statement streamed
// into the log. Without WALSync (or without a WAL) it is a no-op.
func (s *System) commitWAL() error {
	if s.wal == nil || !s.walSync {
		return nil
	}
	return s.wal.Commit()
}

// Err reports a startup (WAL recovery) failure; a System with a non-nil Err
// must not be used.
func (s *System) Err() error { return s.err }

// Compact seals the active log segment and rewrites every sealed segment as
// one snapshot, bounding log size. It is a no-op without a WAL. Unlike the
// pre-segmented log, no quiescence is needed: concurrent mutations land in
// the fresh active segment and survive compaction untouched.
func (s *System) Compact() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Compact()
}

// Checkpoint is the buffer-pool-aware durability point: every dirty page is
// written back to its heap file, then the log compacts into a snapshot
// segment. Recovery afterwards is the newest snapshot plus the WAL tail —
// and because heap files are rebuilt by that replay, a checkpoint bounds
// recovery work without adding a second recovery source. Compaction's
// replication retention pins are honored unchanged (Compact defers to them).
// Without a WAL this degenerates to the page flush alone.
func (s *System) Checkpoint() error {
	if err := s.cat.FlushPool(); err != nil {
		return err
	}
	return s.Compact()
}

// PoolStats reports the buffer pool and heap footprint, or false when the
// system runs without paged storage (Config.BufferPoolPages == 0).
func (s *System) PoolStats() (storage.PoolStats, bool) { return s.cat.PoolStats() }

// WAL exposes the write-ahead log for stats/introspection (nil when the
// system is not durable).
func (s *System) WAL() *wal.Log { return s.wal }

// Close stops the MVCC garbage collector and detaches and closes the
// write-ahead log (no-op without one). The returned error includes any write
// error encountered during the lifetime of the log.
func (s *System) Close() error {
	if s.stopGC != nil {
		s.stopGC()
	}
	defer func() {
		// Heap files are scratch: close descriptors and, when the system
		// owned a private temporary pages directory, remove it.
		s.cat.CloseSpill()
		if s.pagesDir != "" {
			os.RemoveAll(s.pagesDir) //nolint:errcheck // best effort
		}
	}()
	if s.wal == nil {
		return nil
	}
	s.cat.SetLog(nil)
	return s.wal.Close()
}

// WALStats summarizes the durability layer for the admin surface.
type WALStats struct {
	Commits  wal.CommitStats
	Segments []wal.SegmentInfo
	Recovery wal.RecoveryInfo
}

// String renders the snapshot as the admin surface shows it.
func (w WALStats) String() string {
	var b strings.Builder
	c := w.Commits
	fmt.Fprintf(&b, "wal: records=%d batches=%d fsyncs=%d rotations=%d compactions=%d",
		c.Records, c.Batches, c.Syncs, c.Rotations, c.Compacts)
	if c.Batches > 0 {
		fmt.Fprintf(&b, " (%.1f records/batch", float64(c.Records)/float64(c.Batches))
		if c.Syncs > 0 {
			fmt.Fprintf(&b, ", %.1f records/fsync", float64(c.Records)/float64(c.Syncs))
		}
		b.WriteString(")")
	}
	fmt.Fprintf(&b, "\nrecovery: segments=%d records=%d torn=%v migrated=%v\n",
		w.Recovery.Segments, w.Recovery.Records, w.Recovery.Torn, w.Recovery.Migrated)
	for _, s := range w.Segments {
		state := "active"
		switch {
		case s.Snapshot:
			state = "snapshot"
		case s.Sealed:
			state = "sealed"
		}
		kind := "v2"
		if s.JSON {
			kind = "json"
		}
		fmt.Fprintf(&b, "  segment %08d  %-8s %-4s %d bytes\n", s.Seq, state, kind, s.Bytes)
	}
	return b.String()
}

// WALStatsSnapshot returns the current WAL counters and segment layout, or
// false when the system is not durable.
func (s *System) WALStatsSnapshot() (WALStats, bool) {
	if s.wal == nil {
		return WALStats{}, false
	}
	return WALStats{
		Commits:  s.wal.Stats(),
		Segments: s.wal.Segments(),
		Recovery: s.wal.Recovered(),
	}, true
}

// Response is the outcome of Execute: exactly one of Result (plain
// statements) or Handle (entangled queries) is set.
type Response struct {
	// Result holds rows/affected counts for plain SQL.
	Result *engine.Result
	// Handle is the waitable handle of a submitted entangled query.
	Handle *coord.Handle
	// Entangled reports which arm is set.
	Entangled bool
}

// Execute parses and runs one statement, routing entangled queries to the
// coordination component and everything else to the execution engine.
// The optional owner labels entangled submissions in the admin interface.
//
// Execution is fronted by the statement cache: re-executing identical text
// reuses its parsed/compiled artifact (parse-once even without an explicit
// Prepare). Statements with parameter placeholders cannot run here — they
// need a bound vector, via Prepare.
func (s *System) Execute(src, owner string) (*Response, error) {
	ps, err := s.prepareCached(src)
	if err != nil {
		return nil, err
	}
	return ps.ExecuteBound(nil, owner)
}

// ExecuteContext is Execute with cancellation plumbing. The context is
// checked before any work starts, and an entangled submission stays bound to
// it afterwards: when ctx is canceled or its deadline passes while the query
// is still pending, the query is withdrawn from the coordinator (its handle
// fires with Canceled). Plain statements are not interruptible mid-execution;
// for them the context is a pre-flight gate only.
func (s *System) ExecuteContext(ctx context.Context, src, owner string) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := s.Execute(src, owner)
	if err != nil {
		return nil, err
	}
	s.bindContext(ctx, resp)
	return resp, nil
}

// SubmitContext is Submit bound to a context: cancellation or deadline
// expiry withdraws the pending query (the paper's TTL/cancel path).
func (s *System) SubmitContext(ctx context.Context, src, owner string) (*coord.Handle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h, err := s.Submit(src, owner)
	if err != nil {
		return nil, err
	}
	s.bindHandle(ctx, h)
	return h, nil
}

// bindContext attaches an entangled response's handle to ctx.
func (s *System) bindContext(ctx context.Context, resp *Response) {
	if resp != nil && resp.Entangled && resp.Handle != nil {
		s.bindHandle(ctx, resp.Handle)
	}
}

// bindHandle arranges for ctx's cancellation to withdraw the query, and for
// the query's own completion to release the watch (so long-lived contexts —
// e.g. one per server connection — do not accumulate dead watchers).
func (s *System) bindHandle(ctx context.Context, h *coord.Handle) {
	if ctx.Done() == nil {
		return // context.Background(): nothing to watch
	}
	id := h.ID
	stop := context.AfterFunc(ctx, func() { s.coord.Cancel(id) })
	h.Notify(func(coord.Outcome) { stop() })
}

func (s *System) submitEntangled(es *sql.EntangledSelect, src, owner string) (*Response, error) {
	q, err := eq.CompileParsed(es, src)
	if err != nil {
		return nil, err
	}
	h, err := s.coord.Submit(q, owner)
	if err != nil {
		return nil, err
	}
	// The arrival-time round may have installed answers; an acknowledged
	// arrival is durable.
	if err := s.commitWAL(); err != nil {
		return nil, err
	}
	return &Response{Handle: h, Entangled: true}, nil
}

// ExecuteStmt routes an already-parsed statement.
func (s *System) ExecuteStmt(stmt sql.Statement, owner string) (*Response, error) {
	if err := s.gate(stmt); err != nil {
		return nil, err
	}
	if _, ok := stmt.(*sql.TxnStmt); ok {
		return nil, fmt.Errorf("core: BEGIN/COMMIT/ROLLBACK require a Session (interactive transactions are per-connection)")
	}
	if es, ok := stmt.(*sql.EntangledSelect); ok {
		return s.submitEntangled(es, "", owner)
	}
	res, err := s.eng.Execute(stmt)
	if err != nil {
		return nil, err
	}
	if err := s.afterPlain(stmt); err != nil {
		return nil, err
	}
	return &Response{Result: res}, nil
}

// afterPlain is the post-execution tail of every successful plain statement:
// the auto-retry pass (base-table changes can unblock parked queries —
// "waits for an opportunity to retry", §2.1) and the statement-level
// durability point (which covers retry-installed answers too).
func (s *System) afterPlain(stmt sql.Statement) error {
	if s.autoRetry && isDML(stmt) && s.coord.PendingCount() > 0 {
		s.coord.Retry()
	}
	return s.commitWAL()
}

func isDML(stmt sql.Statement) bool {
	switch stmt.(type) {
	case *sql.Insert, *sql.Update, *sql.Delete:
		return true
	default:
		return false
	}
}

// Explain builds the typed plan description for one statement without
// executing it. A leading EXPLAIN keyword in src is accepted and stripped, so
// both `EXPLAIN SELECT ...` and the bare statement explain identically.
// Optional params refine the estimates the way bind-time values would.
// Entangled queries describe their generators' access paths — each generator
// subquery is costed by the same planner that grounds it.
func (s *System) Explain(src string, params value.Tuple) (*plan.Desc, error) {
	ps, err := s.prepareCached(src)
	if err != nil {
		return nil, err
	}
	stmt := ps.stmt
	if ex, ok := stmt.(*sql.Explain); ok {
		stmt = ex.Stmt
	}
	if es, ok := stmt.(*sql.EntangledSelect); ok {
		return s.explainEntangled(es, params)
	}
	return s.eng.ExplainStmt(stmt, params)
}

// explainEntangled describes an entangled query's grounding plan: one step
// per generator, costed through the execution engine's planner (generators
// ground through the same text path, so these are the access paths the
// coordinator will actually use at this catalog version).
func (s *System) explainEntangled(es *sql.EntangledSelect, params value.Tuple) (*plan.Desc, error) {
	q, err := eq.CompileParsed(es, es.String())
	if err != nil {
		return nil, err
	}
	d := &plan.Desc{SQL: es.String(), Kind: "entangled select"}
	for _, g := range q.Generators {
		if g.Sub == nil {
			d.Steps = append(d.Steps, plan.Step{
				Table: "(inline)", Path: "inline tuples",
				EstRows: float64(len(g.Tuples)), Rows: len(g.Tuples),
			})
			continue
		}
		gd, err := s.eng.ExplainStmt(g.Sub, params)
		if err != nil {
			return nil, err
		}
		d.Steps = append(d.Steps, gd.Steps...)
	}
	if len(d.Steps) == 0 {
		d.Note = "ground query — no generator table access; coordination only"
	}
	return d, nil
}

// Query runs plain SQL and returns rows; it errors on entangled statements.
func (s *System) Query(src string) (*engine.Result, error) {
	resp, err := s.Execute(src, "")
	if err != nil {
		return nil, err
	}
	if resp.Entangled {
		return nil, fmt.Errorf("core: Query cannot run entangled statements; use Submit")
	}
	return resp.Result, nil
}

// Exec runs a script of semicolon-separated plain statements, failing on the
// first error. Entangled statements are rejected (use Submit).
func (s *System) Exec(script string) error {
	stmts, err := sql.ParseAll(script)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		resp, err := s.ExecuteStmt(st, "")
		if err != nil {
			return fmt.Errorf("%s: %w", st, err)
		}
		if resp.Entangled {
			return fmt.Errorf("core: Exec cannot run entangled statements; use Submit")
		}
	}
	return nil
}

// Submit compiles and registers an entangled query, triggering a
// coordination round.
func (s *System) Submit(src, owner string) (*coord.Handle, error) {
	resp, err := s.Execute(src, owner)
	if err != nil {
		return nil, err
	}
	if !resp.Entangled {
		return nil, fmt.Errorf("core: Submit requires an entangled query (INTO ANSWER)")
	}
	return resp.Handle, nil
}

// Cancel withdraws a pending entangled query by id.
func (s *System) Cancel(id uint64) bool { return s.coord.Cancel(id) }

// Retry forces a re-coordination pass over all pending queries.
func (s *System) Retry() { s.coord.Retry() }

// Coordinator exposes the coordination component (admin interface).
func (s *System) Coordinator() *coord.Coordinator { return s.coord }

// Engine exposes the execution engine.
func (s *System) Engine() *engine.Engine { return s.eng }

// Answers exposes the shared answer-relation store.
func (s *System) Answers() *answers.Store { return s.store }

// Catalog exposes the table catalog.
func (s *System) Catalog() *storage.Catalog { return s.cat }

// TxnStats returns the transaction manager's cumulative counters —
// committed/aborted/timeouts plus the MVCC first-committer-wins conflict and
// GC-reclaimed-version totals (admin surface).
func (s *System) TxnStats() txn.Stats { return s.mgr.Stats() }
