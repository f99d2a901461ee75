package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/value"
)

// Catalog is the namespace of tables in a Youtopia database instance. Table
// names are case-insensitive, as in the paper's SQL examples.
//
// The catalog also owns the MVCC machinery shared by its tables: the commit
// clock every write and snapshot draws timestamps from, the registry of
// active snapshots whose minimum is the garbage-collection watermark, and
// the catalog-wide conflict/GC counters.
type Catalog struct {
	log    logState
	mu     sync.RWMutex
	tables map[string]*Table
	// ddl counts schema changes (CREATE/DROP TABLE, CREATE INDEX). Cached
	// query plans and prepared-statement artifacts are stamped with the
	// version they were built against and rebuilt when it moves — the DDL
	// invalidation point of the plan cache.
	ddl atomic.Uint64

	// clock is the commit clock: monotonically increasing, bumped by every
	// auto-committed mutation and every Writer commit. A snapshot at ts sees
	// exactly the commits stamped ≤ ts.
	clock atomic.Uint64

	// snapMu guards the active-snapshot ring AND serializes Writer commit
	// publication against snapshot pinning: publishCommit advances the clock
	// and stores the writer's commit state under it, so a snapshot pinned at
	// ts can never observe a transaction publishing at ≤ ts "half-committed"
	// (clock bumped but state not yet visible) — the lost-update hole that
	// would defeat first-committer-wins.
	snapMu sync.Mutex
	snaps  SnapRef // sentinel of a doubly-linked ring of pinned snapshots

	conflicts   atomic.Uint64 // first-committer-wins aborts, cumulative
	gcReclaimed atomic.Uint64 // versions pruned by GC, cumulative

	// writerSeq hands out writer ids, the Txn tags that group one
	// transaction's log records (see LogRecord.Txn).
	writerSeq atomic.Uint64

	// spill, when non-nil, is the disk-backed paging machinery (heap.go):
	// buffer pool, pages directory and the pinned-relation policy. Set once
	// by EnableSpill before any table exists, read-only afterwards.
	spill *spillState
}

// BumpDDL advances the schema version; call after any DDL that can change
// plan validity (table existence, schemas, index presence).
func (c *Catalog) BumpDDL() { c.ddl.Add(1) }

// DDLVersion returns the current schema version.
func (c *Catalog) DDLVersion() uint64 { return c.ddl.Load() }

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	c := &Catalog{tables: make(map[string]*Table)}
	c.snaps.prev = &c.snaps
	c.snaps.next = &c.snaps
	return c
}

// Clock returns the current commit-clock value.
func (c *Catalog) Clock() uint64 { return c.clock.Load() }

// AdvanceClock moves the commit clock forward to at least ts; recovery calls
// it while replaying commit records so post-recovery timestamps stay ahead
// of every pre-crash commit.
func (c *Catalog) AdvanceClock(ts uint64) {
	for {
		cur := c.clock.Load()
		if cur >= ts || c.clock.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// PinSnapshot registers r as an active snapshot at the current clock value
// and returns the snapshot timestamp. The registration keeps the GC
// watermark at or below the timestamp until UnpinSnapshot; r is intrusive,
// so pinning allocates nothing when r is embedded in a longer-lived struct.
func (c *Catalog) PinSnapshot(r *SnapRef) uint64 {
	c.snapMu.Lock()
	r.ts = c.clock.Load()
	r.prev = c.snaps.prev
	r.next = &c.snaps
	r.prev.next = r
	c.snaps.prev = r
	c.snapMu.Unlock()
	return r.ts
}

// UnpinSnapshot releases a registration made by PinSnapshot. It is
// idempotent on an already-unpinned ref.
func (c *Catalog) UnpinSnapshot(r *SnapRef) {
	c.snapMu.Lock()
	if r.next != nil {
		r.prev.next = r.next
		r.next.prev = r.prev
		r.prev, r.next = nil, nil
	}
	c.snapMu.Unlock()
}

// publishCommit atomically assigns w a fresh commit timestamp and publishes
// it. Running under snapMu means no snapshot can be pinned between the clock
// bump and the state store — so any snapshot with ts ≥ the new timestamp is
// guaranteed to see the commit, and any with ts < it is guaranteed not to.
func (c *Catalog) publishCommit(w *Writer) uint64 {
	c.snapMu.Lock()
	ts := c.clock.Add(1)
	w.state.Store(ts)
	c.snapMu.Unlock()
	return ts
}

// Watermark returns the oldest timestamp any active snapshot can read —
// the version-chain GC horizon. With no snapshots pinned it is the current
// clock (everything superseded before now is reclaimable).
func (c *Catalog) Watermark() uint64 {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	wm := c.clock.Load()
	for r := c.snaps.next; r != &c.snaps; r = r.next {
		if r.ts < wm {
			wm = r.ts
		}
	}
	return wm
}

// ActiveSnapshots returns the number of currently pinned snapshots.
func (c *Catalog) ActiveSnapshots() int {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	n := 0
	for r := c.snaps.next; r != &c.snaps; r = r.next {
		n++
	}
	return n
}

// GC prunes version chains in every table against the current watermark and
// returns the number of versions reclaimed (also accumulated in
// GCReclaimed). The txn manager runs this from a background ticker. Each
// table's heap compactor runs right after its sweep, so the dead slots the
// prune just created immediately feed page reclamation (heap.go).
func (c *Catalog) GC() int {
	wm := c.Watermark()
	c.mu.RLock()
	tables := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		tables = append(tables, t)
	}
	c.mu.RUnlock()
	total := 0
	for _, t := range tables {
		total += t.gc(wm)
		t.compactHeap()
	}
	if total > 0 {
		c.gcReclaimed.Add(uint64(total))
	}
	return total
}

// Conflicts returns the cumulative count of first-committer-wins aborts.
func (c *Catalog) Conflicts() uint64 { return c.conflicts.Load() }

// GCReclaimed returns the cumulative count of versions pruned by GC.
func (c *Catalog) GCReclaimed() uint64 { return c.gcReclaimed.Load() }

// VersionStats sums version-chain statistics across all tables: the number
// of chains (rows ever written and not yet fully reclaimed) and stored
// versions. Surfaced by the admin state dump for MVCC debugging.
func (c *Catalog) VersionStats() (chains, versions int) {
	c.mu.RLock()
	tables := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		tables = append(tables, t)
	}
	c.mu.RUnlock()
	for _, t := range tables {
		ch, ver := t.VersionStats()
		chains += ch
		versions += ver
	}
	return
}

func canonical(name string) string { return strings.ToLower(name) }

// Create creates a table. It fails if the name is already taken.
func (c *Catalog) Create(name string, schema *value.Schema, pkCols ...string) (*Table, error) {
	t, err := NewTable(name, schema, pkCols...)
	if err != nil {
		return nil, err
	}
	t.log = &c.log
	t.clock = &c.clock
	t.conflicts = &c.conflicts
	key := canonical(name)
	if c.spill != nil && !c.spill.isPinned(key) {
		// Cold relation: committed tuples page out through the shared pool.
		// Relations pinned by policy (config, answer relations) stay wholly
		// in memory.
		h, err := c.spill.open(key)
		if err != nil {
			return nil, err
		}
		t.heap = h
	}
	c.mu.Lock()
	if _, exists := c.tables[key]; exists {
		c.mu.Unlock()
		if t.heap != nil {
			c.spill.retire(key)
		}
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	c.tables[key] = t
	c.mu.Unlock()
	c.log.emit(LogRecord{Op: OpCreateTable, Table: name, Schema: schema, PK: pkCols})
	return t, nil
}

// Get returns the named table.
func (c *Catalog) Get(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[canonical(name)]
	if !ok {
		return nil, fmt.Errorf("%w: table %q", ErrNotFound, name)
	}
	return t, nil
}

// Has reports whether the named table exists.
func (c *Catalog) Has(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.tables[canonical(name)]
	return ok
}

// holds reports whether t is still the catalog's table under its name,
// i.e. it has not been dropped (and perhaps replaced) since.
func (c *Catalog) holds(t *Table) bool {
	cur, err := c.Get(t.name)
	return err == nil && cur == t
}

// Drop removes the named table.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := canonical(name)
	t, ok := c.tables[key]
	if !ok {
		return fmt.Errorf("%w: table %q", ErrNotFound, name)
	}
	delete(c.tables, key)
	if t.heap != nil && c.spill != nil {
		c.spill.retire(key)
	}
	c.log.emit(LogRecord{Op: OpDropTable, Table: name})
	return nil
}

// Names returns all table names in sorted order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		names = append(names, t.Name())
	}
	sort.Strings(names)
	return names
}
