package txn

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
	"repro/internal/value"
)

// Manager creates transactions over a catalog. One Manager guards one
// database instance.
type Manager struct {
	catalog *storage.Catalog
	locks   *lockManager
	nextID  atomic.Uint64

	// LockTimeout bounds each lock wait; expiring aborts the acquisition with
	// ErrLockTimeout (deadlock resolution). Zero means wait forever.
	LockTimeout time.Duration

	stats struct {
		committed atomic.Uint64
		aborted   atomic.Uint64
		timeouts  atomic.Uint64
	}
}

// NewManager returns a Manager over the catalog with a 2s default lock
// timeout.
func NewManager(cat *storage.Catalog) *Manager {
	return &Manager{catalog: cat, locks: newLockManager(), LockTimeout: 2 * time.Second}
}

// Catalog exposes the underlying catalog (reads outside any transaction are
// physically consistent but not isolated).
func (m *Manager) Catalog() *storage.Catalog { return m.catalog }

// Stats is a snapshot of the manager's cumulative transaction counters.
type Stats struct {
	Committed      uint64 // transactions committed
	Aborted        uint64 // transactions rolled back (explicit or error)
	Timeouts       uint64 // lock-wait timeouts (deadlock resolution)
	WriteConflicts uint64 // first-committer-wins aborts (storage.ErrWriteConflict)
	GCReclaimed    uint64 // tuple versions pruned by the MVCC garbage collector
}

// Stats reports the cumulative transaction counters, including the MVCC
// conflict and garbage-collection counters kept by the catalog.
func (m *Manager) Stats() Stats {
	return Stats{
		Committed:      m.stats.committed.Load(),
		Aborted:        m.stats.aborted.Load(),
		Timeouts:       m.stats.timeouts.Load(),
		WriteConflicts: m.catalog.Conflicts(),
		GCReclaimed:    m.catalog.GCReclaimed(),
	}
}

// StartGC launches a background loop that prunes version chains against the
// oldest-active-snapshot watermark every interval. It returns a stop
// function (idempotent) that halts the loop and runs one final collection.
func (m *Manager) StartGC(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				m.catalog.GC()
			case <-done:
				return
			}
		}
	}()
	return func() {
		once.Do(func() {
			close(done)
			m.catalog.GC()
		})
	}
}

// Begin starts a transaction. Its snapshot is pinned lazily — at the first
// read, or at the first write after its exclusive lock is granted — so a
// transaction that waits on a lock is not penalized with an old snapshot
// (and a single-statement write can never lose first-committer-wins to a
// commit that happened before it even started).
func (m *Manager) Begin() *Txn {
	t := &Txn{mgr: m, id: m.nextID.Add(1)}
	t.held = t.heldBuf[:0]
	return t
}

// undoRecord reverses one mutation.
type undoRecord struct {
	table  string
	kind   uint8 // 0 insert (undo = delete), 1 delete (undo = restore), 2 update (undo = write back)
	id     storage.RowID
	before value.Tuple
}

// Txn is a single transaction: snapshot-isolated reads plus strict 2PL on
// writes with an undo log. A Txn is not safe for concurrent use by multiple
// goroutines (like database/sql.Tx).
type Txn struct {
	mgr *Manager
	id  uint64
	// held lists the canonical names of the tables this txn has locked. A
	// statement touches a handful of tables, so a linear slice beats a map —
	// and, backed by the inline buffer, costs no allocation at all.
	held    []string
	heldBuf [4]string
	undo    []undoRecord
	done    bool

	// MVCC state: the pinned snapshot (registered with the catalog so GC
	// respects it) and the storage writer carrying uncommitted versions.
	snapTS  uint64
	pinned  bool
	snapRef storage.SnapRef
	w       *storage.Writer

	mu sync.Mutex // guards done for the rare cross-goroutine Rollback
}

// ID returns the transaction id (diagnostics only).
func (t *Txn) ID() uint64 { return t.id }

// Snapshot returns the transaction's read snapshot, pinning it on first use.
// Every read through the transaction resolves against this one timestamp, so
// reads are repeatable and never block on (or observe) concurrent writers;
// the transaction's own uncommitted writes remain visible to it.
func (t *Txn) Snapshot() storage.Snapshot {
	if !t.pinned {
		t.snapTS = t.mgr.catalog.PinSnapshot(&t.snapRef)
		t.pinned = true
		if t.w != nil {
			t.w.SetSnapshot(t.snapTS)
		}
	}
	return storage.SnapshotAt(t.snapTS, t.w)
}

// writer returns the transaction's storage writer, creating it (and pinning
// the snapshot) on the first write. Callers must already hold the exclusive
// table lock, so pinning here — after the lock grant — keeps the snapshot as
// fresh as possible and avoids spurious first-committer-wins aborts for
// lock-then-write transactions.
func (t *Txn) writer() *storage.Writer {
	if t.w == nil {
		t.w = t.mgr.catalog.NewWriter()
		t.Snapshot() // pin now (no-op if already pinned) and attach below
		t.w.SetSnapshot(t.snapTS)
	}
	return t.w
}

func (t *Txn) deadline() time.Time {
	if t.mgr.LockTimeout == 0 {
		return time.Time{}
	}
	return time.Now().Add(t.mgr.LockTimeout)
}

// Err returns ErrTxnDone once the transaction has committed or rolled back,
// and nil before. Reads take no lock, so callers that read through the
// engine check it to refuse work on a finished transaction.
func (t *Txn) Err() error {
	if t.done {
		return ErrTxnDone
	}
	return nil
}

// Lock acquires the exclusive lock on table (idempotent). Reads never lock —
// they resolve against the snapshot — so table locks only serialize writers.
func (t *Txn) Lock(table string) error {
	if t.done {
		return ErrTxnDone
	}
	key := strings.ToLower(table)
	for _, h := range t.held {
		if h == key {
			return nil
		}
	}
	if err := t.mgr.locks.get(key).acquire(t.id, t.deadline()); err != nil {
		t.mgr.stats.timeouts.Add(1)
		return fmt.Errorf("%w: %s", err, table)
	}
	t.held = append(t.held, key)
	return nil
}

// LockAll locks every table in a canonical global order, which makes
// concurrent LockAll callers deadlock-free with respect to each other.
func (t *Txn) LockAll(tables []string) error {
	for _, name := range sortedUnique(tables) {
		if err := t.Lock(name); err != nil {
			return err
		}
	}
	return nil
}

// Holds reports whether the txn holds the lock on table.
func (t *Txn) Holds(table string) bool {
	return t.mgr.locks.get(table).holds(t.id)
}

func (t *Txn) table(name string) (*storage.Table, error) {
	return t.mgr.catalog.Get(name)
}

// Insert inserts a tuple under an exclusive lock and logs the undo. The new
// version is invisible to other transactions until commit.
func (t *Txn) Insert(table string, tup value.Tuple) (storage.RowID, error) {
	if err := t.Lock(table); err != nil {
		return 0, err
	}
	tbl, err := t.table(table)
	if err != nil {
		return 0, err
	}
	id, err := tbl.InsertW(t.writer(), tup)
	if err != nil {
		return 0, err
	}
	t.undo = append(t.undo, undoRecord{table: table, kind: 0, id: id})
	return id, nil
}

// Delete removes a row under an exclusive lock and logs the undo.
func (t *Txn) Delete(table string, id storage.RowID) error {
	if err := t.Lock(table); err != nil {
		return err
	}
	tbl, err := t.table(table)
	if err != nil {
		return err
	}
	old, err := tbl.DeleteW(t.writer(), id)
	if err != nil {
		return err
	}
	t.undo = append(t.undo, undoRecord{table: table, kind: 1, id: id, before: old})
	return nil
}

// Update replaces a row under an exclusive lock and logs the undo.
func (t *Txn) Update(table string, id storage.RowID, tup value.Tuple) error {
	if err := t.Lock(table); err != nil {
		return err
	}
	tbl, err := t.table(table)
	if err != nil {
		return err
	}
	old, err := tbl.UpdateW(t.writer(), id, tup)
	if err != nil {
		return err
	}
	t.undo = append(t.undo, undoRecord{table: table, kind: 2, id: id, before: old})
	return nil
}

// Scan iterates the table against the transaction's snapshot. It takes no
// lock: the snapshot guarantees a consistent, repeatable view while writers
// proceed underneath.
func (t *Txn) Scan(table string, fn func(storage.RowID, value.Tuple) bool) error {
	if err := t.Err(); err != nil {
		return err
	}
	tbl, err := t.table(table)
	if err != nil {
		return err
	}
	tbl.ScanAt(t.Snapshot(), fn)
	return nil
}

// Get reads one row against the transaction's snapshot.
func (t *Txn) Get(table string, id storage.RowID) (value.Tuple, error) {
	if err := t.Err(); err != nil {
		return nil, err
	}
	tbl, err := t.table(table)
	if err != nil {
		return nil, err
	}
	return tbl.GetAt(t.Snapshot(), id)
}

// Commit publishes the transaction's writes at one commit timestamp (making
// every touched row visible atomically), releases locks, and unpins the
// snapshot.
func (t *Txn) Commit() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrTxnDone
	}
	if t.w != nil {
		t.w.Commit()
	}
	t.finish()
	t.mgr.stats.committed.Add(1)
	return nil
}

// Rollback undoes every mutation in reverse order, then releases locks.
// The undo runs through the transaction's own writer and is then committed:
// the forward and compensating versions cancel out (begin == end), so no
// snapshot ever observes the aborted intermediates, while the write-ahead
// log keeps its pure physical-redo shape (forward operations followed by
// compensating ones). Rolling back a finished transaction is a no-op (so
// `defer tx.Rollback()` is safe, as with database/sql).
func (t *Txn) Rollback() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil
	}
	for i := len(t.undo) - 1; i >= 0; i-- {
		r := t.undo[i]
		tbl, err := t.mgr.catalog.Get(r.table)
		if err != nil {
			continue // table dropped mid-txn; nothing to restore into
		}
		switch r.kind {
		case 0:
			tbl.DeleteW(t.w, r.id) //nolint:errcheck // best-effort undo
		case 1:
			tbl.RestoreAtW(t.w, r.id, r.before) //nolint:errcheck
		case 2:
			tbl.UpdateW(t.w, r.id, r.before) //nolint:errcheck
		}
	}
	if t.w != nil {
		t.w.Commit() // publish forward+compensating pairs; net effect nil
	}
	t.finish()
	t.mgr.stats.aborted.Add(1)
	return nil
}

// finish releases all locks and unpins the snapshot. Caller holds t.mu.
func (t *Txn) finish() {
	for _, name := range t.held {
		t.mgr.locks.get(name).release(t.id)
	}
	if t.pinned {
		t.mgr.catalog.UnpinSnapshot(&t.snapRef)
		t.pinned = false
	}
	t.held = nil
	t.undo = nil
	t.w = nil
	t.done = true
}

// RunAtomic runs fn in a transaction, committing on nil and rolling back on
// error or panic. ErrLockTimeout aborts (ordinary two-party deadlocks) and
// first-committer-wins write conflicts are retried up to three times; the
// retry re-pins a fresh snapshot, so a conflict whose winner has committed
// does not recur.
func (m *Manager) RunAtomic(fn func(*Txn) error) error {
	const retries = 3
	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		err = m.runOnce(fn)
		if err == nil || !isRetryable(err) {
			return err
		}
	}
	return err
}

func isRetryable(err error) bool {
	return errors.Is(err, ErrLockTimeout) || errors.Is(err, storage.ErrWriteConflict)
}

func (m *Manager) runOnce(fn func(*Txn) error) (err error) {
	tx := m.Begin()
	defer func() {
		if p := recover(); p != nil {
			tx.Rollback()
			panic(p)
		}
	}()
	if err = fn(tx); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}
