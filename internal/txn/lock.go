// Package txn provides transactions over the storage engine: snapshot
// isolation for reads, strict two-phase locking on writes, and an undo log
// for rollback.
//
// Reads resolve against a per-transaction snapshot pinned from the
// catalog's MVCC commit clock, so they never take table locks, never block
// writers, and never observe uncommitted or mid-commit state. Writes
// acquire exclusive table locks (serializing writers per table) and are
// checked first-committer-wins against the snapshot: a row changed by a
// transaction that committed after the snapshot aborts the writer with
// storage.ErrWriteConflict, which RunAtomic retries on a fresh snapshot.
//
// The coordination component relies on this layer for the paper's central
// atomicity guarantee: when a set of entangled queries matches, their answer
// tuples and any accompanying updates are installed in ONE transaction, so
// either every query in the match observes the coordinated outcome or none
// does — under MVCC the whole match becomes visible at a single commit
// timestamp. Write-write deadlocks are resolved by lock-wait timeouts (the
// victim aborts and the caller retries), and by offering sorted bulk
// acquisition for callers — like the coordinator — that know their lock set
// up front, which makes them deadlock-free by the ordered-resource argument.
package txn

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrLockTimeout is returned when a lock could not be acquired within the
// manager's timeout; the transaction should abort and retry. Timeouts double
// as the deadlock-resolution mechanism.
var ErrLockTimeout = errors.New("txn: lock wait timeout (possible deadlock)")

// ErrTxnDone is returned when using a transaction after Commit or Rollback.
var ErrTxnDone = errors.New("txn: transaction already finished")

// tableLock is an exclusive table lock, reentrant per transaction. Waits
// honour a deadline, which is how lock-wait timeouts resolve deadlocks.
type tableLock struct {
	mu     sync.Mutex
	cond   *sync.Cond
	holder uint64 // txn id holding the lock, 0 if free
}

func newTableLock() *tableLock {
	l := &tableLock{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// acquire blocks until the lock is granted to txn id or the deadline passes.
// Re-acquiring a held lock succeeds at once.
func (l *tableLock) acquire(id uint64, deadline time.Time) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// A timer wakes all waiters at the deadline so timeouts make progress
	// without per-waiter timers on the happy path.
	for l.holder != 0 && l.holder != id {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return ErrLockTimeout
		}
		waitWithWake(l.cond, deadline)
	}
	l.holder = id
	return nil
}

// waitWithWake waits on cond, arranging a broadcast at the deadline so the
// waiter can observe timeout.
func waitWithWake(cond *sync.Cond, deadline time.Time) {
	if deadline.IsZero() {
		cond.Wait()
		return
	}
	d := time.Until(deadline)
	if d <= 0 {
		return
	}
	t := time.AfterFunc(d, cond.Broadcast)
	cond.Wait()
	t.Stop()
}

// release drops txn id's hold. Strict 2PL releases everything at
// commit/abort, so this is the only release.
func (l *tableLock) release(id uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.holder == id {
		l.holder = 0
		l.cond.Broadcast()
	}
}

// holds reports whether txn id currently holds the lock.
func (l *tableLock) holds(id uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.holder == id
}

// lockManager hands out tableLocks by canonical table name.
type lockManager struct {
	mu    sync.Mutex
	locks map[string]*tableLock
}

func newLockManager() *lockManager {
	return &lockManager{locks: make(map[string]*tableLock)}
}

func (lm *lockManager) get(table string) *tableLock {
	key := strings.ToLower(table)
	lm.mu.Lock()
	defer lm.mu.Unlock()
	l := lm.locks[key]
	if l == nil {
		l = newTableLock()
		lm.locks[key] = l
	}
	return l
}

// sortedUnique returns the canonicalized, deduplicated, sorted table names —
// the global acquisition order that makes bulk locking deadlock-free.
func sortedUnique(tables []string) []string {
	seen := make(map[string]struct{}, len(tables))
	out := make([]string, 0, len(tables))
	for _, t := range tables {
		k := strings.ToLower(t)
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
