package wal

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// Applier replays a log-record stream into a catalog, and is the only way a
// record reaches one: recovery, compaction's scratch replay and the
// replication follower all apply through it. Readers may run concurrently
// with the replay.
//
// It demultiplexes records by their LogRecord.Txn tag into per-transaction
// MVCC writers: a tagged row op lands in its transaction's writer (invisible
// to every snapshot), and the transaction's OpCommit publishes the writer —
// one atomic timestamp store, exactly as the original commit did on the
// primary. A transaction whose commit record never arrives stays open until
// RollbackAll compensates it. Untagged records (auto-commit mutations, DDL)
// apply directly, each being its own atomic unit.
//
// A snapshot segment is the one untagged sequence that is NOT record-atomic:
// its rows rebuild the whole database and must appear all at once. The
// follower brackets it with BeginSnapshot, which routes untagged row ops
// through a single batch writer committed by the segment's trailing
// OpCommit.
type Applier struct {
	cat *storage.Catalog

	mu    sync.Mutex
	open  map[uint64]*storage.Writer // in-flight transactions by Txn tag
	batch *storage.Writer            // snapshot-segment batch, nil outside one

	applied atomic.Uint64 // records applied
	commits atomic.Uint64 // commit records applied
	lastTS  atomic.Uint64 // timestamp of the newest applied commit
}

// NewApplier returns an applier replaying into cat.
func NewApplier(cat *storage.Catalog) *Applier {
	return &Applier{cat: cat, open: make(map[uint64]*storage.Writer)}
}

// writer returns (creating on first use) the MVCC writer for transaction id.
// The snapshot is pinned at infinity so first-committer-wins never fires:
// the writer that logged the records already resolved every conflict, and
// replay only reproduces its winners.
func (a *Applier) writer(id uint64) *storage.Writer {
	w := a.open[id]
	if w == nil {
		w = a.cat.NewTaggedWriter(id)
		w.SetSnapshot(^uint64(0))
		a.open[id] = w
	}
	return w
}

// Apply replays one record. Safe to call from the single replay goroutine
// while any number of snapshot readers run against the catalog.
func (a *Applier) Apply(r storage.LogRecord) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.apply(r); err != nil {
		return err
	}
	a.applied.Add(1)
	return nil
}

func (a *Applier) apply(r storage.LogRecord) error {
	switch r.Op {
	case storage.OpCommit:
		if r.Txn != 0 {
			if w := a.open[r.Txn]; w != nil {
				w.Commit()
				delete(a.open, r.Txn)
			}
		} else if a.batch != nil {
			a.batch.Commit()
			a.batch = nil
		}
		// Commits replayed here drew local timestamps; dragging the clock to
		// the logged one keeps later snapshots ordered after everything
		// committed by this point.
		a.cat.AdvanceClock(r.TS)
		a.lastTS.Store(r.TS)
		a.commits.Add(1)
		return nil

	// DDL is not versioned; it applies directly even inside a snapshot batch
	// or a transaction (a created-but-still-empty table is benign). The DDL
	// version bump invalidates any plan cached against the old schema.
	case storage.OpCreateTable:
		_, err := a.cat.Create(r.Table, r.Schema, r.PK...)
		return a.ddl(err)
	case storage.OpDropTable:
		return a.ddl(a.cat.Drop(r.Table))
	case storage.OpCreateIndex, storage.OpCreateOrderedIndex:
		tbl, err := a.cat.Get(r.Table)
		if err != nil {
			return err
		}
		if r.Op == storage.OpCreateIndex {
			return a.ddl(tbl.CreateIndexNamed(r.Index, r.Cols...))
		}
		if len(r.Cols) != 1 {
			return fmt.Errorf("ordered index wants exactly one column, got %v", r.Cols)
		}
		return a.ddl(tbl.CreateOrderedIndexNamed(r.Index, r.Cols[0]))

	case storage.OpInsert, storage.OpRestore, storage.OpDelete, storage.OpUpdate:
		tbl, err := a.cat.Get(r.Table)
		if err != nil {
			return err
		}
		// An untagged row op is its own atomic unit (a nil writer
		// auto-commits), unless a snapshot batch is collecting it.
		w := a.batch
		if r.Txn != 0 {
			w = a.writer(r.Txn)
		}
		switch r.Op {
		case storage.OpDelete:
			_, err = tbl.DeleteW(w, r.RowID)
		case storage.OpUpdate:
			_, err = tbl.UpdateW(w, r.RowID, r.Row)
		default:
			err = tbl.RestoreAtW(w, r.RowID, r.Row)
		}
		if errors.Is(err, storage.ErrWriteConflict) { // r's writer won every conflict it met
			return fmt.Errorf("%w, held by a transaction with no commit record "+
				"(a log whose recovery published open transactions must be compacted by the build that wrote it)", err)
		}
		return err
	}
	return fmt.Errorf("unknown op %q", r.Op)
}

// ddl bumps the catalog's DDL version after a schema change applied.
func (a *Applier) ddl(err error) error {
	if err == nil {
		a.cat.BumpDDL()
	}
	return err
}

// BeginSnapshot starts snapshot-batch mode: until the next untagged
// OpCommit, untagged row ops accumulate in one writer so the rebuilt state
// becomes visible atomically.
func (a *Applier) BeginSnapshot() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.batch == nil {
		a.batch = a.cat.NewTaggedWriter(0) // untagged: a snapshot commit is not a transaction
		a.batch.SetSnapshot(^uint64(0))
	}
}

// RollbackAll rolls back every transaction left open — compensations
// through its writer, then its commit — and returns how many there were.
// Taking over a log as its writer (a primary's startup, a promotion) calls
// it once the catalog's log hook is attached, so the compensations and the
// commits close every open Txn tag in the log itself, and every later
// replay of it converges. An open snapshot batch is refused, never rolled
// back: it is a rebuild of the whole database, not a transaction.
func (a *Applier) RollbackAll() (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.batch != nil {
		return 0, errors.New("wal: a snapshot segment is still being applied")
	}
	n := len(a.open)
	for _, id := range slices.Sorted(maps.Keys(a.open)) {
		a.open[id].Rollback()
		delete(a.open, id)
	}
	return n, nil
}

// Reset discards in-flight transactions and drops every table, preparing the
// catalog to receive a full snapshot re-ship. The catalog must have no log
// hook installed (followers never do), or the drops would re-log themselves.
func (a *Applier) Reset() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.open = make(map[uint64]*storage.Writer)
	a.batch = nil
	for _, name := range a.cat.Names() {
		if err := a.cat.Drop(name); err != nil {
			return err
		}
	}
	a.cat.BumpDDL()
	return nil
}

// Applied returns the number of records applied.
func (a *Applier) Applied() uint64 { return a.applied.Load() }

// Commits returns the number of commit records applied.
func (a *Applier) Commits() uint64 { return a.commits.Load() }

// LastTS returns the commit timestamp of the newest applied commit record —
// the follower's replayed watermark.
func (a *Applier) LastTS() uint64 { return a.lastTS.Load() }

// OpenTxns returns the number of transactions with records applied but no
// commit record yet.
func (a *Applier) OpenTxns() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.open)
	if a.batch != nil {
		n++
	}
	return n
}
