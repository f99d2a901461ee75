package wal

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// applyRecord replays one logged mutation into the catalog. Recovery and
// compaction replay through it.
func applyRecord(cat *storage.Catalog, r storage.LogRecord) error {
	switch r.Op {
	case storage.OpCreateTable:
		_, err := cat.Create(r.Table, r.Schema, r.PK...)
		return err

	case storage.OpDropTable:
		return cat.Drop(r.Table)

	case storage.OpCreateIndex:
		tbl, err := cat.Get(r.Table)
		if err != nil {
			return err
		}
		return tbl.CreateIndexNamed(r.Index, r.Cols...)

	case storage.OpCreateOrderedIndex:
		tbl, err := cat.Get(r.Table)
		if err != nil {
			return err
		}
		if len(r.Cols) != 1 {
			return fmt.Errorf("ordered index wants exactly one column, got %v", r.Cols)
		}
		return tbl.CreateOrderedIndexNamed(r.Index, r.Cols[0])

	case storage.OpInsert, storage.OpRestore:
		tbl, err := cat.Get(r.Table)
		if err != nil {
			return err
		}
		return tbl.RestoreAt(r.RowID, r.Row)

	case storage.OpDelete:
		tbl, err := cat.Get(r.Table)
		if err != nil {
			return err
		}
		_, err = tbl.Delete(r.RowID)
		return err

	case storage.OpUpdate:
		tbl, err := cat.Get(r.Table)
		if err != nil {
			return err
		}
		_, err = tbl.Update(r.RowID, r.Row)
		return err

	case storage.OpCommit:
		// Advance the MVCC commit clock so post-recovery snapshots order
		// after every pre-crash commit. Row effects were already replayed by
		// the preceding physical records.
		cat.AdvanceClock(r.TS)
		return nil

	default:
		return fmt.Errorf("unknown op %q", r.Op)
	}
}

// Applier replays a log-record stream into a catalog that is concurrently
// serving snapshot reads — the replication follower's apply path.
//
// Plain recovery (applyRecord) makes every record visible the moment it is
// applied, which is correct when nobody is reading yet but would let a live
// reader observe half of a transaction whose records it is between. The
// Applier instead demultiplexes records by their LogRecord.Txn tag into
// per-transaction MVCC writers: a tagged row op lands in its transaction's
// writer (invisible to every snapshot), and the transaction's OpCommit
// publishes the writer — one atomic timestamp store, exactly as the original
// commit did on the primary. Untagged records (auto-commit mutations, DDL)
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

func isDDL(op storage.LogOp) bool {
	switch op {
	case storage.OpCreateTable, storage.OpDropTable, storage.OpCreateIndex, storage.OpCreateOrderedIndex:
		return true
	}
	return false
}

// writer returns (creating on first use) the MVCC writer for transaction id.
// The snapshot is pinned at infinity so first-committer-wins never fires:
// the primary already resolved every conflict; the follower replays winners.
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

	if r.Op == storage.OpCommit {
		if r.Txn != 0 {
			if w := a.open[r.Txn]; w != nil {
				w.Commit()
				delete(a.open, r.Txn)
			}
		} else if a.batch != nil {
			a.batch.Commit()
			a.batch = nil
		}
		// The follower's own commits drew local timestamps; dragging the
		// clock to the primary's keeps follower snapshots ordered after
		// everything the primary had committed by this point.
		a.cat.AdvanceClock(r.TS)
		a.lastTS.Store(r.TS)
		a.commits.Add(1)
		a.applied.Add(1)
		return nil
	}

	if isDDL(r.Op) {
		// DDL is not versioned; it applies directly even inside a snapshot
		// batch (a created-but-still-empty table is benign). The DDL version
		// bump invalidates any plan the follower cached against the old
		// schema — replicated DDL skips the engine layer that normally bumps.
		if err := applyRecord(a.cat, r); err != nil {
			return err
		}
		a.cat.BumpDDL()
		a.applied.Add(1)
		return nil
	}

	var w *storage.Writer
	switch {
	case r.Txn != 0:
		w = a.writer(r.Txn)
	case a.batch != nil:
		w = a.batch
	default:
		// Untagged auto-commit mutation: its own atomic unit.
		if err := applyRecord(a.cat, r); err != nil {
			return err
		}
		a.applied.Add(1)
		return nil
	}

	tbl, err := a.cat.Get(r.Table)
	if err != nil {
		return err
	}
	switch r.Op {
	case storage.OpInsert, storage.OpRestore:
		err = tbl.RestoreAtW(w, r.RowID, r.Row)
	case storage.OpDelete:
		_, err = tbl.DeleteW(w, r.RowID)
	case storage.OpUpdate:
		_, err = tbl.UpdateW(w, r.RowID, r.Row)
	default:
		err = applyRecord(a.cat, r)
	}
	if err != nil {
		return err
	}
	a.applied.Add(1)
	return nil
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

// CommitAll publishes every in-flight transaction and returns how many were
// open. Promotion calls it: a transaction whose commit record the old
// primary never shipped is in exactly the state the primary's own crash
// recovery would leave it — its logged effects applied — so publishing
// matches the recovery semantics the log has always had.
func (a *Applier) CommitAll() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for id, w := range a.open {
		w.Commit()
		delete(a.open, id)
		n++
	}
	if a.batch != nil {
		a.batch.Commit()
		a.batch = nil
		n++
	}
	return n
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
