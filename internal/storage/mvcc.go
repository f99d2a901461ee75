package storage

import (
	"errors"
	"sync/atomic"

	"repro/internal/value"
)

// This file holds the MVCC core: versioned tuples, point-in-time snapshots,
// and the transaction writer handle.
//
// Every row is a chain of immutable versions, newest first, each stamped
// with a [begin, end) lifetime in commit timestamps drawn from the
// catalog-wide commit clock. Readers resolve a chain against a Snapshot
// without taking any transaction-level lock: a version is visible when it
// was created at or before the snapshot and not yet deleted at it. Writers
// record in-flight versions against a Writer; commit publishes one atomic
// timestamp store that makes every version of the transaction visible at
// once, across all touched tables.
//
// Cross-transaction write conflicts use first-committer-wins: a writer that
// finds the newest committed version of a row younger than its own snapshot
// aborts with ErrWriteConflict instead of blindly overwriting (the lost
// update it would otherwise cause is the anomaly snapshot isolation
// forbids). Write-write blocking between in-flight transactions is handled
// above this layer by the txn package's exclusive table locks.

// ErrWriteConflict is returned when a write finds the row changed by a
// transaction that committed after the writer's snapshot was taken
// (first-committer-wins). The caller should abort and retry.
var ErrWriteConflict = errors.New("storage: write-write conflict (first committer wins)")

// liveTS marks a version that has not been deleted or superseded.
const liveTS = ^uint64(0)

// latestTS is the snapshot timestamp that observes every committed version.
// It is one below liveTS so `end > ts` stays true for live versions.
const latestTS = liveTS - 1

// version is one entry in a row's chain. begin/end are valid once the
// corresponding writer pointer is nil; while a writer is in flight, readers
// consult its atomically published state instead. Fields are written only
// under the owning table's mutex, so readers holding it (even shared) see
// consistent values.
type version struct {
	// tup is the tuple, or nil when the version is spilled to the table's
	// heap file and ref locates its bytes instead. Spillable tables page out
	// the version at creation; a write that needs the old tuple materializes
	// it back (update/delete — "the chain is reconstructed on write"). tup
	// only ever transitions nil→non-nil, under the table's exclusive latch.
	tup value.Tuple
	// ref locates the spilled record (page.go). Written at version creation
	// and rewritten only by the page compactor, both under the table's
	// exclusive latch. Readers copy it under the shared latch and may resolve
	// it after releasing, provided they entered the heap's readers gate first
	// — the gate keeps a captured ref's page from being reclaimed and reused
	// until the decode finishes (see heap.go).
	ref   pageRef
	begin uint64   // commit ts of the creating txn
	end   uint64   // commit ts of the deleting/superseding txn; liveTS while current
	bw    *Writer  // in-flight creator, nil once finalized
	ew    *Writer  // in-flight deleter/superseder, nil once finalized
	prev  *version // next-older version
}

// Snapshot is a point-in-time read view: every transaction that committed at
// or before TS is visible, nothing else — except the owning writer's own
// in-flight changes, which are always visible to it.
type Snapshot struct {
	ts uint64
	w  *Writer
}

// TS returns the snapshot's commit-clock timestamp.
func (s Snapshot) TS() uint64 { return s.ts }

// Latest returns the snapshot that sees every committed version and no
// in-flight one — the view non-transactional readers get.
func Latest() Snapshot { return Snapshot{ts: latestTS} }

// SnapshotAt builds a snapshot at ts owned by w (nil for pure readers). The
// txn layer uses it to attach its writer to the transaction's pinned
// snapshot so reads observe the transaction's own uncommitted writes.
func SnapshotAt(ts uint64, w *Writer) Snapshot { return Snapshot{ts: ts, w: w} }

// visible reports whether v is in s's view. Caller holds the owning table's
// mutex (shared suffices).
func (v *version) visible(s Snapshot) bool {
	if bw := v.bw; bw != nil {
		if bw != s.w {
			ts := bw.state.Load()
			if ts == 0 || ts > s.ts {
				return false
			}
		}
	} else if v.begin > s.ts {
		return false
	}
	if ew := v.ew; ew != nil {
		if ew == s.w {
			return false // deleted by the snapshot's own transaction
		}
		ts := ew.state.Load()
		return ts == 0 || ts > s.ts // someone else's in-flight delete is ignored
	}
	return v.end > s.ts
}

// visibleVersion resolves a chain against a snapshot: the newest version
// visible at s, or nil when the row does not exist in that view.
func visibleVersion(h *version, s Snapshot) *version {
	for v := h; v != nil; v = v.prev {
		if v.visible(s) {
			return v
		}
	}
	return nil
}

// Writer is the storage-side handle of one writing transaction. Versions it
// creates or ends point back at it until commit; state holds 0 while in
// flight and the commit timestamp afterwards, so publishing one atomic store
// commits every touched row at once. A Writer is single-goroutine, like the
// Txn that owns it.
//
// Rollback is the one abort path: it compensates through the same writer
// and then commits, which leaves the aborted intermediate versions with
// begin == end — invisible to every snapshot — and keeps the write-ahead
// log's physical-redo story (forward operations followed by compensating
// ones, then the commit) intact.
type Writer struct {
	cat   *Catalog
	id    uint64        // Txn tag on this writer's log records
	state atomic.Uint64 // 0 in flight; commit ts once published
	snap  uint64        // owning txn's snapshot, for first-committer-wins checks
	vers  []wver
}

type wver struct {
	t  *Table
	id RowID
	v  *version
}

// NewWriter returns a writer drawing commit timestamps from the catalog's
// clock.
func (c *Catalog) NewWriter() *Writer { return &Writer{cat: c, id: c.writerSeq.Add(1)} }

// NewTaggedWriter returns a writer whose log records carry the given Txn tag
// instead of a locally drawn one. Log replay preserves the logged tags this
// way, so the compensations and commit a rollback of a replayed transaction
// emits demultiplex correctly on every later replay and downstream follower.
func (c *Catalog) NewTaggedWriter(id uint64) *Writer { return &Writer{cat: c, id: id} }

// txnID is the LogRecord.Txn tag for a mutation made on behalf of w (zero for
// auto-commit mutations, which are their own atomic unit).
func txnID(w *Writer) uint64 {
	if w == nil {
		return 0
	}
	return w.id
}

// SetSnapshot records the owning transaction's snapshot timestamp; writes
// compare committed row timestamps against it to detect conflicts.
func (w *Writer) SetSnapshot(ts uint64) { w.snap = ts }

func (w *Writer) touch(t *Table, id RowID, v *version) { w.vers = append(w.vers, wver{t, id, v}) }

// Commit publishes the writer's versions at a fresh commit timestamp and
// returns it. The state store is the atomic commit point; the per-table pass
// afterwards only finalizes begin/end stamps (and bumps table versions) so
// later readers stop chasing writer state.
func (w *Writer) Commit() uint64 {
	ts := w.cat.publishCommit(w)
	for i := 0; i < len(w.vers); {
		t := w.vers[i].t
		t.mu.Lock()
		j := i
		for ; j < len(w.vers) && w.vers[j].t == t; j++ {
			v := w.vers[j].v
			if v.bw == w {
				v.begin = ts
				v.bw = nil
			}
			if v.ew == w {
				v.end = ts
				v.ew = nil
			}
		}
		t.version++
		t.mu.Unlock()
		i = j
	}
	if len(w.vers) > 0 {
		w.cat.log.emit(LogRecord{Op: OpCommit, TS: ts, Txn: w.id})
	}
	return ts
}

// Rollback undoes every change w made, then commits. It works in two
// phases over w's own versions: first it deletes each row whose current head
// w created, which frees every key w took; then it restores each
// before-image w ended. Undoing row by row in last-touch order could instead
// collide on a primary key that w moved from one row to another. Versions
// in tables dropped since are skipped: there is nothing to restore into.
func (w *Writer) Rollback() {
	n := len(w.vers)
	for _, e := range w.vers[:n] {
		if e.v.bw == w && e.v.ew == nil && w.cat.holds(e.t) {
			e.t.DeleteW(w, e.id) //nolint:errcheck // w's own live head cannot conflict
		}
	}
	for _, e := range w.vers[:n] {
		if e.v.ew == w && e.v.bw != w && w.cat.holds(e.t) {
			e.t.RestoreAtW(w, e.id, e.v.tup) //nolint:errcheck // the row's head is w's deleted version
		}
	}
	w.Commit()
}

// SnapRef is an intrusive registration of one active snapshot; pinning links
// it into the catalog's active list so garbage collection never reclaims
// versions the snapshot can still see. Embed it (in a Txn, a pooled scratch)
// to pin without allocating.
type SnapRef struct {
	ts         uint64
	prev, next *SnapRef
}
