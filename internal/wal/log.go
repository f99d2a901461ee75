package wal

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"

	"repro/internal/storage"
)

// Log is the segmented, group-committing write-ahead log:
//
//   - Records are length-prefixed, CRC32C-checksummed binary frames (see
//     binary.go).
//   - The log is a directory of segment files. The active segment rotates at
//     Options.SegmentBytes; rotation fsyncs and seals the old segment, so
//     everything below the tail is immutable.
//   - Concurrent Appends are batched by a group-commit protocol: the first
//     appender becomes the flush leader and writes (and, under SyncAlways,
//     fsyncs) every record that queued up behind it in one syscall pair;
//     the others park on a commit notification. One fsync is amortized
//     across every lane that reached the log during the previous flush.
//   - Sealed segments are compacted — rewritten as one snapshot segment —
//     without quiescing writers, because appends only ever touch the tail.
type Log struct {
	dir  string
	opts Options
	fs   FS

	mu       sync.Mutex
	cond     *sync.Cond // signals flushing/compacting ownership changes
	err      error      // sticky write error, surfaced by Err and Close
	closed   bool
	flushing bool

	f    File   // active segment, owned by the current flush leader
	seq  uint64 // active segment sequence number
	size int64  // active segment size in bytes

	sealed []SegmentInfo

	// Log-shipping state (ship.go): watch wakes shippers parked on the tail,
	// pins hold back compaction for connected followers, and the ingest
	// fields track a follower-side segment being received.
	watch      chan struct{}
	pins       []*Pin
	ingestTmp  string // staging path of a snapshot segment being ingested
	ingestSnap bool   // active segment is an ingested snapshot

	pending  []byte     // encoded records awaiting the next flush
	spare    []byte     // recycled batch buffer
	gen      *commitGen // commit notification for the pending batch
	inflight *commitGen // batch currently being written by the leader

	compacting  bool
	compactErr  error // last background compaction failure (reported by Err)
	scratchInfo CompactScratchInfo
	bg          sync.WaitGroup

	stats     CommitStats
	recovered RecoveryInfo
	applier   *Applier // replays recovery, then serves the follower's stream
}

// commitGen notifies every appender whose record rode a given flush batch.
type commitGen struct {
	done chan struct{}
	err  error
}

// SyncMode selects the durability point of a commit batch.
type SyncMode int

const (
	// SyncOS hands each commit batch to the OS (one write syscall) without
	// fsync — crash-of-process safe.
	SyncOS SyncMode = iota
	// SyncAlways fsyncs each commit batch before the appenders are released —
	// crash-of-machine safe. Group commit amortizes the fsync across every
	// record that queued during the previous flush.
	SyncAlways
)

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero.
const DefaultSegmentBytes = 4 << 20

// Options tunes a Log.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size.
	// Zero selects DefaultSegmentBytes.
	SegmentBytes int64
	// Sync selects the commit durability point (default SyncOS).
	Sync SyncMode
	// NoGroupCommit disables batching: every Append performs its own write
	// (and fsync, under SyncAlways) while the others wait. This is the
	// fsync-per-record baseline that group commit is benchmarked against.
	NoGroupCommit bool
	// CompactAfter starts a background compaction whenever at least this
	// many sealed segments have accumulated. Zero disables auto-compaction
	// (Compact can still be called explicitly).
	CompactAfter int
	// CompactPoolPages bounds the memory the compaction scratch catalog may
	// hold: the scratch replay spills through a buffer pool of this many
	// frames backed by a throwaway temp directory, so compacting a
	// larger-than-RAM log holds O(pool) memory instead of O(data). Zero
	// keeps the scratch fully in memory.
	CompactPoolPages int
	// FS is the filesystem the log runs on. Nil selects the real one; the
	// fault-injection harness substitutes a wrapper that scripts write
	// errors, short writes and crashes.
	FS FS
}

// CommitStats counts the write-side activity of a Log.
type CommitStats struct {
	Records   uint64 // records appended
	Batches   uint64 // write syscalls (commit batches)
	Syncs     uint64 // fsyncs of the active segment
	Rotations uint64 // segments sealed
	Compacts  uint64 // compactions completed
}

// RecoveryInfo describes what OpenLog replayed.
type RecoveryInfo struct {
	Records   int   // records applied
	Segments  int   // segment files replayed
	Torn      bool  // the tail segment had a torn final record
	TornBytes int64 // bytes truncated from the tail
}

// ErrLogClosed is returned by operations on a closed Log.
var ErrLogClosed = errors.New("wal: log is closed")

// OpenLog opens (creating as needed) the segmented log rooted at dir,
// replays every segment into cat through the log's Applier, truncates a torn
// tail, and leaves the log ready for appending. A transaction without a
// commit record stays open in the Applier: it is invisible, and whoever
// takes the log over either rolls it back (Applier.RollbackAll) or, as a
// follower, awaits the rest of it. Sealed segments are decoded in parallel
// and applied in segment order. A regular file at dir, or a "*.json" file
// inside it, is refused and left untouched: both are what the retired JSON
// log format wrote, and an empty log must not start over data it cannot
// read.
func OpenLog(dir string, cat *storage.Catalog, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SegmentBytes < segHeaderLen+16 {
		opts.SegmentBytes = segHeaderLen + 16
	}
	if opts.FS == nil {
		opts.FS = OSFS()
	}
	l := &Log{dir: dir, opts: opts, fs: opts.FS, watch: make(chan struct{}), applier: NewApplier(cat)}
	l.cond = sync.NewCond(&l.mu)
	if err := l.prepareDir(); err != nil {
		return nil, err
	}
	if err := l.recover(); err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.maybeAutoCompactLocked()
	l.mu.Unlock()
	return l, nil
}

// prepareDir makes l.dir a durable log directory.
func (l *Log) prepareDir() error {
	if err := l.fs.MkdirAll(l.dir, 0o755); err != nil {
		return fmt.Errorf("wal: log directory: %w", err)
	}
	if err := l.fs.SyncDir(filepath.Dir(l.dir)); err != nil {
		return err
	}
	return l.fs.SyncDir(l.dir)
}

// recover replays the segments through l.applier and opens the active
// segment.
func (l *Log) recover() error {
	segs, err := listSegments(l.fs, l.dir)
	if err != nil {
		return err
	}

	// Decode every segment concurrently; the results are applied strictly in
	// segment order below. Sealed segments dominate recovery time, so the
	// decode pipeline is where the parallelism pays.
	results := make([]chan segmentDecode, len(segs))
	sem := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
	for i := range segs {
		results[i] = make(chan segmentDecode, 1)
		go func(i int) {
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] <- decodeSegmentFile(l.fs, segs[i])
		}(i)
	}

	decoded := make([]segmentDecode, len(segs))
	snapIdx := -1
	for i := range segs {
		decoded[i] = <-results[i]
		if decoded[i].snapshot && decoded[i].err == nil && !decoded[i].torn {
			snapIdx = i
		}
	}

	// Everything below the newest intact snapshot is stale — leftovers of an
	// interrupted compaction. Skip it, but delete the files only once the
	// replay from the snapshot has actually succeeded: if the "snapshot"
	// turns out to be bad, the older chain is the only copy of the data.
	var stale []string
	if snapIdx > 0 {
		for i := 0; i < snapIdx; i++ {
			stale = append(stale, segs[i].Path)
		}
		segs = segs[snapIdx:]
		decoded = decoded[snapIdx:]
	}

	for i := range segs {
		d := decoded[i]
		last := i == len(segs)-1
		if d.err != nil {
			return fmt.Errorf("wal: segment %s: %w", filepath.Base(segs[i].Path), d.err)
		}
		if d.torn {
			if !last {
				return fmt.Errorf("wal: sealed segment %s is torn at byte %d", filepath.Base(segs[i].Path), d.good)
			}
			l.recovered.Torn = true
			l.recovered.TornBytes = segs[i].Bytes - d.good
		}
		for n, rec := range d.recs {
			if err := l.applier.Apply(rec); err != nil {
				return fmt.Errorf("wal: replay %s record %d (%s %s): %w",
					filepath.Base(segs[i].Path), n+1, rec.Op, rec.Table, err)
			}
		}
		l.recovered.Records += len(d.recs)
	}
	l.recovered.Segments = len(segs)
	for _, p := range stale {
		l.fs.Remove(p) //nolint:errcheck // best effort; ignored by future recoveries anyway
	}

	// Open the tail for appending. A non-snapshot tail is truncated past its
	// last good record and continued; a snapshot tail is sealed and a fresh
	// segment started.
	reuse := -1
	if n := len(segs); n > 0 && !decoded[n-1].snapshot {
		reuse = n - 1
	}
	for i, s := range segs {
		if i == reuse {
			continue
		}
		info := s
		info.Sealed = true
		info.Snapshot = decoded[i].snapshot
		l.sealed = append(l.sealed, info)
	}
	if reuse >= 0 {
		s, d := segs[reuse], decoded[reuse]
		f, err := l.fs.OpenFile(s.Path, os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		good := d.good
		if good < segHeaderLen {
			// Crash before the header landed: rewrite it.
			good = 0
		}
		if err := f.Truncate(good); err != nil {
			f.Close()
			return err
		}
		if good == 0 {
			if _, err := f.Write(segHeader(0)); err != nil {
				f.Close()
				return err
			}
			good = segHeaderLen
		} else if _, err := f.Seek(good, 0); err != nil {
			f.Close()
			return err
		}
		if d.torn {
			if err := f.Sync(); err != nil {
				f.Close()
				return err
			}
		}
		l.f, l.seq, l.size = f, s.Seq, good
		if l.size >= l.opts.SegmentBytes {
			// No concurrency yet: take flush ownership directly.
			l.mu.Lock()
			l.flushing = true
			l.rotateOwned()
			l.flushing = false
			err := l.err
			l.mu.Unlock()
			if err != nil {
				return err
			}
		}
		return nil
	}
	// Fresh segment after the existing chain (or an empty directory).
	next := uint64(1)
	if n := len(segs); n > 0 {
		next = segs[n-1].Seq + 1
	}
	return l.createSegment(next)
}

// newSegmentFile creates and headers a segment file.
func newSegmentFile(fsys FS, dir string, seq uint64) (File, error) {
	path := filepath.Join(dir, segName(seq))
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(segHeader(0)); err != nil {
		f.Close()
		return nil, err
	}
	if err := fsys.SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// createSegment creates a new active segment (recovery-time helper).
func (l *Log) createSegment(seq uint64) error {
	f, err := newSegmentFile(l.fs, l.dir, seq)
	if err != nil {
		return err
	}
	l.f, l.seq, l.size = f, seq, segHeaderLen
	return nil
}

// Recovered reports what OpenLog replayed.
func (l *Log) Recovered() RecoveryInfo { return l.recovered }

// Applier returns the applier recovery replayed through. It holds the
// transactions the log left open; a follower keeps applying the shipped
// stream through it.
func (l *Log) Applier() *Applier { return l.applier }

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Append encodes and commits one record. Under group commit the caller
// either leads the next flush (writing every queued record in one batch) or
// parks until the leader's commit covers it. Errors are sticky: the first
// failure is kept and every later Append returns it.
func (l *Log) Append(r storage.LogRecord) error {
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.closed {
		l.mu.Unlock()
		return ErrLogClosed
	}

	if l.opts.NoGroupCommit {
		// Naive baseline: one private write (+fsync) per record, serialized.
		buf, err := appendFramedRecord(nil, r)
		if err != nil {
			l.err = err
			l.mu.Unlock()
			return err
		}
		l.stats.Records++
		for l.flushing {
			l.cond.Wait()
		}
		if l.err != nil {
			err := l.err
			l.mu.Unlock()
			return err
		}
		l.flushing = true
		l.mu.Unlock()
		werr := l.writeToActive(buf)
		l.mu.Lock()
		l.finishFlushLocked(len(buf), werr)
		l.flushing = false
		l.cond.Broadcast()
		err = l.err
		l.mu.Unlock()
		if werr != nil {
			return werr
		}
		return err
	}

	if l.pending == nil && l.spare != nil {
		l.pending, l.spare = l.spare[:0], nil
	}
	var encErr error
	l.pending, encErr = appendFramedRecord(l.pending, r)
	if encErr != nil {
		l.err = encErr
		l.mu.Unlock()
		return encErr
	}
	l.stats.Records++
	g := l.gen
	if g == nil {
		g = &commitGen{done: make(chan struct{})}
		l.gen = g
	}
	if l.flushing {
		// A leader is writing; park until our batch is durable.
		l.mu.Unlock()
		<-g.done
		return g.err
	}
	l.drainLocked()
	l.mu.Unlock()
	return g.err
}

// maxPendingBytes bounds the async buffer: an AppendAsync that crosses it
// triggers an inline flush instead of growing the batch without limit.
const maxPendingBytes = 1 << 20

// AppendAsync encodes and enqueues one record WITHOUT waiting for the
// commit: the record rides the next flush (triggered by a concurrent
// Append, a Commit, or the buffer filling up). This is the transaction
// shape of write-ahead logging — mutations stream into the log buffer and
// the caller pays the durability wait once, at its commit point.
func (l *Log) AppendAsync(r storage.LogRecord) error {
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.closed {
		l.mu.Unlock()
		return ErrLogClosed
	}
	if l.pending == nil && l.spare != nil {
		l.pending, l.spare = l.spare[:0], nil
	}
	var encErr error
	l.pending, encErr = appendFramedRecord(l.pending, r)
	if encErr != nil {
		l.err = encErr
		l.mu.Unlock()
		return encErr
	}
	l.stats.Records++
	if l.gen == nil {
		l.gen = &commitGen{done: make(chan struct{})}
	}
	if len(l.pending) >= maxPendingBytes && !l.flushing {
		l.drainLocked()
	}
	err := l.err
	l.mu.Unlock()
	return err
}

// Commit blocks until every record appended so far (by any goroutine) has
// reached the log's durability point — the fsync under SyncAlways, the OS
// under SyncOS. Concurrent committers share one flush: the first to arrive
// leads it, the rest park on its notification.
func (l *Log) Commit() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrLogClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if g := l.gen; g != nil {
		if l.flushing {
			l.mu.Unlock()
			<-g.done
			return g.err
		}
		l.drainLocked()
		err := g.err
		l.mu.Unlock()
		return err
	}
	// Nothing queued. If a batch is mid-flight it may carry our records;
	// otherwise everything already reached the durability point.
	if g := l.inflight; g != nil {
		l.mu.Unlock()
		<-g.done
		return g.err
	}
	l.mu.Unlock()
	return nil
}

// drainLocked elects the caller flush leader and writes pending batches
// until none remain. Called with mu held and flushing false; returns with
// mu held and flushing false.
func (l *Log) drainLocked() {
	l.flushing = true
	for l.err == nil && l.gen != nil {
		batch, g := l.pending, l.gen
		l.pending, l.gen = nil, nil
		l.inflight = g
		l.mu.Unlock()
		werr := l.writeToActive(batch)
		l.mu.Lock()
		if l.spare == nil {
			l.spare = batch[:0]
		}
		l.finishFlushLocked(len(batch), werr)
		l.inflight = nil
		g.err = werr
		close(g.done)
	}
	// Release any generation stranded by a sticky error.
	if l.gen != nil && l.err != nil {
		g := l.gen
		l.gen, l.pending = nil, nil
		g.err = l.err
		close(g.done)
	}
	l.flushing = false
	l.cond.Broadcast()
}

// writeToActive performs the batch write (and fsync under SyncAlways)
// against the active segment. Called without mu but with flush ownership,
// so l.f is exclusively ours.
func (l *Log) writeToActive(batch []byte) error {
	if _, err := l.f.Write(batch); err != nil {
		return err
	}
	if l.opts.Sync == SyncAlways {
		return l.f.Sync()
	}
	return nil
}

// finishFlushLocked records a completed batch and rotates if the active
// segment outgrew the threshold. Called with mu held and flush ownership.
func (l *Log) finishFlushLocked(n int, werr error) {
	if werr != nil {
		if l.err == nil {
			l.err = werr
		}
		return
	}
	l.size += int64(n)
	l.stats.Batches++
	if l.opts.Sync == SyncAlways {
		l.stats.Syncs++
	}
	l.bumpWatchLocked()
	if l.size >= l.opts.SegmentBytes {
		l.rotateOwned()
	}
}

// rotateOwned seals the active segment (fsync + close) and opens the next
// one. Called with mu held and flush ownership; the file I/O runs with mu
// released — like batch writes — so appenders keep queueing and the admin
// surface stays responsive during the two fsyncs. Failures are sticky.
func (l *Log) rotateOwned() {
	oldF, oldSeq, oldSize := l.f, l.seq, l.size
	l.mu.Unlock()
	sealErr := oldF.Sync()
	if sealErr == nil {
		sealErr = oldF.Close()
	}
	var newF File
	var createErr error
	if sealErr == nil {
		newF, createErr = newSegmentFile(l.fs, l.dir, oldSeq+1)
	}
	l.mu.Lock()
	if sealErr != nil {
		if l.err == nil {
			l.err = sealErr
		}
		l.bumpWatchLocked()
		return
	}
	if l.opts.Sync != SyncAlways {
		l.stats.Syncs++
	}
	l.sealed = append(l.sealed, SegmentInfo{
		Seq: oldSeq, Path: filepath.Join(l.dir, segName(oldSeq)),
		Bytes: oldSize, Sealed: true,
	})
	l.stats.Rotations++
	if createErr != nil {
		if l.err == nil {
			l.err = createErr
		}
		l.bumpWatchLocked()
		return
	}
	l.f, l.seq, l.size = newF, oldSeq+1, segHeaderLen
	l.bumpWatchLocked()
	l.maybeAutoCompactLocked()
}

// maybeAutoCompactLocked kicks a background compaction when enough sealed
// segments have piled up. Called with mu held.
func (l *Log) maybeAutoCompactLocked() {
	if l.opts.CompactAfter <= 0 || l.compacting || l.closed {
		return
	}
	segs := l.compactableLocked()
	if len(segs) < l.opts.CompactAfter {
		return
	}
	l.compacting = true
	l.bg.Add(1)
	go func() {
		defer l.bg.Done()
		err := l.compactSegments(segs)
		l.mu.Lock()
		l.compacting = false
		if err != nil {
			l.compactErr = err
		}
		l.cond.Broadcast()
		l.mu.Unlock()
	}()
}

// Compact seals the active segment and rewrites every sealed segment as one
// snapshot segment. Writers are NOT quiesced: concurrent appends land in the
// fresh active segment and survive compaction untouched.
func (l *Log) Compact() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrLogClosed
	}
	for l.flushing {
		l.cond.Wait()
	}
	if l.gen != nil {
		l.drainLocked()
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.size > segHeaderLen {
		l.flushing = true
		l.rotateOwned()
		l.flushing = false
		l.cond.Broadcast()
		if l.err != nil {
			err := l.err
			l.mu.Unlock()
			return err
		}
		// Appends that arrived during the rotation window parked on a fresh
		// commit generation with no elected leader (they saw flushing held
		// by us). Drain it, or — if every writer goroutine is parked — no
		// later Append would ever come to wake them.
		if l.gen != nil {
			l.drainLocked()
			if l.err != nil {
				err := l.err
				l.mu.Unlock()
				return err
			}
		}
	}
	for l.compacting { // let a background run finish, then fold in the rest
		l.cond.Wait()
	}
	segs := l.compactableLocked()
	if len(segs) == 0 {
		err := l.compactErr
		l.compactErr = nil
		l.mu.Unlock()
		return err
	}
	l.compacting = true
	l.mu.Unlock()

	err := l.compactSegments(segs)

	l.mu.Lock()
	l.compacting = false
	l.cond.Broadcast()
	if err == nil {
		err = l.compactErr
		l.compactErr = nil
	}
	l.mu.Unlock()
	return err
}

// compactSegments replays segs (a sealed prefix of the log) into a scratch
// catalog and replaces them with one snapshot segment named after the last
// sequence in the prefix. The snapshot holds committed state only; the
// records of transactions still open at the end of the prefix follow it
// unchanged, so a later commit or rollback in the tail finds them. The
// rename is atomic; stale files are removed afterwards, and recovery ignores
// anything older than a snapshot, so a crash at any point leaves a
// recoverable chain.
func (l *Log) compactSegments(segs []SegmentInfo) error {
	scratch := storage.NewCatalog()
	var info CompactScratchInfo
	if n := l.opts.CompactPoolPages; n > 0 {
		// Bound the scratch replay: tuples page out to a throwaway temp
		// directory through a pool of n frames, so compacting a log whose
		// live set exceeds RAM holds O(pool) memory. The scratch heap files
		// go through the plain OS filesystem, not l.fs — they are not
		// durable state, and a crash mid-scratch-write is indistinguishable
		// from a crash before the snapshot rename.
		dir, err := os.MkdirTemp("", "youtopia-compact-")
		if err != nil {
			return fmt.Errorf("wal: compact: scratch dir: %w", err)
		}
		defer os.RemoveAll(dir) //nolint:errcheck // best-effort temp cleanup
		defer scratch.CloseSpill()
		if err := scratch.EnableSpill(dir, n, nil); err != nil {
			return fmt.Errorf("wal: compact: scratch spill: %w", err)
		}
		info.Pooled = true
	}
	a := NewApplier(scratch)
	open := make(map[uint64][]storage.LogRecord) // records of open transactions
	for _, s := range segs {
		d := decodeSegmentFile(l.fs, s)
		if d.err != nil {
			return fmt.Errorf("wal: compact: segment %s: %w", filepath.Base(s.Path), d.err)
		}
		if d.torn {
			return fmt.Errorf("wal: compact: sealed segment %s is torn", filepath.Base(s.Path))
		}
		for _, rec := range d.recs {
			if err := a.Apply(rec); err != nil {
				return fmt.Errorf("wal: compact: replay %s: %w", filepath.Base(s.Path), err)
			}
			switch {
			case rec.Op == storage.OpDropTable:
				// The dropped table takes an open transaction's rows with it;
				// carried past the drop they would land in a table re-created
				// under the same name.
				for id, recs := range open {
					open[id] = slices.DeleteFunc(recs, func(r storage.LogRecord) bool { return strings.EqualFold(r.Table, rec.Table) })
				}
			case rec.Txn == 0:
			case rec.Op == storage.OpCommit:
				delete(open, rec.Txn)
			default:
				open[rec.Txn] = append(open[rec.Txn], rec)
			}
		}
	}
	var carry []storage.LogRecord
	for _, id := range slices.Sorted(maps.Keys(open)) {
		carry = append(carry, open[id]...)
	}
	last := segs[len(segs)-1]
	size, err := writeSnapshotSegment(l.fs, l.dir, last.Seq, scratch, carry)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	if ps, ok := scratch.PoolStats(); ok {
		// Captured after the snapshot write — the point of peak scratch
		// pressure — as evidence the replay stayed within the pool bound.
		info.Frames = ps.Capacity
		info.Resident = ps.Resident
		info.HeapPages = ps.HeapPages
	}
	for _, s := range segs {
		if s.Seq == last.Seq {
			continue // replaced by the snapshot via rename
		}
		l.fs.Remove(s.Path) //nolint:errcheck // stale; recovery ignores leftovers
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return err
	}

	snap := SegmentInfo{
		Seq: last.Seq, Path: filepath.Join(l.dir, segName(last.Seq)),
		Bytes: size, Sealed: true, Snapshot: true,
	}
	l.mu.Lock()
	// Sealed segments may have accumulated behind us; replace only the
	// prefix we absorbed.
	var keep []SegmentInfo
	for _, s := range l.sealed {
		if s.Seq > last.Seq {
			keep = append(keep, s)
		}
	}
	l.sealed = append([]SegmentInfo{snap}, keep...)
	l.stats.Compacts++
	l.scratchInfo = info
	l.mu.Unlock()
	return nil
}

// CompactScratchInfo describes the scratch catalog of the most recent
// completed compaction: whether it ran with a bounded buffer pool, and how
// much of the replayed state was resident versus spilled when the snapshot
// was written. Tests use it to pin the O(pool) memory bound.
type CompactScratchInfo struct {
	Pooled    bool // scratch ran with CompactPoolPages frames
	Frames    int  // pool frames configured
	Resident  int  // frames holding a page after the snapshot write
	HeapPages int  // scratch heap pages spilled to the temp directory
}

// CompactScratch returns scratch-catalog telemetry from the last completed
// compaction (zero value if none has run).
func (l *Log) CompactScratch() CompactScratchInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.scratchInfo
}

// Sync flushes any pending batch and fsyncs the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	for l.flushing {
		l.cond.Wait()
	}
	if l.gen != nil {
		l.drainLocked()
	}
	if l.err != nil {
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		l.err = err
		return err
	}
	l.stats.Syncs++
	return nil
}

// Err returns the sticky write error (or the last background compaction
// failure), if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	return l.compactErr
}

// Close drains pending batches, fsyncs and closes the active segment, and
// waits for background compaction. The returned error includes any write
// error from the lifetime of the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrLogClosed
	}
	for l.flushing {
		l.cond.Wait()
	}
	if l.gen != nil {
		l.drainLocked()
	}
	l.closed = true
	l.bumpWatchLocked()
	err := l.err
	if l.f != nil {
		syncErr := l.f.Sync()
		closeErr := l.f.Close()
		if err == nil {
			err = syncErr
		}
		if err == nil {
			err = closeErr
		}
	}
	l.mu.Unlock()
	l.bg.Wait()
	if err == nil {
		err = l.compactErr
	}
	return err
}

// Stats returns a snapshot of the commit counters.
func (l *Log) Stats() CommitStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Segments lists the on-disk segments, sealed first, active last. Between an
// ingest seal and the next ingest open there is no active segment.
func (l *Log) Segments() []SegmentInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs := append([]SegmentInfo(nil), l.sealed...)
	if l.f == nil {
		return segs
	}
	return append(segs, SegmentInfo{
		Seq: l.seq, Path: filepath.Join(l.dir, segName(l.seq)), Bytes: l.size,
	})
}
