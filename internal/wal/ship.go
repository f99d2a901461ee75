package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/storage"
)

// This file is the log-shipping surface of the segmented WAL: everything the
// replication layer (internal/repl) needs to stream a primary's chain to a
// follower and to ingest that stream on the follower side.
//
// Shipping is physical: the follower stores byte-identical copies of the
// primary's segment files, so the primary's torn-tail recovery, snapshot
// pruning and handshake logic all apply unchanged to a follower's local
// chain. A follower resumes by presenting its chain end (TailInfo) and the
// primary answers with either "resume here" or "reset" — reset meaning the
// follower's position was compacted away (or diverged) and the whole current
// chain, starting at its leading snapshot segment, is re-shipped.

// Position addresses a byte in the log: a segment sequence number and an
// offset within that segment's file (header included).
type Position struct {
	Seq uint64
	Off int64
}

// Less orders positions by (segment, offset).
func (p Position) Less(q Position) bool {
	if p.Seq != q.Seq {
		return p.Seq < q.Seq
	}
	return p.Off < q.Off
}

// ErrWaitStopped reports that WaitSegment was aborted via its stop channel.
var ErrWaitStopped = errors.New("wal: wait stopped")

// Pin is a retention handle: while held, compaction will not absorb (and so
// never deletes or rewrites) any segment with sequence >= the pinned value.
// Each connected follower holds one, advanced as it acknowledges.
type Pin struct {
	l        *Log
	seq      uint64
	released bool
}

func (l *Log) retainLocked(seq uint64) *Pin {
	p := &Pin{l: l, seq: seq}
	l.pins = append(l.pins, p)
	return p
}

// Update advances the pin to seq; retention never moves backwards.
func (p *Pin) Update(seq uint64) {
	p.l.mu.Lock()
	if !p.released && seq > p.seq {
		p.seq = seq
	}
	p.l.maybeAutoCompactLocked()
	p.l.mu.Unlock()
}

// Release drops the pin, letting compaction reclaim the segments it covered.
func (p *Pin) Release() {
	p.l.mu.Lock()
	if !p.released {
		p.released = true
		pins := p.l.pins[:0]
		for _, q := range p.l.pins {
			if q != p {
				pins = append(pins, q)
			}
		}
		p.l.pins = pins
		p.l.maybeAutoCompactLocked()
	}
	p.l.mu.Unlock()
}

func (l *Log) minPinLocked() uint64 {
	m := ^uint64(0)
	for _, p := range l.pins {
		if p.seq < m {
			m = p.seq
		}
	}
	return m
}

// compactableLocked returns the sealed prefix compaction may absorb: only
// segments below every retention pin, and never a lone snapshot (absorbing
// it would rewrite the same sequence number with reordered bytes, breaking
// byte identity with followers that already copied it, for zero gain).
func (l *Log) compactableLocked() []SegmentInfo {
	limit := l.minPinLocked()
	var segs []SegmentInfo
	for _, s := range l.sealed {
		if s.Seq >= limit {
			break
		}
		segs = append(segs, s)
	}
	if len(segs) == 1 && segs[0].Snapshot {
		return nil
	}
	return segs
}

// bumpWatchLocked wakes every WaitSegment waiter. Called with mu held after
// any change to the shippable extent (size growth, seal, close, error).
func (l *Log) bumpWatchLocked() {
	if l.watch != nil {
		close(l.watch)
		l.watch = make(chan struct{})
	}
}

// End returns the current end of the log — the position just past the last
// written byte of the active (or, mid-ingest-gap, last sealed) segment.
func (l *Log) End() Position {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Position{Seq: l.seq, Off: l.size}
}

// TailInfo returns the follower's resume position (its chain end) and
// whether the segment that position points into is a snapshot segment — the
// pair a follower presents when handshaking with a primary.
func (l *Log) TailInfo() (Position, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		if n := len(l.sealed); n > 0 {
			s := l.sealed[n-1]
			return Position{Seq: s.Seq, Off: s.Bytes}, s.Snapshot
		}
		return Position{}, false
	}
	return Position{Seq: l.seq, Off: l.size}, l.ingestSnap
}

// SegmentStatus reports the shippable extent of segment seq: its current
// size, flags, and whether it (still) exists in the chain.
func (l *Log) SegmentStatus(seq uint64) (SegmentInfo, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segmentStatusLocked(seq)
}

func (l *Log) segmentStatusLocked(seq uint64) (SegmentInfo, bool) {
	if l.f != nil && seq == l.seq {
		path := filepath.Join(l.dir, segName(seq))
		if l.ingestTmp != "" {
			path = l.ingestTmp
		}
		return SegmentInfo{Seq: seq, Path: path, Bytes: l.size, Snapshot: l.ingestSnap}, true
	}
	for _, s := range l.sealed {
		if s.Seq == seq {
			return s, true
		}
	}
	return SegmentInfo{}, false
}

// WaitSegment blocks until segment seq has bytes past off, is sealed, or is
// gone from the chain — i.e. until a shipper parked at (seq, off) has
// something to do. stop aborts the wait with ErrWaitStopped.
func (l *Log) WaitSegment(seq uint64, off int64, stop <-chan struct{}) error {
	l.mu.Lock()
	for {
		if l.err != nil {
			err := l.err
			l.mu.Unlock()
			return err
		}
		if l.closed {
			l.mu.Unlock()
			return ErrLogClosed
		}
		s, ok := l.segmentStatusLocked(seq)
		if !ok || s.Sealed || s.Bytes > off {
			l.mu.Unlock()
			return nil
		}
		ch := l.watch
		l.mu.Unlock()
		select {
		case <-ch:
		case <-stop:
			return ErrWaitStopped
		}
		l.mu.Lock()
	}
}

// ShipHandshake resolves a follower's resume position against the current
// chain. It returns the chain suffix to ship (the whole chain on reset), a
// retention pin covering it, and whether the follower must discard its state
// first. Reset triggers when the follower's segment was compacted away, when
// compaction replaced the bytes at that sequence (snapshot-flag mismatch or
// an offset past our copy), or when the follower is ahead of us. The pin is
// taken under the same lock that inspects the chain, so compaction cannot
// invalidate the plan before shipping starts.
func (l *Log) ShipHandshake(pos Position, tailSnapshot bool) (segs []SegmentInfo, pin *Pin, reset bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, nil, false, ErrLogClosed
	}
	if l.err != nil {
		return nil, nil, false, l.err
	}
	chain := append([]SegmentInfo(nil), l.sealed...)
	chain = append(chain, SegmentInfo{
		Seq: l.seq, Path: filepath.Join(l.dir, segName(l.seq)), Bytes: l.size,
	})
	reset = true
	start := 0
	for i, s := range chain {
		if s.Seq != pos.Seq {
			continue
		}
		if s.Snapshot == tailSnapshot && pos.Off >= segHeaderLen && pos.Off <= s.Bytes {
			reset, start = false, i
		}
		break
	}
	if reset {
		start = 0
	}
	segs = chain[start:]
	pin = l.retainLocked(segs[0].Seq)
	return segs, pin, reset, nil
}

// FS returns the filesystem the log runs on (shippers read segment bytes
// through it so fault injection covers the read path too).
func (l *Log) FS() FS { return l.fs }

// CutFrames returns the length of the longest whole-frame prefix of data and
// the number of record frames in it. atStart marks data as beginning at
// segment offset 0, where the 8-byte segment header precedes the first frame.
// Shippers cut every chunk this way, so what goes over the wire — and onto
// the follower's disk — always ends at a frame boundary.
func CutFrames(data []byte, atStart bool) (n int, records int) {
	off := 0
	if atStart {
		if len(data) < segHeaderLen {
			return 0, 0
		}
		off = segHeaderLen
	}
	for {
		if len(data)-off < 8 {
			return off, records
		}
		ln := int(binary.LittleEndian.Uint32(data[off:]))
		if ln <= 0 || ln > maxRecordLen || len(data)-off-8 < ln {
			return off, records
		}
		off += 8 + ln
		records++
	}
}

// DecodeShipped decodes a shipped chunk of whole frames into records,
// stripping and validating the segment header when the chunk starts the
// segment. Shippers only send whole frames, so a chunk that does not decode
// exactly is a protocol violation, not a torn tail.
func DecodeShipped(data []byte, atStart bool) ([]storage.LogRecord, error) {
	if atStart {
		if len(data) < segHeaderLen {
			return nil, fmt.Errorf("wal: shipped chunk shorter than the segment header")
		}
		if _, err := parseSegHeader(data); err != nil {
			return nil, err
		}
		data = data[segHeaderLen:]
	}
	recs, good, torn, err := decodeRecords(data)
	if err != nil {
		return nil, err
	}
	if torn || good != len(data) {
		return nil, fmt.Errorf("wal: shipped chunk not frame-aligned (%d of %d bytes decoded)", good, len(data))
	}
	return recs, nil
}

// IngestReset discards the entire chain — every segment file, staging file,
// and the active tail — leaving the log empty and ready to receive a full
// re-ship. The follower's catalog must be reset alongside (Applier.Reset).
func (l *Log) IngestReset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	if l.f != nil {
		l.f.Close() //nolint:errcheck // contents are being discarded
		l.f = nil
	}
	ents, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		_, seg := parseSegName(name)
		if !seg && !strings.HasSuffix(name, ".tmp") {
			continue
		}
		if err := l.fs.Remove(filepath.Join(l.dir, name)); err != nil {
			return err
		}
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return err
	}
	l.sealed = nil
	l.seq, l.size = 0, 0
	l.ingestTmp, l.ingestSnap = "", false
	l.err = nil // the old chain's sticky error dies with the old chain
	l.bumpWatchLocked()
	return nil
}

// IngestOpen starts receiving segment seq as the new tail. Snapshot segments
// are staged under a temp name and published by IngestSeal's rename, so a
// crash mid-transfer can never leave a torn snapshot at a real segment path
// (recovery replays a snapshot in place of everything older, so it must only
// ever see complete ones).
func (l *Log) IngestOpen(seq uint64, snapshot bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	if l.f != nil {
		return fmt.Errorf("wal: ingest open %d: segment %d still active", seq, l.seq)
	}
	if n := len(l.sealed); n > 0 && seq <= l.sealed[n-1].Seq {
		return fmt.Errorf("wal: ingest open %d: not past the sealed chain (last %d)", seq, l.sealed[n-1].Seq)
	}
	path := filepath.Join(l.dir, segName(seq))
	tmp := ""
	if snapshot {
		tmp = path + ".tmp"
		path = tmp
	}
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	l.f, l.seq, l.size = f, seq, 0
	l.ingestTmp, l.ingestSnap = tmp, snapshot
	l.bumpWatchLocked()
	return nil
}

// IngestWrite appends shipped bytes at off, which must equal the current
// segment size (the shipper and follower track the same stream position).
// The caller only hands over whole decoded frames, so the on-disk tail
// always ends at a frame boundary and a reconnect can resume byte-exactly.
func (l *Log) IngestWrite(off int64, data []byte) error {
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
	f := l.f
	if f == nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: ingest write: no active segment")
	}
	if off != l.size {
		l.mu.Unlock()
		return fmt.Errorf("wal: ingest write at offset %d, segment is at %d", off, l.size)
	}
	l.mu.Unlock()
	// WriteAt (plus repositioning for any post-promotion appends) keeps a
	// retried chunk self-healing after an injected short write.
	_, werr := f.WriteAt(data, off)
	if werr == nil {
		_, werr = f.Seek(off+int64(len(data)), 0)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if werr != nil {
		if l.err == nil {
			l.err = werr
		}
		return werr
	}
	l.size = off + int64(len(data))
	l.bumpWatchLocked()
	return nil
}

// IngestSeal makes the active ingested segment durable and seals it,
// renaming a staged snapshot into place. The log is left with no active
// segment until the next IngestOpen. Sealing when nothing is active is a
// no-op (a reconnecting shipper may re-announce a seal the follower already
// performed).
func (l *Log) IngestSeal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	path := filepath.Join(l.dir, segName(l.seq))
	if err == nil && l.ingestTmp != "" {
		err = l.fs.Rename(l.ingestTmp, path)
	}
	if err == nil {
		err = l.fs.SyncDir(l.dir)
	}
	if err != nil {
		if l.err == nil {
			l.err = err
		}
		return err
	}
	l.sealed = append(l.sealed, SegmentInfo{
		Seq: l.seq, Path: path, Bytes: l.size, Sealed: true, Snapshot: l.ingestSnap,
	})
	l.f = nil
	l.ingestTmp, l.ingestSnap = "", false
	l.stats.Rotations++
	l.bumpWatchLocked()
	return nil
}

// EnsureActive guarantees an open, appendable active segment. Promotion
// calls it: a follower stopped between IngestSeal and IngestOpen has no tail
// to append to. It refuses while a snapshot transfer is staged — promoting
// mid-reset would seal a half-copied database.
func (l *Log) EnsureActive() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	if l.err != nil {
		return l.err
	}
	if l.f != nil {
		if l.ingestTmp != "" {
			return fmt.Errorf("wal: snapshot transfer incomplete; cannot promote")
		}
		return nil
	}
	next := uint64(1)
	if n := len(l.sealed); n > 0 {
		next = l.sealed[n-1].Seq + 1
	}
	return l.createSegment(next)
}
