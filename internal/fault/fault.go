// Package fault is the deterministic fault-injection seam for the
// replication stack: a wal.FS wrapper that scripts write errors, short
// writes and dead disks at exact operation boundaries, and a net dialer
// wrapper that scripts connection refusals, cuts and delays.
//
// Faults are armed explicitly by the test driving the scenario — nothing
// fires probabilistically — so every failure lands at a chosen byte boundary
// and a scenario replays identically from its seed.
package fault

import (
	"errors"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/storage"
	"repro/internal/wal"
)

// ErrInjected is the default error injected faults surface.
var ErrInjected = errors.New("fault: injected failure")

// FS wraps an inner wal.FS. With no faults armed it is transparent.
type FS struct {
	inner wal.FS

	mu         sync.Mutex
	dead       bool          // every operation fails (disk gone / process killed)
	failWrites int           // fail this many upcoming writes, then disarm
	shortNext  int           // next write persists only this many bytes, then fails
	err        error         // error injected faults return
	delayReads time.Duration // sleep applied to every file ReadAt
	writes     uint64
	reads      uint64
	syncs      uint64
}

// NewFS wraps inner; pass wal.OSFS() for a faultable real filesystem.
func NewFS(inner wal.FS) *FS { return &FS{inner: inner, err: ErrInjected} }

// FailWrites arms the next n file writes (Write/WriteAt, any file) to fail
// without persisting anything.
func (f *FS) FailWrites(n int) {
	f.mu.Lock()
	f.failWrites = n
	f.mu.Unlock()
}

// ShortWrite arms the next file write to persist only n bytes of its buffer
// and then fail — the torn-write shape a crash mid-write leaves behind.
func (f *FS) ShortWrite(n int) {
	f.mu.Lock()
	f.shortNext = n + 1 // +1 so a 0-byte short write is distinguishable from disarmed
	f.mu.Unlock()
}

// Kill makes every subsequent operation fail, simulating the instant after a
// kill -9: whatever reached the disk stays, nothing else ever will.
func (f *FS) Kill() {
	f.mu.Lock()
	f.dead = true
	f.mu.Unlock()
}

// DelayReads arms a fixed delay on every subsequent file ReadAt, modelling
// a slow or contended disk. The sleep happens outside the FS mutex, so only
// the reading goroutine stalls — which is exactly what the buffer pool's
// latched-miss protocol is meant to tolerate. Zero disarms.
func (f *FS) DelayReads(d time.Duration) {
	f.mu.Lock()
	f.delayReads = d
	f.mu.Unlock()
}

// Reads returns the number of file ReadAt calls observed.
func (f *FS) Reads() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads
}

// Writes returns the number of file write calls observed.
func (f *FS) Writes() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes
}

// HeapFS adapts the faultable filesystem to the storage layer's heap-file
// seam, so buffer-pool tests can script slow and dead disks under spilled
// tables with the same FS that faults the WAL.
func (f *FS) HeapFS() storage.HeapFS { return heapFS{f} }

type heapFS struct{ fs *FS }

func (h heapFS) OpenFile(name string, flag int, perm os.FileMode) (storage.HeapFile, error) {
	return h.fs.OpenFile(name, flag, perm)
}
func (h heapFS) Remove(name string) error                     { return h.fs.Remove(name) }
func (h heapFS) MkdirAll(path string, perm os.FileMode) error { return h.fs.MkdirAll(path, perm) }

// checkOp gates a non-write operation.
func (f *FS) checkOp() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return f.err
	}
	return nil
}

// checkWrite gates a write of length n, returning how many bytes to persist
// and the error to report (short == n, err == nil means write normally).
func (f *FS) checkWrite(n int) (short int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes++
	if f.dead {
		return 0, f.err
	}
	if f.shortNext > 0 {
		short = f.shortNext - 1
		f.shortNext = 0
		if short > n {
			short = n
		}
		return short, f.err
	}
	if f.failWrites > 0 {
		f.failWrites--
		return 0, f.err
	}
	return n, nil
}

func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	if err := f.checkOp(); err != nil {
		return nil, err
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

func (f *FS) ReadFile(name string) ([]byte, error) {
	if err := f.checkOp(); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

func (f *FS) ReadDir(name string) ([]os.DirEntry, error) {
	if err := f.checkOp(); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

func (f *FS) Rename(oldpath, newpath string) error {
	if err := f.checkOp(); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FS) Remove(name string) error {
	if err := f.checkOp(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FS) MkdirAll(path string, perm os.FileMode) error {
	if err := f.checkOp(); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FS) SyncDir(dir string) error {
	if err := f.checkOp(); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

type faultFile struct {
	fs    *FS
	inner wal.File
}

func (f *faultFile) Write(p []byte) (int, error) {
	short, err := f.fs.checkWrite(len(p))
	if err != nil {
		n, _ := f.inner.Write(p[:short])
		return n, err
	}
	return f.inner.Write(p)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	short, err := f.fs.checkWrite(len(p))
	if err != nil {
		n, _ := f.inner.WriteAt(p[:short], off)
		return n, err
	}
	return f.inner.WriteAt(p, off)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	f.fs.reads++
	dead := f.fs.dead
	delay := f.fs.delayReads
	f.fs.mu.Unlock()
	if dead {
		return 0, f.fs.err
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	return f.inner.ReadAt(p, off)
}

func (f *faultFile) Sync() error {
	if err := f.fs.checkOp(); err != nil {
		return err
	}
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.mu.Unlock()
	return f.inner.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if err := f.fs.checkOp(); err != nil {
		return err
	}
	return f.inner.Truncate(size)
}

func (f *faultFile) Seek(offset int64, whence int) (int64, error) {
	// Seek is position bookkeeping, not I/O; a dead disk still tracks it so
	// recovery code paths that reposition before failing stay deterministic.
	return f.inner.Seek(offset, whence)
}

func (f *faultFile) Close() error { return f.inner.Close() }

// Dialer scripts network faults for outbound connections (the follower →
// primary replication link and the retry/backoff client use one).
type Dialer struct {
	mu      sync.Mutex
	blocked bool
	delay   time.Duration // imposed on every Read, simulating a slow link
	conns   map[*faultConn]struct{}
	dials   uint64
}

// NewDialer returns a transparent dialer; arm faults as the scenario needs.
func NewDialer() *Dialer { return &Dialer{conns: make(map[*faultConn]struct{})} }

// Dial opens a connection unless the dialer is partitioned.
func (d *Dialer) Dial(network, addr string) (net.Conn, error) {
	d.mu.Lock()
	d.dials++
	if d.blocked {
		d.mu.Unlock()
		return nil, ErrInjected
	}
	d.mu.Unlock()
	c, err := net.DialTimeout(network, addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	fc := &faultConn{Conn: c, d: d}
	d.mu.Lock()
	if d.blocked { // partition raced the dial; the link never comes up
		d.mu.Unlock()
		c.Close()
		return nil, ErrInjected
	}
	d.conns[fc] = struct{}{}
	d.mu.Unlock()
	return fc, nil
}

// Partition blocks new dials and severs every live connection.
func (d *Dialer) Partition() {
	d.mu.Lock()
	d.blocked = true
	for c := range d.conns {
		c.Conn.Close()
	}
	d.conns = make(map[*faultConn]struct{})
	d.mu.Unlock()
}

// Heal lifts the partition; the next dial succeeds again.
func (d *Dialer) Heal() {
	d.mu.Lock()
	d.blocked = false
	d.mu.Unlock()
}

// CutAll severs live connections without blocking redials — the transient
// connection-drop fault.
func (d *Dialer) CutAll() {
	d.mu.Lock()
	for c := range d.conns {
		c.Conn.Close()
	}
	d.conns = make(map[*faultConn]struct{})
	d.mu.Unlock()
}

// SetDelay imposes a fixed delay on every read on every connection.
func (d *Dialer) SetDelay(delay time.Duration) {
	d.mu.Lock()
	d.delay = delay
	d.mu.Unlock()
}

// Dials returns the number of dial attempts observed.
func (d *Dialer) Dials() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials
}

type faultConn struct {
	net.Conn
	d *Dialer
}

func (c *faultConn) Read(p []byte) (int, error) {
	c.d.mu.Lock()
	delay := c.d.delay
	c.d.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Close() error {
	c.d.mu.Lock()
	delete(c.d.conns, c)
	c.d.mu.Unlock()
	return c.Conn.Close()
}
