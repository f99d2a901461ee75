package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/value"
)

// A heapFile is the paged backing store of one spillable table: a sequence
// of PageSize pages under the catalog's pages directory. Records are placed
// into an in-memory tail page; when the next record does not fit, the tail
// is sealed — handed to the buffer pool as a dirty frame (or written
// straight to disk when every frame is pinned) — and a fresh tail begins.
// A sealed page's bytes are immutable for as long as any reference into it
// can exist; once every slot on it is dead the page is reclaimed onto the
// free list and eventually reused by the tail allocator (see below).
//
// The heap is SCRATCH, not a recovery source: the WAL remains the single
// durable truth, and startup truncates and rebuilds every heap by replaying
// the newest snapshot segment plus the log tail through the ordinary insert
// path. That keeps the PR-3 crash-safety story (and the PR-7 replication
// retention contract) byte-for-byte unchanged — a torn heap page after
// kill -9 is simply thrown away.
//
// Concurrency: place is called only under the owning table's exclusive
// latch, so the tail mutates single-threadedly. Readers resolve a pageRef
// with load, possibly holding no table latch at all (ScanAt and GetRefAt
// decode after unlatching): that is safe because refs are captured under a
// shared latch, sealed pages stay immutable while referenced, and the
// current tail is published through an atomic pointer whose buffer is never
// mutated after sealing — an in-flight reader keeps decoding a superseded
// tail buffer while the writer fills a fresh one.
//
// Space reclamation: every page tracks how many records were placed on it
// and how many are still referenced by some version chain (live). Slots die
// when a spilled version is materialized back, pruned by GC, or rewritten
// by the page compactor; when a sealed page's live count hits zero it moves
// to the free list and the tail allocator reuses it instead of growing the
// file. Reuse is gated on the readers counter: a latchless reader
// increments it (under the shared latch, BEFORE capturing refs) and
// decrements it after decoding, so a page is never rewritten while a stale
// ref into it might still be resolved — when readers are present the
// allocator simply grows the file as before.
type heapFile struct {
	name string // canonical table name (diagnostics, stats)
	path string
	f    HeapFile
	pool *Pool
	// id feeds the pool's shard hash, so two heaps' pages with equal numbers
	// land on different shards.
	id uint64

	// tail is the page currently accepting records. Swapped (never mutated
	// in place: the buffer of a sealed tail is left behind for late readers)
	// under the owning table's exclusive latch.
	tail atomic.Pointer[tailPage]

	payload []byte // AppendTuple scratch; guarded by the table's latch
	rec     []byte // record scratch; guarded by the table's latch

	// readers counts latchless readers currently holding captured refs (see
	// the type comment). Incremented under the table's shared latch, checked
	// by the tail allocator under the exclusive latch.
	readers atomic.Int64

	// statsMu guards the reclamation bookkeeping below. All mutation happens
	// under the owning table's exclusive latch; the mutex exists so PoolStats
	// can read a consistent snapshot from other goroutines.
	statsMu   sync.Mutex
	pageStats []pageStat // indexed by page number
	free      []uint32   // fully-dead sealed pages awaiting reuse
	maxPage   uint32     // highest page number ever allocated
	deadSlots uint64     // dead records still occupying allocated pages
	reclaimed uint64     // pages ever moved to the free list, cumulative
}

// pageStat is one page's slot accounting: how many records were placed on
// it, and how many are still referenced by a version chain.
type pageStat struct {
	placed int32
	live   int32
}

// heapIDs hands each heapFile a distinct shard-hash identity.
var heapIDs atomic.Uint64

type tailPage struct {
	no  uint32
	buf []byte
}

func newTailPage(no uint32) *tailPage {
	tp := &tailPage{no: no, buf: make([]byte, PageSize)}
	setPageUsed(tp.buf, pageHeaderLen)
	return tp
}

// HeapFile is the I/O surface a heap needs from its backing file.
type HeapFile interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
}

// HeapFS abstracts the filesystem heap files live on — the seam
// fault-injection tests and the WAL compaction scratch use to instrument or
// bound heap I/O. The zero default is the real OS filesystem.
type HeapFS interface {
	OpenFile(name string, flag int, perm os.FileMode) (HeapFile, error)
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
}

type osHeapFS struct{}

func (osHeapFS) OpenFile(name string, flag int, perm os.FileMode) (HeapFile, error) {
	return os.OpenFile(name, flag, perm)
}
func (osHeapFS) Remove(name string) error                     { return os.Remove(name) }
func (osHeapFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func openHeapFile(fs HeapFS, dir, name string, pool *Pool) (*heapFile, error) {
	path := filepath.Join(dir, name+".heap")
	// O_TRUNC: heaps never carry state across process lifetimes (see above).
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open heap for table %s: %w", name, err)
	}
	h := &heapFile{name: name, path: path, f: f, pool: pool, id: heapIDs.Add(1)}
	h.tail.Store(newTailPage(0))
	h.pageStats = make([]pageStat, 1)
	return h, nil
}

func (h *heapFile) writePage(no uint32, buf []byte) error {
	_, err := h.f.WriteAt(buf, int64(no)*PageSize)
	return err
}

func (h *heapFile) readPage(no uint32, buf []byte) error {
	_, err := h.f.ReadAt(buf, int64(no)*PageSize)
	return err
}

// usedPages returns the number of pages currently holding data (sealed pages
// with live or not-yet-reclaimed records, plus the tail); freePages returns
// the reclaimed pages awaiting reuse.
func (h *heapFile) usedPages() (used, free int) {
	h.statsMu.Lock()
	defer h.statsMu.Unlock()
	return int(h.maxPage) + 1 - len(h.free), len(h.free)
}

// reclaimStats returns the heap's dead-slot and reclaimed-page counters.
func (h *heapFile) reclaimStats() (dead, reclaimed uint64) {
	h.statsMu.Lock()
	defer h.statsMu.Unlock()
	return h.deadSlots, h.reclaimed
}

// nextTailNo allocates the page number for a fresh tail: a reclaimed page
// from the free list when no latchless reader could still resolve a stale
// ref into it (the readers gate), else a brand-new page. Called under the
// owning table's exclusive latch. A reused page is discarded from the pool
// first so no stale frame survives.
func (h *heapFile) nextTailNo() uint32 {
	h.statsMu.Lock()
	if len(h.free) > 0 && h.readers.Load() == 0 {
		no := h.free[len(h.free)-1]
		h.free = h.free[:len(h.free)-1]
		h.pageStats[no] = pageStat{}
		h.statsMu.Unlock()
		h.pool.discardPage(h, no)
		return no
	}
	h.maxPage++
	no := h.maxPage
	for uint32(len(h.pageStats)) <= no {
		h.pageStats = append(h.pageStats, pageStat{})
	}
	h.statsMu.Unlock()
	return no
}

// slotPlaced records a new live record on the page. Called under the owning
// table's exclusive latch (from place).
func (h *heapFile) slotPlaced(no uint32) {
	h.statsMu.Lock()
	h.pageStats[no].placed++
	h.pageStats[no].live++
	h.statsMu.Unlock()
}

// slotDied records that a spilled record on the page is no longer referenced
// by any version chain — it was materialized back into memory, pruned by
// GC, or rewritten by the compactor. When the last live record of a sealed
// page dies, the page moves to the free list (its dead slots stop counting:
// the space is reusable). Called under the owning table's exclusive latch.
func (h *heapFile) slotDied(no uint32) {
	h.statsMu.Lock()
	ps := &h.pageStats[no]
	ps.live--
	h.deadSlots++
	if ps.live <= 0 && no != h.tail.Load().no {
		h.deadSlots -= uint64(ps.placed)
		*ps = pageStat{}
		h.free = append(h.free, no)
		h.reclaimed++
	}
	h.statsMu.Unlock()
}

// maybeFreeSealed frees a just-sealed page whose every slot already died
// while it was still the tail (slotDied skips the active tail, and the
// compactor skips fully-dead pages because they free themselves — this is
// the one window both would miss). Called under the owning table's exclusive
// latch, after the new tail is published.
func (h *heapFile) maybeFreeSealed(no uint32) {
	h.statsMu.Lock()
	ps := &h.pageStats[no]
	if ps.placed > 0 && ps.live <= 0 && no != h.tail.Load().no {
		h.deadSlots -= uint64(ps.placed)
		*ps = pageStat{}
		h.free = append(h.free, no)
		h.reclaimed++
	}
	h.statsMu.Unlock()
}

// compactionVictims returns the sealed pages worth rewriting: at least half
// their records are dead but some are still live (fully-dead pages free
// themselves in slotDied). Called under the owning table's exclusive latch.
func (h *heapFile) compactionVictims() map[uint32]bool {
	tailNo := h.tail.Load().no
	h.statsMu.Lock()
	defer h.statsMu.Unlock()
	var victims map[uint32]bool
	for no, ps := range h.pageStats {
		if uint32(no) == tailNo || ps.placed == 0 || ps.live <= 0 || ps.live*2 > ps.placed {
			continue
		}
		if victims == nil {
			victims = make(map[uint32]bool)
		}
		victims[uint32(no)] = true
	}
	return victims
}

// place appends the tuple's record to the heap and returns its ref. Called
// only under the owning table's exclusive latch. ErrTupleTooLarge means the
// record cannot fit any page; the caller keeps the tuple resident instead.
func (h *heapFile) place(id RowID, tup value.Tuple) (pageRef, error) {
	h.payload = AppendTuple(h.payload[:0], tup)
	h.rec = appendHeapRecord(h.rec[:0], id, h.payload)
	if len(h.rec) > maxRecordLen {
		return pageRef{}, fmt.Errorf("%w: %d bytes encoded, page holds %d", ErrTupleTooLarge, len(h.rec), maxRecordLen)
	}
	tp := h.tail.Load()
	used := pageUsed(tp.buf)
	if used+len(h.rec) > PageSize {
		if err := h.seal(tp); err != nil {
			return pageRef{}, err
		}
		sealed := tp.no
		tp = newTailPage(h.nextTailNo())
		used = pageHeaderLen
		h.tail.Store(tp)
		h.maybeFreeSealed(sealed)
	}
	copy(tp.buf[used:], h.rec)
	setPageUsed(tp.buf, used+len(h.rec))
	setPageCount(tp.buf, pageCount(tp.buf)+1)
	h.slotPlaced(tp.no)
	return pageRef{page: tp.no, off: uint16(used), n: uint16(len(h.rec))}, nil
}

// seal hands a full tail page to the buffer pool as a dirty resident frame;
// when the pool has no evictable frame, the page bypasses it straight to
// disk (reads fall back symmetrically), so an exhausted pool degrades
// throughput instead of failing writes.
func (h *heapFile) seal(tp *tailPage) error {
	err := h.pool.adopt(h, tp.no, tp.buf)
	if err == nil {
		return nil
	}
	if err == ErrPoolExhausted {
		return h.writePage(tp.no, tp.buf)
	}
	return err
}

// load resolves a ref to its decoded tuple. Safe without the table latch for
// refs covered by the readers gate (see the type comment). Misses read
// through the buffer pool; when the pool is exhausted the page is read
// unbuffered instead — by the time a sealed page is absent from the pool it
// has been written back, so the disk copy is current.
func (h *heapFile) load(ref pageRef) (value.Tuple, error) {
	tp := h.tail.Load()
	if ref.page == tp.no {
		return decodeRefRecord(tp.buf, ref)
	}
	f, err := h.pool.fetch(h, ref.page)
	if err == ErrPoolExhausted {
		buf := make([]byte, PageSize)
		if rerr := h.readPage(ref.page, buf); rerr != nil {
			return nil, rerr
		}
		return decodeRefRecord(buf, ref)
	}
	if err != nil {
		return nil, err
	}
	tup, derr := decodeRefRecord(f.buf, ref)
	h.pool.unpin(f)
	return tup, derr
}

func decodeRefRecord(page []byte, ref pageRef) (value.Tuple, error) {
	if int(ref.off)+int(ref.n) > len(page) {
		return nil, fmt.Errorf("storage: heap ref out of page bounds (off %d, n %d)", ref.off, ref.n)
	}
	_, tup, err := decodeHeapRecord(page[ref.off : int(ref.off)+int(ref.n)])
	return tup, err
}

// heapMustLoad resolves a ref or panics: heap files are engine-managed
// scratch on a local disk, so a failed load means lost internal state — the
// same invariant class as a corrupted in-memory chain, not a user error the
// read API could meaningfully return.
func heapMustLoad(h *heapFile, ref pageRef) value.Tuple {
	if h == nil {
		panic("storage: spilled version without a heap (table detached mid-read?)")
	}
	tup, err := h.load(ref)
	if err != nil {
		panic(fmt.Sprintf("storage: heap load for table %s failed: %v", h.name, err))
	}
	return tup
}

// spillState is a catalog's paging policy and machinery: the shared buffer
// pool, the pages directory, the set of relations pinned fully in memory,
// and the open heap files.
type spillState struct {
	dir  string
	pool *Pool
	fs   HeapFS

	mu     sync.Mutex
	pinned map[string]bool
	heaps  map[string]*heapFile
	// closed heaps are unlinked immediately but their descriptors stay open
	// until CloseSpill, so a reader that captured a ref just before a drop or
	// pin-resident detach still resolves it (POSIX unlink semantics).
	graveyard []*heapFile
}

func (sp *spillState) isPinned(key string) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.pinned[key]
}

func (sp *spillState) open(key string) (*heapFile, error) {
	h, err := openHeapFile(sp.fs, sp.dir, key, sp.pool)
	if err != nil {
		return nil, err
	}
	sp.mu.Lock()
	sp.heaps[key] = h
	sp.mu.Unlock()
	return h, nil
}

// retire unlinks a heap (table dropped or pinned resident) while keeping its
// descriptor readable until CloseSpill.
func (sp *spillState) retire(key string) {
	sp.mu.Lock()
	h := sp.heaps[key]
	if h != nil {
		delete(sp.heaps, key)
		sp.graveyard = append(sp.graveyard, h)
	}
	sp.mu.Unlock()
	if h != nil {
		sp.pool.invalidate(h)
		sp.fs.Remove(h.path) //nolint:errcheck // scratch; best effort
	}
}

// SpillOptions configures disk-backed paged storage for a catalog.
type SpillOptions struct {
	Dir        string   // pages directory (created if absent)
	PoolPages  int      // buffer pool frames (minimum 1)
	PoolShards int      // pool shards; 0 picks min(GOMAXPROCS, pages/8), at least 1
	Pinned     []string // relations kept fully resident by policy
	FS         HeapFS   // heap filesystem; nil uses the OS
}

// EnableSpill turns on disk-backed paged storage for the catalog: tables
// created from now on spill their committed tuples to heap files under dir
// through a buffer pool of poolPages frames — except relations named in
// pinned (and any later marked via PinResident), which stay fully resident.
// Must be called on an empty catalog, before recovery replays any table.
func (c *Catalog) EnableSpill(dir string, poolPages int, pinned []string) error {
	return c.EnableSpillOpts(SpillOptions{Dir: dir, PoolPages: poolPages, Pinned: pinned})
}

// EnableSpillOpts is EnableSpill with the full option set (shard count,
// filesystem seam).
func (c *Catalog) EnableSpillOpts(o SpillOptions) error {
	if c.spill != nil {
		return fmt.Errorf("storage: spill already enabled (dir %s)", c.spill.dir)
	}
	c.mu.RLock()
	populated := len(c.tables) > 0
	c.mu.RUnlock()
	if populated {
		return fmt.Errorf("storage: EnableSpill requires an empty catalog")
	}
	fs := o.FS
	if fs == nil {
		fs = osHeapFS{}
	}
	if err := fs.MkdirAll(o.Dir, 0o755); err != nil {
		return fmt.Errorf("storage: create pages directory: %w", err)
	}
	sp := &spillState{
		dir:    o.Dir,
		pool:   NewPoolShards(o.PoolPages, o.PoolShards),
		fs:     fs,
		pinned: make(map[string]bool, len(o.Pinned)),
		heaps:  make(map[string]*heapFile),
	}
	for _, name := range o.Pinned {
		sp.pinned[canonical(name)] = true
	}
	c.spill = sp
	return nil
}

// PinResident marks a relation as fully in-memory — the policy knob that
// keeps hot coordination relations (answer relations pin themselves through
// this) out of the page path. If the table already exists with spilled
// versions, they are materialized back into memory and its heap is retired.
func (c *Catalog) PinResident(name string) {
	sp := c.spill
	if sp == nil {
		return
	}
	key := canonical(name)
	sp.mu.Lock()
	sp.pinned[key] = true
	sp.mu.Unlock()
	c.mu.RLock()
	t := c.tables[key]
	c.mu.RUnlock()
	if t != nil && t.detachHeap() {
		sp.retire(key)
	}
}

// detachHeap materializes every spilled version and drops the table's heap
// reference; returns whether there was one. After it returns, no reader can
// capture a new ref into the heap (writes and captures both require t.mu).
// Slot accounting is skipped: the whole heap is being retired.
func (t *Table) detachHeap() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.heap == nil {
		return false
	}
	t.eachVersion(func(_ RowID, v *version) {
		if v.tup == nil {
			v.tup = heapMustLoad(t.heap, v.ref)
		}
	})
	t.heap = nil
	return true
}

// FlushPool writes every dirty buffered page back to disk — the checkpoint
// hook the WAL compaction path drives. No-op without spill enabled.
func (c *Catalog) FlushPool() error {
	if c.spill == nil {
		return nil
	}
	return c.spill.pool.FlushDirty()
}

// PoolStats reports the buffer pool and heap footprint, or false when spill
// is not enabled.
func (c *Catalog) PoolStats() (PoolStats, bool) {
	sp := c.spill
	if sp == nil {
		return PoolStats{}, false
	}
	stats := sp.pool.Stats()
	sp.mu.Lock()
	stats.SpilledTables = len(sp.heaps)
	stats.PinnedTables = len(sp.pinned)
	for name, h := range sp.heaps {
		used, free := h.usedPages()
		dead, reclaimed := h.reclaimStats()
		stats.HeapPages += used
		stats.FreePages += free
		stats.DeadSlots += dead
		stats.ReclaimedPages += reclaimed
		stats.Tables = append(stats.Tables, PoolTableInfo{
			Name: name, Pages: used, FreePages: free, DeadSlots: dead,
		})
	}
	sp.mu.Unlock()
	sort.Slice(stats.Tables, func(i, j int) bool { return stats.Tables[i].Name < stats.Tables[j].Name })
	return stats, true
}

// CloseSpill closes every heap file (live and retired). The owning system
// calls it on shutdown; the catalog must not be used for spillable reads
// afterwards.
func (c *Catalog) CloseSpill() {
	sp := c.spill
	if sp == nil {
		return
	}
	sp.mu.Lock()
	heaps := make([]*heapFile, 0, len(sp.heaps)+len(sp.graveyard))
	for _, h := range sp.heaps {
		heaps = append(heaps, h)
	}
	heaps = append(heaps, sp.graveyard...)
	sp.graveyard = nil
	sp.mu.Unlock()
	for _, h := range heaps {
		h.f.Close() //nolint:errcheck // scratch files; nothing to preserve
	}
}
