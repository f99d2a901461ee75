// Package storage implements the in-memory relational storage engine that
// Youtopia's execution engine and coordination component read and write.
//
// It provides named tables with typed schemas, optional primary keys, hash
// indexes for equality lookups, and multi-version concurrency control:
// every row is a chain of timestamped versions (see mvcc.go), so readers
// resolve a consistent snapshot without blocking writers and writers never
// block readers. Transactional semantics — write locking, undo, snapshot
// pinning, first-committer-wins retry — are layered on top by package txn;
// the storage layer guarantees that individual operations are atomic, that
// snapshot reads are repeatable, and that a Writer's commit is atomic across
// every row and table it touched.
package storage

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/value"
)

// RowID identifies a row within a table for the lifetime of the table. IDs
// are never reused.
type RowID uint64

// ErrNotFound is returned when a row or table does not exist.
var ErrNotFound = errors.New("storage: not found")

// ErrDuplicateKey is returned when an insert or update would violate the
// table's primary key.
var ErrDuplicateKey = errors.New("storage: duplicate primary key")

// Table is a heap of tuple version chains with a schema, optional primary
// key, and hash indexes. All methods are safe for concurrent use.
type Table struct {
	name   string
	schema *value.Schema
	log    *logState // shared with the owning catalog; nil when standalone

	// clock/conflicts point into the owning catalog; standalone tables (no
	// catalog) get private ones so auto-commit stamping still works.
	clock     *atomic.Uint64
	conflicts *atomic.Uint64

	// heap, when non-nil, makes the table spillable: committed tuples page
	// out to this heap file through the catalog's buffer pool and versions
	// hold a pageRef instead of the tuple (see mvcc.go). Standalone and
	// policy-pinned tables keep it nil. Written under mu (Create before
	// publication, detachHeap); read under mu.
	heap *heapFile

	mu      sync.RWMutex
	rows    map[RowID]*version // head (newest) of each row's version chain
	nextID  RowID
	pkCols  []int      // primary key column offsets, nil if none
	pk      *hashIndex // over pkCols; like all indexes it covers every version
	indexes map[string]*hashIndex
	ordered map[int]*orderedIndex // column offset → ordered index
	version uint64                // bumped on every mutation; used for cheap change detection
	// live estimates the number of rows occupying the table: +1 on
	// insert/restore, -1 on delete, unchanged by update. In-flight writers are
	// included (their undo flows back through the same mutation paths), so the
	// counter tracks Len() without the O(rows) walk — the planner's row-count
	// statistic.
	live int
}

// hashIndex maps the key of a column projection to the rows holding it in
// ANY version: entries are added when a version carrying the key appears and
// removed only when garbage collection prunes the last version carrying it.
// Probes therefore re-resolve each candidate against the read snapshot and
// verify the visible version still matches the key.
type hashIndex struct {
	cols []int
	name string // user-assigned index name, "" when unnamed
	m    map[string]posting
}

// posting is the set of rows under one index key. Most keys hold one row
// (every primary key, every traveler name in an answer relation), so that row
// is stored inline and only a second row under the same key allocates the
// overflow set. RowIDs start at 1, so one == 0 means empty; an empty posting
// is never stored.
type posting struct {
	one  RowID
	more map[RowID]struct{}
}

// all yields each row of the posting once, in no particular order.
func (p posting) all(yield func(RowID) bool) {
	if p.one == 0 || !yield(p.one) {
		return
	}
	for id := range p.more {
		if !yield(id) {
			return
		}
	}
}

func newHashIndex(cols []int) *hashIndex {
	return &hashIndex{cols: cols, m: make(map[string]posting)}
}

// appendKey renders the projection's key for the row into b — no
// intermediate Project tuple; index maintenance runs on every insert/update.
func (ix *hashIndex) appendKey(b []byte, t value.Tuple) []byte {
	for i, c := range ix.cols {
		if i > 0 {
			b = append(b, '|')
		}
		b = t[c].AppendKey(b)
	}
	return b
}

func (ix *hashIndex) key(t value.Tuple) string {
	var kb [64]byte
	return string(ix.appendKey(kb[:0], t))
}

// keyMatches reports whether the row's projection renders exactly k,
// building the candidate key on the stack (comparison allocates nothing).
func (ix *hashIndex) keyMatches(t value.Tuple, k string) bool {
	var kb [64]byte
	return string(ix.appendKey(kb[:0], t)) == k
}

// add is idempotent: a row whose versions share the key is recorded once.
// Only a key seen for the first time, or a second row under a key, stores
// anything; re-adding a known (key, row) allocates nothing.
func (ix *hashIndex) add(id RowID, t value.Tuple) {
	var kb [64]byte
	b := ix.appendKey(kb[:0], t)
	p, ok := ix.m[string(b)]
	switch {
	case !ok:
		ix.m[string(b)] = posting{one: id}
	case p.one == id:
	case p.more != nil:
		p.more[id] = struct{}{}
	default:
		ix.m[string(b)] = posting{one: p.one, more: map[RowID]struct{}{id: {}}}
	}
}

// removeKey drops id from the key's entry; GC calls it once no version of
// the row carries the key anymore. Removing the inline row promotes an
// overflow row, and a key left with no rows is deleted.
func (ix *hashIndex) removeKey(k string, id RowID) {
	p, ok := ix.m[k]
	if !ok {
		return
	}
	if p.one == id {
		p.one = 0
		for o := range p.more {
			p.one = o
			delete(p.more, o)
			break
		}
	} else {
		delete(p.more, id)
	}
	switch {
	case p.one == 0:
		delete(ix.m, k)
		return
	case len(p.more) == 0:
		p.more = nil
	}
	ix.m[k] = p
}

// NewTable creates a table with the given schema. pkCols, if non-empty, names
// columns forming a primary key (uniqueness-enforced and auto-indexed).
func NewTable(name string, schema *value.Schema, pkCols ...string) (*Table, error) {
	t := &Table{
		name:      name,
		schema:    schema,
		rows:      make(map[RowID]*version),
		nextID:    1,
		indexes:   make(map[string]*hashIndex),
		clock:     new(atomic.Uint64),
		conflicts: new(atomic.Uint64),
	}
	for _, c := range pkCols {
		o := schema.Ordinal(c)
		if o < 0 {
			return nil, fmt.Errorf("storage: table %s: unknown primary key column %q", name, c)
		}
		t.pkCols = append(t.pkCols, o)
	}
	if len(t.pkCols) > 0 {
		t.pk = newHashIndex(t.pkCols)
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema. The schema is immutable after creation.
func (t *Table) Schema() *value.Schema { return t.schema }

// Version returns a counter bumped on every mutation (and on every commit
// that touched the table, when changes become visible). The coordination
// component uses it to detect base-table changes that may unblock pending
// entangled queries.
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// Len returns the number of rows visible to the latest committed state.
func (t *Table) Len() int { return t.LenAt(Latest()) }

// LenAt returns the number of rows visible at the snapshot.
func (t *Table) LenAt(s Snapshot) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, h := range t.rows {
		if visibleVersion(h, s) != nil {
			n++
		}
	}
	return n
}

// VersionStats returns the number of version chains and total stored
// versions (live plus garbage not yet collected) — the MVCC debugging
// counters surfaced in the admin state dump.
func (t *Table) VersionStats() (chains, versions int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, h := range t.rows {
		chains++
		for v := h; v != nil; v = v.prev {
			versions++
		}
	}
	return
}

// CreateIndex builds (or reuses) an unnamed hash index on the given columns.
func (t *Table) CreateIndex(cols ...string) error {
	return t.CreateIndexNamed("", cols...)
}

// CreateIndexNamed builds (or reuses) a hash index on the given columns under
// a user-assigned name. An existing index on the same columns is reused; a
// previously unnamed one adopts the name so WAL replay converges on the final
// name.
func (t *Table) CreateIndexNamed(name string, cols ...string) error {
	offs := make([]int, len(cols))
	for i, c := range cols {
		o := t.schema.Ordinal(c)
		if o < 0 {
			return fmt.Errorf("storage: table %s: unknown index column %q", t.name, c)
		}
		offs[i] = o
	}
	key := indexName(offs)
	t.mu.Lock()
	defer t.mu.Unlock()
	if ix, ok := t.indexes[key]; ok {
		if name != "" && ix.name == "" {
			ix.name = name
			t.log.emit(LogRecord{Op: OpCreateIndex, Table: t.name, Cols: cols, Index: name})
		}
		return nil
	}
	ix := newHashIndex(offs)
	ix.name = name
	t.eachVersion(func(id RowID, v *version) {
		ix.add(id, t.tupleOf(v)) // cover every version so old snapshots probe correctly
	})
	t.indexes[key] = ix
	t.log.emit(LogRecord{Op: OpCreateIndex, Table: t.name, Cols: cols, Index: name})
	return nil
}

// PrimaryKey returns the names of the primary key columns (nil if none).
func (t *Table) PrimaryKey() []string {
	var names []string
	for _, o := range t.pkCols {
		names = append(names, t.schema.Columns[o].Name)
	}
	return names
}

// Indexes returns the column-name lists of the table's hash indexes, in
// deterministic order.
func (t *Table) Indexes() [][]string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	keys := make([]string, 0, len(t.indexes))
	for k := range t.indexes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]string, 0, len(keys))
	for _, k := range keys {
		ix := t.indexes[k]
		names := make([]string, len(ix.cols))
		for i, o := range ix.cols {
			names[i] = t.schema.Columns[o].Name
		}
		out = append(out, names)
	}
	return out
}

// HasIndex reports whether an index exists on exactly the given column offsets.
func (t *Table) HasIndex(cols []int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.indexes[indexName(cols)]
	return ok
}

func indexName(offs []int) string {
	var b [32]byte
	return string(appendIndexName(b[:0], offs))
}

// appendIndexName writes the index map key for offs into b; probing
// t.indexes with string(appendIndexName(stack, offs)) does not allocate.
func appendIndexName(b []byte, offs []int) []byte {
	for _, o := range offs {
		b = append(b, 'c')
		b = strconv.AppendInt(b, int64(o), 10)
		b = append(b, ',')
	}
	return b
}

// tupleOf resolves a version's tuple: the resident one, or a transient
// decode of its spilled record. Caller holds t.mu (shared suffices — the
// heap and pool synchronize internally and the result is not cached).
func (t *Table) tupleOf(v *version) value.Tuple {
	if v.tup != nil {
		return v.tup
	}
	return heapMustLoad(t.heap, v.ref)
}

// eachVersion calls fn for every stored version of every row, resident
// versions first and spilled ones in heap order (page, then offset). A
// whole-table pass that resolves tuples — an index build, detachHeap —
// therefore reads each heap page through the pool once, where walking the
// rows map would fault a page in per version. fn may materialize the version
// it is given. Caller holds t.mu.
func (t *Table) eachVersion(fn func(id RowID, v *version)) {
	type rowVersion struct {
		id RowID
		v  *version
	}
	var spilled []rowVersion
	for id, h := range t.rows {
		for v := h; v != nil; v = v.prev {
			if v.tup != nil {
				fn(id, v)
			} else {
				spilled = append(spilled, rowVersion{id, v})
			}
		}
	}
	slices.SortFunc(spilled, func(a, b rowVersion) int {
		return cmp.Or(cmp.Compare(a.v.ref.page, b.v.ref.page), cmp.Compare(a.v.ref.off, b.v.ref.off))
	})
	for _, rv := range spilled {
		fn(rv.id, rv.v)
	}
}

// materialize loads a spilled version's tuple back into memory — the
// write-path half of the spill contract: a version about to be superseded
// (update/delete need its old tuple) rejoins the in-memory chain. The heap
// slot it occupied is dead from that point on (tup only transitions
// nil→non-nil), so the heap's reclamation accounting hears about it here.
// Caller holds t.mu exclusively.
func (t *Table) materialize(v *version) {
	if v.tup == nil {
		v.tup = heapMustLoad(t.heap, v.ref)
		t.heap.slotDied(v.ref.page)
	}
}

// newVersion builds the version holding a validated tuple: spillable tables
// page the tuple out and keep only the ref; pinned tables (and oversized
// tuples, or a heap hitting an I/O error) keep a resident clone. Caller
// holds t.mu exclusively.
func (t *Table) newVersion(id RowID, tup value.Tuple) *version {
	if t.heap != nil {
		if ref, err := t.heap.place(id, tup); err == nil {
			return &version{ref: ref, end: liveTS}
		}
		// ErrTupleTooLarge or an I/O failure: degrade to resident storage
		// rather than failing the write — the WAL still records it.
	}
	return &version{tup: tup.Clone(), end: liveTS}
}

// headLive reports whether the chain head currently occupies its primary-key
// slot from w's point of view: not deleted by a committed transaction, not
// deleted by w itself. Caller holds t.mu.
func headLive(h *version, w *Writer) bool {
	if ew := h.ew; ew != nil {
		if ew == w {
			return false // deleted by the asking writer: slot is free for it
		}
		return ew.state.Load() == 0 // someone's in-flight delete still holds the slot
	}
	return h.end == liveTS
}

// pkOccupied reports whether primary-key k is currently taken by a live row
// other than skip. Caller holds t.mu.
func (t *Table) pkOccupied(k string, w *Writer, skip RowID) bool {
	for id := range t.pk.m[k].all {
		if id == skip {
			continue
		}
		h := t.rows[id]
		if h == nil || !t.pk.keyMatches(t.tupleOf(h), k) {
			continue // an older version carried k; the current head does not
		}
		if headLive(h, w) {
			return true
		}
	}
	return false
}

// writeHead locates the writable chain head for id on behalf of w (nil for
// auto-commit), enforcing first-committer-wins: if the newest committed
// change to the row is younger than w's snapshot, the write conflicts and
// the transaction must abort. Caller holds t.mu.
func (t *Table) writeHead(w *Writer, id RowID) (*version, error) {
	h := t.rows[id]
	if h == nil {
		return nil, fmt.Errorf("%w: row %d in %s", ErrNotFound, id, t.name)
	}
	if bw := h.bw; bw != nil && bw != w {
		ts := bw.state.Load()
		if ts == 0 || (w != nil && ts > w.snap) {
			return nil, t.conflictErr(id)
		}
	} else if h.bw == nil && w != nil && h.begin > w.snap {
		return nil, t.conflictErr(id)
	}
	if ew := h.ew; ew != nil {
		if ew == w {
			return nil, fmt.Errorf("%w: row %d in %s", ErrNotFound, id, t.name)
		}
		ts := ew.state.Load()
		if ts == 0 || (w != nil && ts > w.snap) {
			return nil, t.conflictErr(id)
		}
		return nil, fmt.Errorf("%w: row %d in %s", ErrNotFound, id, t.name)
	}
	if h.end != liveTS {
		if w != nil && h.end > w.snap {
			return nil, t.conflictErr(id)
		}
		return nil, fmt.Errorf("%w: row %d in %s", ErrNotFound, id, t.name)
	}
	return h, nil
}

func (t *Table) conflictErr(id RowID) error {
	t.conflicts.Add(1)
	return fmt.Errorf("%w: row %d in %s", ErrWriteConflict, id, t.name)
}

// Insert validates and appends a tuple as an auto-committed version,
// returning its RowID.
func (t *Table) Insert(tup value.Tuple) (RowID, error) { return t.insert(nil, tup) }

// InsertW is Insert on behalf of an in-flight writer: the new version stays
// invisible to other snapshots until the writer commits.
func (t *Table) InsertW(w *Writer, tup value.Tuple) (RowID, error) { return t.insert(w, tup) }

func (t *Table) insert(w *Writer, tup value.Tuple) (RowID, error) {
	tup, err := t.schema.Validate(tup)
	if err != nil {
		return 0, fmt.Errorf("storage: insert into %s: %w", t.name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pk != nil {
		var kb [64]byte
		k := string(t.pk.appendKey(kb[:0], tup))
		if t.pkOccupied(k, w, 0) {
			return 0, fmt.Errorf("%w: %s in %s", ErrDuplicateKey, tup.Project(t.pkCols), t.name)
		}
	}
	id := t.nextID
	t.nextID++
	v := t.newVersion(id, tup)
	if w == nil {
		v.begin = t.clock.Add(1)
	} else {
		v.bw = w
		w.touch(t, id, v)
	}
	t.rows[id] = v
	t.addKeys(id, tup)
	t.version++
	t.live++
	t.log.emit(LogRecord{Op: OpInsert, Table: t.name, RowID: id, Row: tup, Txn: txnID(w)})
	return id, nil
}

// addKeys records the version's keys in the primary key and every index.
// Caller holds t.mu.
func (t *Table) addKeys(id RowID, tup value.Tuple) {
	if t.pk != nil {
		t.pk.add(id, tup)
	}
	for _, ix := range t.indexes {
		ix.add(id, tup)
	}
	for _, ox := range t.ordered {
		ox.add(id, tup)
	}
}

// Get returns the tuple stored under id in the latest committed state.
func (t *Table) Get(id RowID) (value.Tuple, error) { return t.GetAt(Latest(), id) }

// GetAt returns a copy of the version of id visible at the snapshot.
func (t *Table) GetAt(s Snapshot, id RowID) (value.Tuple, error) {
	row, ok := t.GetRefAt(s, id)
	if !ok {
		return nil, fmt.Errorf("%w: row %d in %s", ErrNotFound, id, t.name)
	}
	return row.Clone(), nil
}

// GetRef returns the latest committed row WITHOUT copying, like Scan does
// for its callback. Versions are immutable once written, so the reference
// stays valid and race-free; the caller must not modify the returned tuple.
// This is the zero-copy read the matcher uses when probing installed answers
// at every search node.
func (t *Table) GetRef(id RowID) (value.Tuple, bool) { return t.GetRefAt(Latest(), id) }

// GetRefAt is GetRef against a snapshot: the read resolves the version chain
// lock-free with respect to writers (only the table's short structural
// latch is taken) and never observes uncommitted data.
func (t *Table) GetRefAt(s Snapshot, id RowID) (value.Tuple, bool) {
	t.mu.RLock()
	v := visibleVersion(t.rows[id], s)
	var tup value.Tuple
	var ref pageRef
	var h *heapFile
	if v != nil {
		// Capture under the latch: tup only ever transitions nil→non-nil
		// (materialize) and ref/heap pointers captured together with a nil
		// tup are guaranteed still-loadable (retired heaps stay readable).
		// Entering the readers gate BEFORE releasing the latch keeps the
		// ref's page from being reclaimed and reused while we decode.
		tup, ref = v.tup, v.ref
		if tup == nil {
			h = t.heap
			h.readers.Add(1)
		}
	}
	t.mu.RUnlock()
	if v == nil {
		return nil, false
	}
	if tup == nil {
		tup = heapMustLoad(h, ref) // spilled: decode outside the latch
		h.readers.Add(-1)
	}
	return tup, true
}

// Delete removes the row with the given id (auto-commit) and returns the
// removed tuple.
func (t *Table) Delete(id RowID) (value.Tuple, error) { return t.delete(nil, id) }

// DeleteW is Delete on behalf of an in-flight writer.
func (t *Table) DeleteW(w *Writer, id RowID) (value.Tuple, error) { return t.delete(w, id) }

func (t *Table) delete(w *Writer, id RowID) (value.Tuple, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, err := t.writeHead(w, id)
	if err != nil {
		return nil, err
	}
	t.materialize(h) // the deleted tuple rejoins the chain (undo, return value)
	if w == nil {
		h.end = t.clock.Add(1)
	} else {
		h.ew = w
		w.touch(t, id, h)
	}
	t.version++
	t.live--
	t.log.emit(LogRecord{Op: OpDelete, Table: t.name, RowID: id, Txn: txnID(w)})
	return h.tup, nil
}

// Update replaces the tuple stored under id and returns the previous tuple.
func (t *Table) Update(id RowID, tup value.Tuple) (value.Tuple, error) { return t.update(nil, id, tup) }

// UpdateW is Update on behalf of an in-flight writer.
func (t *Table) UpdateW(w *Writer, id RowID, tup value.Tuple) (value.Tuple, error) {
	return t.update(w, id, tup)
}

func (t *Table) update(w *Writer, id RowID, tup value.Tuple) (value.Tuple, error) {
	tup, err := t.schema.Validate(tup)
	if err != nil {
		return nil, fmt.Errorf("storage: update %s: %w", t.name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h, err := t.writeHead(w, id)
	if err != nil {
		return nil, err
	}
	t.materialize(h) // superseded version rejoins the in-memory chain
	if t.pk != nil {
		var ob, nb [64]byte
		oldK := string(t.pk.appendKey(ob[:0], h.tup))
		newK := string(t.pk.appendKey(nb[:0], tup))
		if oldK != newK && t.pkOccupied(newK, w, id) {
			return nil, fmt.Errorf("%w: %s in %s", ErrDuplicateKey, tup.Project(t.pkCols), t.name)
		}
	}
	v := t.newVersion(id, tup)
	v.prev = h
	if w == nil {
		ts := t.clock.Add(1)
		v.begin = ts
		h.end = ts
	} else {
		v.bw = w
		h.ew = w
		w.touch(t, id, v)
		w.touch(t, id, h)
	}
	t.rows[id] = v
	t.addKeys(id, tup) // old version keys stay until GC prunes the version
	t.version++
	t.log.emit(LogRecord{Op: OpUpdate, Table: t.name, RowID: id, Row: tup, Txn: txnID(w)})
	return h.tup, nil
}

// RestoreAt reinserts a tuple under a specific RowID; Writer.Rollback uses it
// to reverse a Delete, and WAL replay uses it to reproduce original RowIDs.
// The id must not be live.
func (t *Table) RestoreAt(id RowID, tup value.Tuple) error { return t.restoreAt(nil, id, tup) }

// RestoreAtW is RestoreAt on behalf of an in-flight writer.
func (t *Table) RestoreAtW(w *Writer, id RowID, tup value.Tuple) error {
	return t.restoreAt(w, id, tup)
}

func (t *Table) restoreAt(w *Writer, id RowID, tup value.Tuple) error {
	tup, err := t.schema.Validate(tup)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.rows[id]
	if h != nil && (headLive(h, w) || (w != nil && h.bw == w && h.ew != w)) {
		return fmt.Errorf("storage: RestoreAt: row %d already live in %s", id, t.name)
	}
	v := t.newVersion(id, tup)
	v.prev = h
	if w == nil {
		v.begin = t.clock.Add(1)
	} else {
		v.bw = w
		w.touch(t, id, v)
	}
	t.rows[id] = v
	t.addKeys(id, tup)
	if id >= t.nextID {
		t.nextID = id + 1
	}
	t.version++
	t.live++
	t.log.emit(LogRecord{Op: OpRestore, Table: t.name, RowID: id, Row: tup, Txn: txnID(w)})
	return nil
}

// Scan invokes fn for every row in the latest committed state in ascending
// RowID order until fn returns false.
func (t *Table) Scan(fn func(RowID, value.Tuple) bool) { t.ScanAt(Latest(), fn) }

// ScanAt is Scan against a snapshot. The visible rows are collected under
// the table's shared latch FIRST and the callback runs entirely outside it,
// so a slow consumer never blocks writers (or other readers) and the
// iteration still observes exactly the snapshot's consistent state. For
// spillable tables only the page refs are captured under the latch; the
// tuples themselves are decoded through the buffer pool after it is
// released, so a cold scan's page I/O never blocks writers either.
func (t *Table) ScanAt(s Snapshot, fn func(RowID, value.Tuple) bool) {
	t.mu.RLock()
	ids := make([]RowID, 0, len(t.rows))
	for id, h := range t.rows {
		if visibleVersion(h, s) != nil {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	snap := make([]value.Tuple, len(ids))
	var refs []pageRef
	heap := t.heap
	for i, id := range ids {
		v := visibleVersion(t.rows[id], s)
		snap[i] = v.tup
		if v.tup == nil {
			if refs == nil {
				// Spilled refs captured: enter the heap's readers gate while
				// still under the latch, so no captured page is reclaimed
				// and reused before the decode loop below resolves it.
				refs = make([]pageRef, len(ids))
				heap.readers.Add(1)
			}
			refs[i] = v.ref
		}
	}
	t.mu.RUnlock()
	if refs != nil {
		defer heap.readers.Add(-1)
	}
	for i, id := range ids {
		if snap[i] == nil {
			snap[i] = heapMustLoad(heap, refs[i])
		}
		if !fn(id, snap[i]) {
			return
		}
	}
}

// StreamAt invokes fn for every row visible at s in ascending RowID order
// while retaining O(1) tuples at a time: each row is re-resolved under a
// fresh shared latch and spilled tuples are decoded one by one through the
// buffer pool. Unlike ScanAt — which captures the whole visible set under
// one latch and therefore holds every decoded tuple of the snapshot at once
// — StreamAt's cut is only consistent on a quiescent table: a row mutated
// between the per-row latches may be observed newer than s. The WAL
// compaction scratch (quiescent by construction) uses it to write snapshot
// segments of larger-than-RAM tables in O(pool) memory.
func (t *Table) StreamAt(s Snapshot, fn func(RowID, value.Tuple) bool) {
	t.mu.RLock()
	ids := make([]RowID, 0, len(t.rows))
	for id, h := range t.rows {
		if visibleVersion(h, s) != nil {
			ids = append(ids, id)
		}
	}
	t.mu.RUnlock()
	slices.Sort(ids)
	for _, id := range ids {
		t.mu.RLock()
		v := visibleVersion(t.rows[id], s)
		var tup value.Tuple
		var ref pageRef
		var h *heapFile
		if v != nil {
			tup, ref = v.tup, v.ref
			if tup == nil {
				h = t.heap
				h.readers.Add(1)
			}
		}
		t.mu.RUnlock()
		if v == nil {
			continue // pruned since the id pass; only possible non-quiescent
		}
		if tup == nil {
			tup = heapMustLoad(h, ref)
			h.readers.Add(-1)
		}
		if !fn(id, tup) {
			return
		}
	}
}

// LookupEq returns the IDs of rows whose projection on cols equals key in
// the latest committed state. It uses a matching hash index when one exists
// and falls back to a scan otherwise. Results are in ascending RowID order.
func (t *Table) LookupEq(cols []int, key value.Tuple) []RowID {
	return t.LookupEqAppendAt(Latest(), nil, cols, key)
}

// LookupEqAppend is LookupEq appending into dst (reused from length 0), so
// repeated probes — the matcher runs one per search node — can share one
// buffer.
func (t *Table) LookupEqAppend(dst []RowID, cols []int, key value.Tuple) []RowID {
	return t.LookupEqAppendAt(Latest(), dst, cols, key)
}

// LookupEqAppendAt is the snapshot-visible equality probe. The index probe
// builds its key on the stack and allocates nothing beyond dst growth; each
// candidate is resolved against the snapshot and re-verified against the key
// (index entries cover every version of a row, so a candidate's visible
// version may carry a different value).
func (t *Table) LookupEqAppendAt(s Snapshot, dst []RowID, cols []int, key value.Tuple) []RowID {
	var nb [32]byte
	t.mu.RLock()
	// Primary-key point probe: an equality on exactly the PK columns probes
	// the PK index — the classic OLTP point query.
	ix := t.pk
	if ix == nil || !slices.Equal(cols, t.pkCols) {
		ix = t.indexes[string(appendIndexName(nb[:0], cols))]
	}
	if ix != nil {
		var kb [64]byte
		k := string(key.AppendKey(kb[:0]))
		start := len(dst)
		for id := range ix.m[k].all {
			if v := visibleVersion(t.rows[id], s); v != nil && ix.keyMatches(t.tupleOf(v), k) {
				dst = append(dst, id)
			}
		}
		t.mu.RUnlock()
		tail := dst[start:]
		slices.Sort(tail)
		return dst
	}
	t.mu.RUnlock()
	t.ScanAt(s, func(id RowID, row value.Tuple) bool {
		if row.Project(cols).Equal(key) {
			dst = append(dst, id)
		}
		return true
	})
	return dst
}

// LookupPK returns the row matching the primary key tuple in the latest
// committed state, if any.
func (t *Table) LookupPK(key value.Tuple) (RowID, value.Tuple, bool) {
	return t.LookupPKAt(Latest(), key)
}

// LookupPKAt is LookupPK against a snapshot. At most one row is visible per
// key at any snapshot (uniqueness holds at every instant), so the first
// visible match wins.
func (t *Table) LookupPKAt(s Snapshot, key value.Tuple) (RowID, value.Tuple, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.pk == nil {
		return 0, nil, false
	}
	var kb [64]byte
	k := string(key.AppendKey(kb[:0]))
	for id := range t.pk.m[k].all {
		if v := visibleVersion(t.rows[id], s); v != nil {
			tup := t.tupleOf(v)
			if !t.pk.keyMatches(tup, k) {
				continue
			}
			if v.tup != nil {
				tup = tup.Clone() // spilled decodes are already private copies
			}
			return id, tup, true
		}
	}
	return 0, nil, false
}

// All returns a snapshot of every row in the latest committed state, in
// ascending RowID order.
func (t *Table) All() []value.Tuple {
	var out []value.Tuple
	t.Scan(func(_ RowID, row value.Tuple) bool {
		out = append(out, row)
		return true
	})
	return out
}

// gc prunes the table's version chains against the watermark (the oldest
// snapshot any reader can still hold): versions shadowed by a newer
// committed version that itself began at or before the watermark can never
// be resolved again, and chains whose newest version died at or before it
// disappear entirely. Dead versions (begin == end — an aborted transaction's
// compensated intermediates) are invisible to every snapshot and pruned
// unconditionally. Returns the number of versions reclaimed.
func (t *Table) gc(wm uint64) (reclaimed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, h := range t.rows {
		if h.bw == nil && h.ew == nil && h.end != liveTS && h.end <= wm {
			// Whole chain dead to every current and future snapshot.
			delete(t.rows, id)
			for v := h; v != nil; v = v.prev {
				t.dropKeys(id, v, nil) // decodes the slot; must precede slotDied
				if v.tup == nil {
					t.heap.slotDied(v.ref.page)
				}
				reclaimed++
			}
			continue
		}
		prev := h
		anchored := h.bw == nil && h.begin <= wm
		for v := h.prev; v != nil; v = v.prev {
			committed := v.bw == nil && v.ew == nil
			dead := committed && v.begin == v.end
			if (anchored && committed) || dead {
				prev.prev = v.prev
				t.dropKeys(id, v, h)
				if v.tup == nil {
					t.heap.slotDied(v.ref.page)
				}
				reclaimed++
				continue
			}
			if committed && v.begin <= wm {
				anchored = true // v stays (visible at wm); everything below goes
			}
			prev = v
		}
	}
	return reclaimed
}

// dropKeys removes the pruned version's index entries unless a surviving
// version of the chain (rooted at head, nil when the chain is gone) still
// carries the same key. Caller holds t.mu.
func (t *Table) dropKeys(id RowID, dead *version, head *version) {
	deadTup := t.tupleOf(dead)
	drop := func(ix *hashIndex) {
		k := ix.key(deadTup)
		for v := head; v != nil; v = v.prev {
			if v != dead && ix.keyMatches(t.tupleOf(v), k) {
				return
			}
		}
		ix.removeKey(k, id)
	}
	if t.pk != nil {
		drop(t.pk)
	}
	for _, ix := range t.indexes {
		drop(ix)
	}
	for _, ox := range t.ordered {
		val := deadTup[ox.col]
		shared := false
		for v := head; v != nil; v = v.prev {
			if v != dead && t.tupleOf(v)[ox.col].Compare(val) == 0 {
				shared = true
				break
			}
		}
		if !shared {
			ox.remove(id, deadTup)
		}
	}
}

// compactHeap rewrites mostly-dead sealed heap pages: every still-live
// spilled version on a victim page (at least half its records dead) is
// re-placed at the current tail, draining the victim to zero live records so
// slotDied moves it to the free list for the tail allocator to reuse.
// Catalog.GC runs it right after chain pruning, so the sweep that killed the
// slots immediately feeds the compactor. Runs under the exclusive latch;
// latchless readers holding refs into a victim are protected by the readers
// gate exactly as for any reclaimed page.
func (t *Table) compactHeap() {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.heap
	if h == nil {
		return
	}
	victims := h.compactionVictims()
	if len(victims) == 0 {
		return
	}
	for id, head := range t.rows {
		for v := head; v != nil; v = v.prev {
			if v.tup != nil || !victims[v.ref.page] {
				continue
			}
			tup, err := h.load(v.ref)
			if err != nil {
				continue // unreadable: leave the slot where it is
			}
			old := v.ref.page
			if ref, perr := h.place(id, tup); perr == nil {
				v.ref = ref
			} else {
				v.tup = tup // cannot re-place (oversized/IO): keep it resident
			}
			h.slotDied(old)
		}
	}
}
