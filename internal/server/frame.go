package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// Wire format v2: length-prefixed binary frames, reusing the WAL's
// varint/length-prefixed encoding discipline (internal/wal/binary.go). TCP
// already checksums, so frames carry no CRC — but the decoder is
// bounds-checked end to end and can never panic on corrupt input (pinned by
// FuzzFrameDecode).
//
//	preamble: "YTP2" — sent once by the client immediately after connect.
//	          Any other opening gets one errBadFrame frame and a close.
//	frame:    payload length (uint32 LE) | payload
//	payload:  kind (1 byte) | correlation id (uvarint) | kind-specific body
//
// Integers are varints (int64 round-trips exactly — no float64 detour),
// floats are 8 raw bytes, strings are length-prefixed, values are tagged
// with the same tag bytes the WAL uses. Frames are typed by kind, so
// asynchronous coordination events are structurally distinct from replies.
// Result sets stream as a header frame plus row-batch frames.

// v2Magic is the client's codec preamble.
var v2Magic = [4]byte{'Y', 'T', 'P', '2'}

const (
	// maxFrameLen bounds one frame so a corrupt length prefix cannot drive a
	// huge allocation; oversized frames get an explicit kindError reply with
	// errFrameTooBig before the connection closes.
	maxFrameLen = 8 << 20

	// rowBatchRows bounds one kindRows frame; large result sets stream in
	// batches instead of one giant frame.
	rowBatchRows = 256
)

// Frame kinds. Client → server:
const (
	kindExec   = 0x01 // sql, owner, ttl — execute one statement
	kindCancel = 0x02 // withdraw an entangled query by id
	kindAdmin  = 0x03 // typed admin request (admin* code)
	// Prepared-statement lifecycle: a statement is parsed/compiled once
	// server-side and repeated executions ship only its id plus a
	// binary-encoded parameter vector — the SQL text stops crossing the
	// wire entirely. Statement ids are per-connection; the table is torn
	// down with the connection.
	kindPrepare       = 0x04 // sql — parse/compile, reply kindPrepared
	kindExecPrepared  = 0x05 // stmt id, owner, ttl, parameter tuple
	kindClosePrepared = 0x06 // stmt id — drop from the connection's table
	kindExplain       = 0x07 // sql + optional params — describe the plan, reply kindPlan
)

// Server → client:
const (
	kindOK        = 0x10 // statement done, no result set (txn control, cancel ack)
	kindResult    = 0x11 // result header: affected count + column names
	kindRows      = 0x12 // one batch of result rows
	kindResultEnd = 0x13 // closes the result opened by kindResult
	kindEntangled = 0x14 // entangled query registered; body carries its id
	kindEvent     = 0x15 // async coordination outcome (answer / canceled)
	kindAdminResp = 0x16 // typed admin response (admin* code + payload)
	kindError     = 0x17 // error reply, correlated by id
	kindPrepared  = 0x18 // prepare ack: stmt id, parameter count, entangled flag
	kindPlan      = 0x19 // typed plan description (EXPLAIN reply)
)

// Admin codes shared by kindAdmin and kindAdminResp.
const (
	adminState   = 1 // rendered coordination-state report (string)
	adminPending = 2 // []coord.PendingInfo
	adminStats   = 3 // coord.StatsSnapshot
	adminShards  = 4 // []coord.ShardInfo
	adminWAL     = 5 // core.WALStats (+ a "durable at all" flag)
	adminTxn     = 6 // txn.Stats — transaction/MVCC counters
	adminRepl    = 7 // core.ReplStatus — replication role/lag/health
	adminPromote = 8 // promote this follower to primary; replies adminRepl
	adminPool    = 9 // storage.PoolStats (+ a "pool enabled at all" flag)
)

// Error codes carried by kindError.
const (
	errGeneric     = 1 // server-side execution error; message explains
	errFrameTooBig = 2 // frame length exceeded maxFrameLen
	errBadFrame    = 3 // frame failed to decode
	errNotPrimary  = 4 // write/entangled statement on a read-only follower
	errNotReady    = 5 // follower mid-resync; retry shortly (possibly elsewhere)
)

// ---------------------------------------------------------------------------
// Encoding

// frameBuf accumulates one or more frames. Frames are self-delimiting, so a
// small response (result header + rows + end) can be packed into one buffer
// and handed to the connection writer as a single write.
type frameBuf struct {
	b     []byte
	start int // offset of the current frame's length prefix
}

func (f *frameBuf) reset() { f.b = f.b[:0] }

// begin opens a frame; end back-patches its length prefix.
func (f *frameBuf) begin(kind byte, id uint64) {
	f.start = len(f.b)
	f.b = append(f.b, 0, 0, 0, 0, kind)
	f.b = binary.AppendUvarint(f.b, id)
}

func (f *frameBuf) end() error {
	n := len(f.b) - f.start - 4
	if n > maxFrameLen {
		f.b = f.b[:f.start]
		return fmt.Errorf("server: frame payload %d bytes exceeds the %d-byte limit", n, maxFrameLen)
	}
	binary.LittleEndian.PutUint32(f.b[f.start:], uint32(n))
	return nil
}

// take returns the accumulated frames as an independent slice and resets.
func (f *frameBuf) take() []byte {
	out := make([]byte, len(f.b))
	copy(out, f.b)
	f.reset()
	return out
}

func (f *frameBuf) uvarint(v uint64) { f.b = binary.AppendUvarint(f.b, v) }
func (f *frameBuf) varint(v int64)   { f.b = binary.AppendVarint(f.b, v) }
func (f *frameBuf) u8(v byte)        { f.b = append(f.b, v) }
func (f *frameBuf) bool(v bool)      { f.b = append(f.b, boolByte(v)) }
func (f *frameBuf) string(s string)  { f.uvarint(uint64(len(s))); f.b = append(f.b, s...) }
func (f *frameBuf) strings(ss []string) {
	f.uvarint(uint64(len(ss)))
	for _, s := range ss {
		f.string(s)
	}
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// value encodes one value with the WAL's tag discipline: NULL 0, INT 1
// (varint — int64 exact), FLOAT 2 (8 raw bytes), STRING 3, BOOL 4.
func (f *frameBuf) value(v value.Value) {
	switch v.Type() {
	case value.TypeInt:
		f.u8(1)
		f.varint(v.Int())
	case value.TypeFloat:
		f.u8(2)
		f.b = binary.LittleEndian.AppendUint64(f.b, math.Float64bits(v.Float()))
	case value.TypeString:
		f.u8(3)
		f.string(v.Str())
	case value.TypeBool:
		f.u8(4)
		f.bool(v.Bool())
	default: // NULL
		f.u8(0)
	}
}

func (f *frameBuf) tuple(t value.Tuple) {
	f.uvarint(uint64(len(t)))
	for _, v := range t {
		f.value(v)
	}
}

func (f *frameBuf) stats(s coord.StatsSnapshot) {
	for _, v := range [...]uint64{
		s.Submitted, s.Answered, s.Matches, s.Parked, s.Canceled,
		s.Expired, s.Retries, s.Escalations, s.NodesExplored,
		s.GroundingAttempts, s.GroundingFailures,
	} {
		f.uvarint(v)
	}
}

// appendExec encodes a kindExec request. A positive ttl asks the server to
// withdraw the entangled query if it is still pending after that long — the
// wire mapping of a context deadline.
func (f *frameBuf) appendExec(id uint64, sql, owner string, ttl time.Duration) error {
	f.begin(kindExec, id)
	f.string(sql)
	f.string(owner)
	if ttl < 0 {
		ttl = 0
	}
	f.uvarint(uint64(ttl / time.Millisecond))
	return f.end()
}

func (f *frameBuf) appendCancel(id, query uint64) error {
	f.begin(kindCancel, id)
	f.uvarint(query)
	return f.end()
}

func (f *frameBuf) appendPrepare(id uint64, sql string) error {
	f.begin(kindPrepare, id)
	f.string(sql)
	return f.end()
}

// appendExecPrepared encodes one prepared execution: the statement id, the
// owner label, the TTL (as in appendExec) and the parameter vector in the
// tagged binary value encoding — int64 and float64 round-trip exactly.
func (f *frameBuf) appendExecPrepared(id, stmt uint64, owner string, ttl time.Duration, params value.Tuple) error {
	f.begin(kindExecPrepared, id)
	f.uvarint(stmt)
	f.string(owner)
	if ttl < 0 {
		ttl = 0
	}
	f.uvarint(uint64(ttl / time.Millisecond))
	f.tuple(params)
	return f.end()
}

// appendExplain encodes a kindExplain request: the SQL text plus an optional
// parameter vector that refines the estimates the way bind-time values would.
func (f *frameBuf) appendExplain(id uint64, sql string, params value.Tuple) error {
	f.begin(kindExplain, id)
	f.string(sql)
	f.tuple(params)
	return f.end()
}

// appendPlan encodes the typed plan description EXPLAIN returns.
func (f *frameBuf) appendPlan(id uint64, d *plan.Desc) error {
	f.begin(kindPlan, id)
	f.string(d.SQL)
	f.string(d.Kind)
	f.string(d.Note)
	f.uvarint(uint64(len(d.Steps)))
	for _, s := range d.Steps {
		f.string(s.Table)
		f.string(s.Binding)
		f.string(s.Path)
		f.string(s.Index)
		f.string(s.Columns)
		f.b = binary.LittleEndian.AppendUint64(f.b, math.Float64bits(s.EstRows))
		f.varint(int64(s.Rows))
		f.varint(int64(s.Residual))
		f.varint(int64(s.Eliminated))
	}
	return f.end()
}

func (f *frameBuf) appendClosePrepared(id, stmt uint64) error {
	f.begin(kindClosePrepared, id)
	f.uvarint(stmt)
	return f.end()
}

func (f *frameBuf) appendPrepared(id, stmt uint64, nParams int, entangled bool) error {
	f.begin(kindPrepared, id)
	f.uvarint(stmt)
	f.uvarint(uint64(nParams))
	f.bool(entangled)
	return f.end()
}

func (f *frameBuf) appendAdmin(id uint64, code byte) error {
	f.begin(kindAdmin, id)
	f.u8(code)
	return f.end()
}

func (f *frameBuf) appendOK(id uint64, text string) error {
	f.begin(kindOK, id)
	f.string(text)
	return f.end()
}

func (f *frameBuf) appendError(id uint64, code byte, msg string) error {
	f.begin(kindError, id)
	f.u8(code)
	f.string(msg)
	return f.end()
}

func (f *frameBuf) appendEntangled(id, query uint64) error {
	f.begin(kindEntangled, id)
	f.uvarint(query)
	return f.end()
}

// appendResult encodes a whole result set: header, row batches, end marker.
func (f *frameBuf) appendResult(id uint64, cols []string, rows []value.Tuple, affected int) error {
	f.begin(kindResult, id)
	f.uvarint(uint64(affected))
	f.strings(cols)
	if err := f.end(); err != nil {
		return err
	}
	for off := 0; off < len(rows); off += rowBatchRows {
		batch := rows[off:]
		if len(batch) > rowBatchRows {
			batch = batch[:rowBatchRows]
		}
		f.begin(kindRows, id)
		f.uvarint(uint64(len(batch)))
		for _, row := range batch {
			f.tuple(row)
		}
		if err := f.end(); err != nil {
			return err
		}
	}
	f.begin(kindResultEnd, id)
	return f.end()
}

// appendEvent encodes an async coordination outcome. Events are typed by
// kind, not by a magic id: the correlation id slot carries the query id.
func (f *frameBuf) appendEvent(out coord.Outcome) error {
	f.begin(kindEvent, out.QueryID)
	f.bool(out.Canceled)
	f.uvarint(uint64(out.MatchSize))
	f.uvarint(uint64(len(out.Answers)))
	for _, a := range out.Answers {
		f.string(a.Relation)
		f.uvarint(uint64(len(a.Tuples)))
		for _, t := range a.Tuples {
			f.tuple(t)
		}
	}
	return f.end()
}

func (f *frameBuf) appendAdminState(id uint64, text string) error {
	f.begin(kindAdminResp, id)
	f.u8(adminState)
	f.string(text)
	return f.end()
}

func (f *frameBuf) appendAdminPending(id uint64, ps []coord.PendingInfo) error {
	f.begin(kindAdminResp, id)
	f.u8(adminPending)
	f.uvarint(uint64(len(ps)))
	for _, p := range ps {
		f.uvarint(p.ID)
		f.string(p.Owner)
		f.string(p.Source)
		f.string(p.Logic)
		f.strings(p.Relations)
		f.varint(int64(p.Waiting))
	}
	return f.end()
}

func (f *frameBuf) appendAdminStats(id uint64, s coord.StatsSnapshot) error {
	f.begin(kindAdminResp, id)
	f.u8(adminStats)
	f.stats(s)
	return f.end()
}

func (f *frameBuf) appendAdminShards(id uint64, shards []coord.ShardInfo) error {
	f.begin(kindAdminResp, id)
	f.u8(adminShards)
	f.uvarint(uint64(len(shards)))
	for _, si := range shards {
		f.uvarint(uint64(si.ID))
		f.uvarint(uint64(si.Pending))
		f.strings(si.Relations)
		f.stats(si.Stats)
	}
	return f.end()
}

func (f *frameBuf) appendAdminWAL(id uint64, st core.WALStats, durable bool) error {
	f.begin(kindAdminResp, id)
	f.u8(adminWAL)
	f.bool(durable)
	if durable {
		c := st.Commits
		for _, v := range [...]uint64{c.Records, c.Batches, c.Syncs, c.Rotations, c.Compacts} {
			f.uvarint(v)
		}
		r := st.Recovery
		f.varint(int64(r.Records))
		f.varint(int64(r.Segments))
		f.bool(r.Torn)
		f.varint(r.TornBytes)
		f.uvarint(uint64(len(st.Segments)))
		for _, s := range st.Segments {
			f.uvarint(s.Seq)
			f.string(s.Path)
			f.varint(s.Bytes)
			f.bool(s.Sealed)
			f.bool(s.Snapshot)
		}
	}
	return f.end()
}

func (f *frameBuf) appendAdminPool(id uint64, st storage.PoolStats, enabled bool) error {
	f.begin(kindAdminResp, id)
	f.u8(adminPool)
	f.bool(enabled)
	if enabled {
		for _, v := range [...]int{st.Capacity, st.Resident, st.Dirty} {
			f.varint(int64(v))
		}
		for _, v := range [...]uint64{st.Hits, st.Misses, st.Evictions, st.Writebacks, st.LoadWaits} {
			f.uvarint(v)
		}
		for _, v := range [...]int{st.SpilledTables, st.PinnedTables, st.HeapPages, st.FreePages} {
			f.varint(int64(v))
		}
		f.uvarint(st.DeadSlots)
		f.uvarint(st.ReclaimedPages)
		f.uvarint(uint64(len(st.Shards)))
		for _, sh := range st.Shards {
			f.varint(int64(sh.Capacity))
			f.varint(int64(sh.Resident))
			f.uvarint(sh.Hits)
			f.uvarint(sh.Misses)
			f.uvarint(sh.Evictions)
		}
		f.uvarint(uint64(len(st.Tables)))
		for _, t := range st.Tables {
			f.string(t.Name)
			f.varint(int64(t.Pages))
			f.varint(int64(t.FreePages))
			f.uvarint(t.DeadSlots)
		}
	}
	return f.end()
}

func (f *frameBuf) appendAdminTxn(id uint64, st txn.Stats) error {
	f.begin(kindAdminResp, id)
	f.u8(adminTxn)
	for _, v := range [...]uint64{
		st.Committed, st.Aborted, st.Timeouts, st.WriteConflicts, st.GCReclaimed,
	} {
		f.uvarint(v)
	}
	return f.end()
}

// ---------------------------------------------------------------------------
// Decoding

// readFrame reads one length-prefixed frame into buf (grown as needed),
// returning the payload. A zero or oversized length is reported as
// errFrameSize so the caller can send the explicit max-frame-size error the
// protocol promises before closing.
var errFrameSize = fmt.Errorf("server: frame length exceeds the %d-byte limit", maxFrameLen)

func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrameLen {
		return buf, errFrameSize
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	return buf, nil
}

// frameReader is a bounds-checked cursor over one frame payload. Every read
// reports an error instead of panicking, so arbitrarily corrupt input
// degrades to a decode error (the contract FuzzFrameDecode pins).
type frameReader struct {
	b   []byte
	off int

	// shared, when set by internRemaining, is one immutable copy of the
	// payload tail; decoded strings slice it instead of allocating one copy
	// each. Row batches use this so a 256-row frame costs one string
	// allocation, not one per string value.
	shared    string
	sharedOff int
}

// internRemaining snapshots the undecoded payload tail into one string; all
// string reads from here on alias it. Called before decoding bulk row data
// (the payload buffer itself is reused across frames, so slicing it
// directly would corrupt earlier results).
func (r *frameReader) internRemaining() {
	r.shared = string(r.b[r.off:])
	r.sharedOff = r.off
}

func (r *frameReader) remaining() int { return len(r.b) - r.off }

func (r *frameReader) u8() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("server: frame truncated")
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

func (r *frameReader) bool() (bool, error) {
	b, err := r.u8()
	return b != 0, err
}

func (r *frameReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("server: bad uvarint in frame")
	}
	r.off += n
	return v, nil
}

func (r *frameReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("server: bad varint in frame")
	}
	r.off += n
	return v, nil
}

func (r *frameReader) bytes(n int) ([]byte, error) {
	if n < 0 || n > r.remaining() {
		return nil, fmt.Errorf("server: frame truncated (want %d bytes, have %d)", n, r.remaining())
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *frameReader) string() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.remaining()) {
		return "", fmt.Errorf("server: string length %d exceeds frame", n)
	}
	start := r.off
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	if r.shared != "" && start >= r.sharedOff {
		return r.shared[start-r.sharedOff : start-r.sharedOff+int(n)], nil
	}
	return string(b), nil
}

// count reads an element count and sanity-checks it against the bytes left
// (each element needs at least one byte), bounding allocations on corrupt
// input.
func (r *frameReader) count() (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.remaining()) {
		return 0, fmt.Errorf("server: element count %d exceeds frame", n)
	}
	return int(n), nil
}

func (r *frameReader) strings() ([]string, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	var out []string
	for i := 0; i < n; i++ {
		s, err := r.string()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (r *frameReader) value() (value.Value, error) {
	tag, err := r.u8()
	if err != nil {
		return value.Null, err
	}
	switch tag {
	case 0:
		return value.Null, nil
	case 1:
		i, err := r.varint()
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(i), nil
	case 2:
		b, err := r.bytes(8)
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b))), nil
	case 3:
		s, err := r.string()
		if err != nil {
			return value.Null, err
		}
		return value.NewString(s), nil
	case 4:
		b, err := r.u8()
		if err != nil {
			return value.Null, err
		}
		return value.NewBool(b != 0), nil
	default:
		return value.Null, fmt.Errorf("server: unknown value tag %d", tag)
	}
}

func (r *frameReader) tuple() (value.Tuple, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	t := make(value.Tuple, 0, n)
	for i := 0; i < n; i++ {
		v, err := r.value()
		if err != nil {
			return nil, err
		}
		t = append(t, v)
	}
	return t, nil
}

func (r *frameReader) stats() (coord.StatsSnapshot, error) {
	var s coord.StatsSnapshot
	for _, dst := range [...]*uint64{
		&s.Submitted, &s.Answered, &s.Matches, &s.Parked, &s.Canceled,
		&s.Expired, &s.Retries, &s.Escalations, &s.NodesExplored,
		&s.GroundingAttempts, &s.GroundingFailures,
	} {
		v, err := r.uvarint()
		if err != nil {
			return s, err
		}
		*dst = v
	}
	return s, nil
}

// frameHeader peels kind and correlation id off a payload. The id is
// best-effort recoverable even when the body later fails to decode, so error
// replies can echo it.
func frameHeader(payload []byte) (kind byte, id uint64, r frameReader, err error) {
	r = frameReader{b: payload}
	if kind, err = r.u8(); err != nil {
		return 0, 0, r, err
	}
	if id, err = r.uvarint(); err != nil {
		return 0, 0, r, err
	}
	return kind, id, r, nil
}

// request is one decoded client → server v2 message.
type request struct {
	kind   byte
	id     uint64
	sql    string
	owner  string
	ttl    time.Duration
	query  uint64      // kindCancel
	admin  byte        // kindAdmin
	stmt   uint64      // kindExecPrepared / kindClosePrepared
	params value.Tuple // kindExecPrepared
}

// decodeRequest decodes a client frame. On failure the returned request
// still carries any id recovered from the header, so the error reply is
// correlated instead of orphaned.
func decodeRequest(payload []byte) (request, error) {
	var req request
	kind, id, r, err := frameHeader(payload)
	req.kind, req.id = kind, id
	if err != nil {
		return req, err
	}
	switch kind {
	case kindExec:
		if req.sql, err = r.string(); err != nil {
			return req, err
		}
		if req.owner, err = r.string(); err != nil {
			return req, err
		}
		ms, err := r.uvarint()
		if err != nil {
			return req, err
		}
		if ms > uint64(math.MaxInt64/int64(time.Millisecond)) {
			return req, fmt.Errorf("server: ttl %dms out of range", ms)
		}
		req.ttl = time.Duration(ms) * time.Millisecond
	case kindCancel:
		if req.query, err = r.uvarint(); err != nil {
			return req, err
		}
	case kindAdmin:
		if req.admin, err = r.u8(); err != nil {
			return req, err
		}
	case kindPrepare:
		if req.sql, err = r.string(); err != nil {
			return req, err
		}
	case kindExecPrepared:
		if req.stmt, err = r.uvarint(); err != nil {
			return req, err
		}
		if req.owner, err = r.string(); err != nil {
			return req, err
		}
		ms, err := r.uvarint()
		if err != nil {
			return req, err
		}
		if ms > uint64(math.MaxInt64/int64(time.Millisecond)) {
			return req, fmt.Errorf("server: ttl %dms out of range", ms)
		}
		req.ttl = time.Duration(ms) * time.Millisecond
		// The parameter vector: decoded strings must not alias the reused
		// frame buffer — they live as long as the bound statement runs.
		r.internRemaining()
		if req.params, err = r.tuple(); err != nil {
			return req, err
		}
	case kindClosePrepared:
		if req.stmt, err = r.uvarint(); err != nil {
			return req, err
		}
	case kindExplain:
		if req.sql, err = r.string(); err != nil {
			return req, err
		}
		r.internRemaining()
		if req.params, err = r.tuple(); err != nil {
			return req, err
		}
	default:
		return req, fmt.Errorf("server: unknown request kind 0x%02x", kind)
	}
	if r.remaining() != 0 {
		return req, fmt.Errorf("server: %d trailing bytes in request frame", r.remaining())
	}
	return req, nil
}

// reply is one decoded server → client v2 message.
type reply struct {
	kind     byte
	id       uint64
	text     string // kindOK text, kindError message, adminState report
	errCode  byte
	query    uint64 // kindEntangled
	stmt     uint64 // kindPrepared: statement id
	nParams  int    // kindPrepared
	prepEnt  bool   // kindPrepared: statement is entangled
	affected int
	cols     []string
	rows     []value.Tuple // kindRows batch
	event    coord.Outcome // kindEvent
	admin    byte
	pending  []coord.PendingInfo
	stats    coord.StatsSnapshot
	shards   []coord.ShardInfo
	walStats core.WALStats
	durable  bool
	txnStats txn.Stats
	repl     core.ReplStatus
	pool     storage.PoolStats
	poolOn   bool
	plan     *plan.Desc // kindPlan
}

// decodeReply decodes a server frame (the client side of the codec; also the
// entry point FuzzFrameDecode drives, since it is a superset of the request
// decoder's primitives).
func decodeReply(payload []byte) (reply, error) {
	var rp reply
	kind, id, r, err := frameHeader(payload)
	rp.kind, rp.id = kind, id
	if err != nil {
		return rp, err
	}
	switch kind {
	case kindOK:
		if rp.text, err = r.string(); err != nil {
			return rp, err
		}
	case kindError:
		if rp.errCode, err = r.u8(); err != nil {
			return rp, err
		}
		if rp.text, err = r.string(); err != nil {
			return rp, err
		}
	case kindEntangled:
		if rp.query, err = r.uvarint(); err != nil {
			return rp, err
		}
	case kindPrepared:
		if rp.stmt, err = r.uvarint(); err != nil {
			return rp, err
		}
		n, err := r.uvarint()
		if err != nil {
			return rp, err
		}
		if n > math.MaxInt32 {
			return rp, fmt.Errorf("server: parameter count %d out of range", n)
		}
		rp.nParams = int(n)
		if rp.prepEnt, err = r.bool(); err != nil {
			return rp, err
		}
	case kindResult:
		aff, err := r.uvarint()
		if err != nil {
			return rp, err
		}
		if aff > math.MaxInt32 {
			return rp, fmt.Errorf("server: affected count %d out of range", aff)
		}
		rp.affected = int(aff)
		r.internRemaining() // column names share one backing string
		if rp.cols, err = r.strings(); err != nil {
			return rp, err
		}
	case kindRows:
		n, err := r.count()
		if err != nil {
			return rp, err
		}
		// Bulk path: one interned string for every string value in the
		// batch, one value slab for every tuple (each row is a capped
		// sub-slice; slab growth leaves earlier rows on the old backing,
		// which stays valid). Pre-sizes are clamped: n is only bounded by
		// one-byte-per-row, so trusting it would let a hostile 8 MiB frame
		// demand a multi-GiB up-front allocation.
		r.internRemaining()
		rp.rows = make([]value.Tuple, 0, min(n, rowBatchRows))
		slab := make(value.Tuple, 0, min(8*n, 8*rowBatchRows))
		for i := 0; i < n; i++ {
			m, err := r.count()
			if err != nil {
				return rp, err
			}
			start := len(slab)
			for j := 0; j < m; j++ {
				v, err := r.value()
				if err != nil {
					return rp, err
				}
				slab = append(slab, v)
			}
			rp.rows = append(rp.rows, slab[start:len(slab):len(slab)])
		}
	case kindResultEnd:
		// No body.
	case kindEvent:
		rp.event.QueryID = id
		r.internRemaining()
		if rp.event.Canceled, err = r.bool(); err != nil {
			return rp, err
		}
		ms, err := r.uvarint()
		if err != nil {
			return rp, err
		}
		if ms > math.MaxInt32 {
			return rp, fmt.Errorf("server: match size %d out of range", ms)
		}
		rp.event.MatchSize = int(ms)
		na, err := r.count()
		if err != nil {
			return rp, err
		}
		for i := 0; i < na; i++ {
			var a coord.Answer
			if a.Relation, err = r.string(); err != nil {
				return rp, err
			}
			nt, err := r.count()
			if err != nil {
				return rp, err
			}
			for j := 0; j < nt; j++ {
				t, err := r.tuple()
				if err != nil {
					return rp, err
				}
				a.Tuples = append(a.Tuples, t)
			}
			rp.event.Answers = append(rp.event.Answers, a)
		}
	case kindAdminResp:
		if rp.admin, err = r.u8(); err != nil {
			return rp, err
		}
		if err := decodeAdminBody(&rp, &r); err != nil {
			return rp, err
		}
	case kindPlan:
		d := &plan.Desc{}
		r.internRemaining()
		if d.SQL, err = r.string(); err != nil {
			return rp, err
		}
		if d.Kind, err = r.string(); err != nil {
			return rp, err
		}
		if d.Note, err = r.string(); err != nil {
			return rp, err
		}
		n, err := r.count()
		if err != nil {
			return rp, err
		}
		for i := 0; i < n; i++ {
			var s plan.Step
			for _, dst := range [...]*string{&s.Table, &s.Binding, &s.Path, &s.Index, &s.Columns} {
				if *dst, err = r.string(); err != nil {
					return rp, err
				}
			}
			b, err := r.bytes(8)
			if err != nil {
				return rp, err
			}
			s.EstRows = math.Float64frombits(binary.LittleEndian.Uint64(b))
			for _, dst := range [...]*int{&s.Rows, &s.Residual, &s.Eliminated} {
				v, err := r.varint()
				if err != nil {
					return rp, err
				}
				if v < 0 || v > math.MaxInt32 {
					return rp, fmt.Errorf("server: plan step count out of range")
				}
				*dst = int(v)
			}
			d.Steps = append(d.Steps, s)
		}
		rp.plan = d
	default:
		return rp, fmt.Errorf("server: unknown reply kind 0x%02x", kind)
	}
	if r.remaining() != 0 {
		return rp, fmt.Errorf("server: %d trailing bytes in reply frame", r.remaining())
	}
	return rp, nil
}

func decodeAdminBody(rp *reply, r *frameReader) (err error) {
	switch rp.admin {
	case adminState:
		rp.text, err = r.string()
		return err
	case adminPending:
		n, err := r.count()
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			var p coord.PendingInfo
			if p.ID, err = r.uvarint(); err != nil {
				return err
			}
			if p.Owner, err = r.string(); err != nil {
				return err
			}
			if p.Source, err = r.string(); err != nil {
				return err
			}
			if p.Logic, err = r.string(); err != nil {
				return err
			}
			if p.Relations, err = r.strings(); err != nil {
				return err
			}
			w, err := r.varint()
			if err != nil {
				return err
			}
			p.Waiting = time.Duration(w)
			rp.pending = append(rp.pending, p)
		}
		return nil
	case adminStats:
		rp.stats, err = r.stats()
		return err
	case adminShards:
		n, err := r.count()
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			var si coord.ShardInfo
			id, err := r.uvarint()
			if err != nil {
				return err
			}
			pend, err := r.uvarint()
			if err != nil {
				return err
			}
			if id > math.MaxInt32 || pend > math.MaxInt32 {
				return fmt.Errorf("server: shard fields out of range")
			}
			si.ID, si.Pending = int(id), int(pend)
			if si.Relations, err = r.strings(); err != nil {
				return err
			}
			if si.Stats, err = r.stats(); err != nil {
				return err
			}
			rp.shards = append(rp.shards, si)
		}
		return nil
	case adminWAL:
		if rp.durable, err = r.bool(); err != nil {
			return err
		}
		if !rp.durable {
			return nil
		}
		c := &rp.walStats.Commits
		for _, dst := range [...]*uint64{&c.Records, &c.Batches, &c.Syncs, &c.Rotations, &c.Compacts} {
			if *dst, err = r.uvarint(); err != nil {
				return err
			}
		}
		rec := &rp.walStats.Recovery
		recs, err := r.varint()
		if err != nil {
			return err
		}
		segs, err := r.varint()
		if err != nil {
			return err
		}
		if recs > math.MaxInt32 || recs < 0 || segs > math.MaxInt32 || segs < 0 {
			return fmt.Errorf("server: recovery counts out of range")
		}
		rec.Records, rec.Segments = int(recs), int(segs)
		if rec.Torn, err = r.bool(); err != nil {
			return err
		}
		if rec.TornBytes, err = r.varint(); err != nil {
			return err
		}
		n, err := r.count()
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			var s wal.SegmentInfo
			if s.Seq, err = r.uvarint(); err != nil {
				return err
			}
			if s.Path, err = r.string(); err != nil {
				return err
			}
			if s.Bytes, err = r.varint(); err != nil {
				return err
			}
			if s.Sealed, err = r.bool(); err != nil {
				return err
			}
			if s.Snapshot, err = r.bool(); err != nil {
				return err
			}
			rp.walStats.Segments = append(rp.walStats.Segments, s)
		}
		return nil
	case adminTxn:
		for _, dst := range [...]*uint64{
			&rp.txnStats.Committed, &rp.txnStats.Aborted, &rp.txnStats.Timeouts,
			&rp.txnStats.WriteConflicts, &rp.txnStats.GCReclaimed,
		} {
			if *dst, err = r.uvarint(); err != nil {
				return err
			}
		}
		return nil
	case adminRepl, adminPromote:
		return decodeAdminRepl(rp, r)
	case adminPool:
		return decodeAdminPool(rp, r)
	default:
		return fmt.Errorf("server: unknown admin code %d", rp.admin)
	}
}

func decodeAdminPool(rp *reply, r *frameReader) (err error) {
	if rp.poolOn, err = r.bool(); err != nil {
		return err
	}
	if !rp.poolOn {
		return nil
	}
	st := &rp.pool
	for _, dst := range [...]*int{&st.Capacity, &st.Resident, &st.Dirty} {
		v, err := r.varint()
		if err != nil {
			return err
		}
		if v < 0 || v > math.MaxInt32 {
			return fmt.Errorf("server: pool frame count out of range")
		}
		*dst = int(v)
	}
	for _, dst := range [...]*uint64{&st.Hits, &st.Misses, &st.Evictions, &st.Writebacks, &st.LoadWaits} {
		if *dst, err = r.uvarint(); err != nil {
			return err
		}
	}
	for _, dst := range [...]*int{&st.SpilledTables, &st.PinnedTables, &st.HeapPages, &st.FreePages} {
		v, err := r.varint()
		if err != nil {
			return err
		}
		if v < 0 || v > math.MaxInt32 {
			return fmt.Errorf("server: pool table count out of range")
		}
		*dst = int(v)
	}
	if st.DeadSlots, err = r.uvarint(); err != nil {
		return err
	}
	if st.ReclaimedPages, err = r.uvarint(); err != nil {
		return err
	}
	nshards, err := r.count()
	if err != nil {
		return err
	}
	for i := 0; i < nshards; i++ {
		var sh storage.PoolShardStats
		for _, dst := range [...]*int{&sh.Capacity, &sh.Resident} {
			v, err := r.varint()
			if err != nil {
				return err
			}
			if v < 0 || v > math.MaxInt32 {
				return fmt.Errorf("server: pool shard frame count out of range")
			}
			*dst = int(v)
		}
		for _, dst := range [...]*uint64{&sh.Hits, &sh.Misses, &sh.Evictions} {
			if *dst, err = r.uvarint(); err != nil {
				return err
			}
		}
		st.Shards = append(st.Shards, sh)
	}
	n, err := r.count()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		var t storage.PoolTableInfo
		if t.Name, err = r.string(); err != nil {
			return err
		}
		pages, err := r.varint()
		if err != nil {
			return err
		}
		if pages < 0 || pages > math.MaxInt32 {
			return fmt.Errorf("server: pool page count out of range")
		}
		t.Pages = int(pages)
		free, err := r.varint()
		if err != nil {
			return err
		}
		if free < 0 || free > math.MaxInt32 {
			return fmt.Errorf("server: pool page count out of range")
		}
		t.FreePages = int(free)
		if t.DeadSlots, err = r.uvarint(); err != nil {
			return err
		}
		st.Tables = append(st.Tables, t)
	}
	return nil
}
