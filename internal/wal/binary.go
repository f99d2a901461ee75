package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/storage"
	"repro/internal/value"
)

// Binary record format (log format v2).
//
// A segment file is an 8-byte header followed by framed records:
//
//	header:  "YWAL" | version (1 byte) | flags (1 byte) | 2 reserved bytes
//	record:  payload length (uint32 LE) | CRC32-C of payload (uint32 LE) | payload
//
// The payload is a compact self-describing encoding of one storage.LogRecord:
// an op byte, the table name, then op-specific fields (schema columns, index
// columns, row id, row values). Integers are varints, floats are 8 raw bytes,
// strings are length-prefixed. The CRC covers the payload only; the length
// field is validated against the bytes remaining in the segment, so a torn
// write at any byte boundary is detected either by an impossible length or a
// checksum mismatch — never by a misdecode.

const (
	segHeaderLen = 8
	segVersion   = 2

	// flagSnapshot marks a segment written by compaction: it is a complete
	// snapshot of the database state, so recovery starts at the newest
	// snapshot segment and ignores anything older.
	flagSnapshot = 1

	// maxRecordLen bounds a single record so a corrupt length field cannot
	// drive a huge allocation.
	maxRecordLen = 64 << 20
)

var segMagic = [4]byte{'Y', 'W', 'A', 'L'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// opCode maps storage.LogOp to its wire byte (and back via opFromCode).
func opCode(op storage.LogOp) (byte, bool) {
	switch op {
	case storage.OpCreateTable:
		return 1, true
	case storage.OpDropTable:
		return 2, true
	case storage.OpCreateIndex:
		return 3, true
	case storage.OpCreateOrderedIndex:
		return 4, true
	case storage.OpInsert:
		return 5, true
	case storage.OpDelete:
		return 6, true
	case storage.OpUpdate:
		return 7, true
	case storage.OpRestore:
		return 8, true
	case storage.OpCommit:
		return 9, true
	default:
		return 0, false
	}
}

func opFromCode(c byte) (storage.LogOp, bool) {
	switch c {
	case 1:
		return storage.OpCreateTable, true
	case 2:
		return storage.OpDropTable, true
	case 3:
		return storage.OpCreateIndex, true
	case 4:
		return storage.OpCreateOrderedIndex, true
	case 5:
		return storage.OpInsert, true
	case 6:
		return storage.OpDelete, true
	case 7:
		return storage.OpUpdate, true
	case 8:
		return storage.OpRestore, true
	case 9:
		return storage.OpCommit, true
	default:
		return "", false
	}
}

// The final two header bytes checksum the first six, so a bit flip in the
// flags byte cannot silently turn an ordinary segment into a "snapshot"
// (which would make recovery discard everything older than it).
func segHeader(flags byte) []byte {
	h := make([]byte, segHeaderLen)
	copy(h, segMagic[:])
	h[4] = segVersion
	h[5] = flags
	sum := crc32.Checksum(h[:6], crcTable)
	binary.LittleEndian.PutUint16(h[6:], uint16(sum))
	return h
}

// parseSegHeader validates an on-disk header, returning its flags.
func parseSegHeader(b []byte) (flags byte, err error) {
	if len(b) < segHeaderLen {
		return 0, fmt.Errorf("wal: segment header truncated (%d bytes)", len(b))
	}
	if [4]byte(b[:4]) != segMagic {
		return 0, fmt.Errorf("wal: bad segment magic %q", b[:4])
	}
	if b[4] != segVersion {
		return 0, fmt.Errorf("wal: unsupported segment version %d", b[4])
	}
	sum := crc32.Checksum(b[:6], crcTable)
	if binary.LittleEndian.Uint16(b[6:]) != uint16(sum) {
		return 0, fmt.Errorf("wal: segment header checksum mismatch")
	}
	return b[5], nil
}

func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

func appendString(dst []byte, s string) []byte { return storage.AppendString(dst, s) }

// appendValue delegates to the storage codec (storage/codec.go), the single
// implementation shared with the buffer pool's heap pages — a tuple's WAL
// bytes and its on-page bytes are the same encoding.
func appendValue(dst []byte, v value.Value) []byte { return storage.AppendValue(dst, v) }

// appendRecordPayload encodes r (without framing) onto dst.
func appendRecordPayload(dst []byte, r storage.LogRecord) ([]byte, error) {
	code, ok := opCode(r.Op)
	if !ok {
		return dst, fmt.Errorf("wal: cannot encode op %q", r.Op)
	}
	dst = append(dst, code)
	dst = appendString(dst, r.Table)
	switch r.Op {
	case storage.OpCreateTable:
		if r.Schema == nil {
			return dst, fmt.Errorf("wal: create record for %q has no schema", r.Table)
		}
		dst = appendUvarint(dst, uint64(len(r.Schema.Columns)))
		for _, c := range r.Schema.Columns {
			dst = appendString(dst, c.Name)
			dst = append(dst, byte(c.Type))
		}
		dst = appendUvarint(dst, uint64(len(r.PK)))
		for _, p := range r.PK {
			dst = appendString(dst, p)
		}
	case storage.OpDropTable:
		// Table name only.
	case storage.OpCreateIndex, storage.OpCreateOrderedIndex:
		dst = appendUvarint(dst, uint64(len(r.Cols)))
		for _, c := range r.Cols {
			dst = appendString(dst, c)
		}
		// The index name was added after format v2 shipped; it is appended
		// only when set, and the decoder treats it as optional-trailing (the
		// same evolution scheme as the transaction tag below), so old and new
		// records interoperate both ways.
		if r.Index != "" {
			dst = appendString(dst, r.Index)
		}
	case storage.OpCommit:
		dst = appendUvarint(dst, r.TS)
		dst = appendUvarint(dst, r.Txn)
	default: // row ops
		dst = appendUvarint(dst, uint64(r.RowID))
		dst = appendUvarint(dst, uint64(len(r.Row)))
		for _, v := range r.Row {
			dst = appendValue(dst, v)
		}
		dst = appendUvarint(dst, r.Txn)
	}
	return dst, nil
}

// appendFramedRecord encodes r with its length+CRC frame onto dst.
func appendFramedRecord(dst []byte, r storage.LogRecord) ([]byte, error) {
	// Reserve the frame, encode, then back-patch length and CRC.
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst, err := appendRecordPayload(dst, r)
	if err != nil {
		return dst[:start], err
	}
	payload := dst[start+8:]
	if len(payload) > maxRecordLen {
		// Refuse at write time: an oversized record would be acknowledged
		// as durable yet rejected by the decoder's length guard on replay.
		return dst[:start], fmt.Errorf("wal: record payload %d bytes exceeds the %d-byte limit", len(payload), maxRecordLen)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst, nil
}

// byteReader is a bounds-checked cursor over a record payload. Every read
// reports an error instead of panicking, so arbitrarily corrupt (but
// CRC-colliding) input degrades to a decode error.
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) remaining() int { return len(r.b) - r.off }

func (r *byteReader) u8() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("wal: record payload truncated")
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wal: bad uvarint in record payload")
	}
	r.off += n
	return v, nil
}

func (r *byteReader) bytes(n int) ([]byte, error) {
	if n < 0 || n > r.remaining() {
		return nil, fmt.Errorf("wal: record payload truncated (want %d bytes, have %d)", n, r.remaining())
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *byteReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.remaining()) {
		return "", fmt.Errorf("wal: string length %d exceeds payload", n)
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// count reads an element count and sanity-checks it against the bytes left
// (each element needs at least one byte), bounding allocations on corrupt
// input.
func (r *byteReader) count() (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.remaining()) {
		return 0, fmt.Errorf("wal: element count %d exceeds payload", n)
	}
	return int(n), nil
}

// value decodes one typed value via the shared storage codec, advancing the
// cursor. Errors are wrapped with the WAL's corruption framing so the
// decoder's never-panic contract and messages stay recognizable.
func (r *byteReader) value() (value.Value, error) {
	v, n, err := storage.DecodeValue(r.b[r.off:])
	if err != nil {
		return value.Null, fmt.Errorf("wal: %w", err)
	}
	r.off += n
	return v, nil
}

// decodeRecordPayload decodes one framed payload back into a LogRecord. The
// whole payload must be consumed: trailing bytes mean corruption (or a newer
// writer), not padding.
func decodeRecordPayload(b []byte) (storage.LogRecord, error) {
	r := byteReader{b: b}
	var rec storage.LogRecord
	code, err := r.u8()
	if err != nil {
		return rec, err
	}
	op, ok := opFromCode(code)
	if !ok {
		return rec, fmt.Errorf("wal: unknown op code %d", code)
	}
	rec.Op = op
	if rec.Table, err = r.str(); err != nil {
		return rec, err
	}
	switch op {
	case storage.OpCreateTable:
		ncols, err := r.count()
		if err != nil {
			return rec, err
		}
		schema := value.NewSchema()
		for i := 0; i < ncols; i++ {
			name, err := r.str()
			if err != nil {
				return rec, err
			}
			t, err := r.u8()
			if err != nil {
				return rec, err
			}
			if value.Type(t) > value.TypeBool {
				return rec, fmt.Errorf("wal: unknown column type %d", t)
			}
			schema.Columns = append(schema.Columns, value.Col(name, value.Type(t)))
		}
		rec.Schema = schema
		npk, err := r.count()
		if err != nil {
			return rec, err
		}
		for i := 0; i < npk; i++ {
			p, err := r.str()
			if err != nil {
				return rec, err
			}
			rec.PK = append(rec.PK, p)
		}
	case storage.OpDropTable:
	case storage.OpCreateIndex, storage.OpCreateOrderedIndex:
		n, err := r.count()
		if err != nil {
			return rec, err
		}
		for i := 0; i < n; i++ {
			c, err := r.str()
			if err != nil {
				return rec, err
			}
			rec.Cols = append(rec.Cols, c)
		}
		// Optional user-assigned index name (absent in records written before
		// named indexes existed).
		if r.remaining() > 0 {
			if rec.Index, err = r.str(); err != nil {
				return rec, err
			}
		}
	case storage.OpCommit:
		if rec.TS, err = r.uvarint(); err != nil {
			return rec, err
		}
		// The transaction tag was added after format v2 shipped; records
		// written before it simply end here, so it decodes as optional.
		if r.remaining() > 0 {
			if rec.Txn, err = r.uvarint(); err != nil {
				return rec, err
			}
		}
	default:
		rid, err := r.uvarint()
		if err != nil {
			return rec, err
		}
		rec.RowID = storage.RowID(rid)
		n, err := r.count()
		if err != nil {
			return rec, err
		}
		if n > 0 {
			rec.Row = make(value.Tuple, 0, n)
			for i := 0; i < n; i++ {
				v, err := r.value()
				if err != nil {
					return rec, err
				}
				rec.Row = append(rec.Row, v)
			}
		}
		// Optional transaction tag, as for OpCommit above.
		if r.remaining() > 0 {
			if rec.Txn, err = r.uvarint(); err != nil {
				return rec, err
			}
		}
	}
	if r.remaining() != 0 {
		return rec, fmt.Errorf("wal: %d trailing bytes in record payload", r.remaining())
	}
	return rec, nil
}

// decodeRecords walks the framed records in data (a segment body, after the
// header). It returns the cleanly decoded prefix, the byte offset just past
// the last good record (relative to data), and how decoding stopped:
//
//   - err == nil, torn == false: the whole body decoded.
//   - err == nil, torn == true: a frame-level failure (impossible length or
//     CRC mismatch) at the returned offset — the signature of a torn write.
//     The caller truncates there if this is the live tail, or treats it as
//     corruption if the segment was sealed.
//   - err != nil: a CRC-valid payload failed to decode — never expected from
//     a torn write, always reported as corruption.
func decodeRecords(data []byte) (recs []storage.LogRecord, good int, torn bool, err error) {
	// Count the frames first and allocate once: records are large, and
	// regrowing recs per append would double a replay's allocated bytes.
	n := 0
	for off := 0; len(data)-off >= 8 && binary.LittleEndian.Uint32(data[off:]) != 0; n++ {
		off += 8 + int(binary.LittleEndian.Uint32(data[off:]))
	}
	recs = make([]storage.LogRecord, 0, n)
	off := 0
	for len(data)-off >= 8 {
		n := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 || n > maxRecordLen || int(n) > len(data)-off-8 {
			return recs, off, true, nil
		}
		payload := data[off+8 : off+8+int(n)]
		if crc32.Checksum(payload, crcTable) != crc {
			return recs, off, true, nil
		}
		rec, derr := decodeRecordPayload(payload)
		if derr != nil {
			return recs, off, false, fmt.Errorf("wal: record %d: %w", len(recs)+1, derr)
		}
		recs = append(recs, rec)
		off += 8 + int(n)
	}
	if off != len(data) {
		return recs, off, true, nil // partial frame header at the tail
	}
	return recs, off, false, nil
}
