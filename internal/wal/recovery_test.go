package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// buildSegment writes a single-segment log with one create and n inserts,
// closes it, and returns the segment file's bytes plus the offsets at which
// each record frame ends (relative to the file start).
func buildSegment(t *testing.T, n int) (data []byte, recordEnds []int) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	l, cat := openLog(t, dir, Options{})
	attach(cat, l)
	tbl, err := cat.Create("T", flightsSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(value.NewTuple(i, "Paris")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	off := segHeaderLen
	for off < len(data) {
		frameLen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 8 + frameLen
		recordEnds = append(recordEnds, off)
	}
	if off != len(data) {
		t.Fatalf("frame walk ended at %d of %d", off, len(data))
	}
	return data, recordEnds
}

// TestRecoverEveryTruncationPoint cuts the segment at every byte boundary —
// the exhaustive kill-9 simulation — and asserts replay recovers exactly the
// record prefix that fully fits, then that the truncated log accepts new
// appends and survives another restart.
func TestRecoverEveryTruncationPoint(t *testing.T) {
	data, ends := buildSegment(t, 5)
	base := t.TempDir()
	for cut := 0; cut <= len(data); cut++ {
		wantRecs := 0
		for _, e := range ends {
			if e <= cut {
				wantRecs++
			}
		}
		dir := filepath.Join(base, "w")
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cat := storage.NewCatalog()
		l, err := OpenLog(dir, cat, Options{})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if got := l.Recovered().Records; got != wantRecs {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, got, wantRecs)
		}
		wantRows := wantRecs - 1 // first record is the create
		if wantRecs == 0 {
			wantRows = 0
			if cat.Has("T") {
				t.Fatalf("cut=%d: table exists with no records replayed", cut)
			}
		} else {
			tbl, err := cat.Get("T")
			if err != nil {
				t.Fatalf("cut=%d: %v", cut, err)
			}
			if tbl.Len() != wantRows {
				t.Fatalf("cut=%d: %d rows, want %d", cut, tbl.Len(), wantRows)
			}
		}
		// The truncated log must keep working: append, restart, recount.
		attach(cat, l)
		if wantRecs == 0 {
			if _, err := cat.Create("T", flightsSchema()); err != nil {
				t.Fatalf("cut=%d: %v", cut, err)
			}
		}
		tbl, _ := cat.Get("T")
		if _, err := tbl.Insert(value.NewTuple(900+cut, "Oslo")); err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		cat2 := storage.NewCatalog()
		l2, err := OpenLog(dir, cat2, Options{})
		if err != nil {
			t.Fatalf("cut=%d reopen: %v", cut, err)
		}
		tbl2, err := cat2.Get("T")
		if err != nil {
			t.Fatalf("cut=%d reopen: %v", cut, err)
		}
		if tbl2.Len() != wantRows+1 {
			t.Fatalf("cut=%d reopen: %d rows, want %d", cut, tbl2.Len(), wantRows+1)
		}
		l2.Close() //nolint:errcheck
	}
}

// TestRecoverEveryByteFlip flips each byte of the tail segment in turn. A
// flip inside the segment header is corruption of a segment that holds
// records: recovery must fail, name the segment and leave the file
// byte-identical. A flip past the header must be caught by the CRC (or an
// impossible length), and replay must yield a clean prefix of the original
// records — never an error, never a mangled row.
func TestRecoverEveryByteFlip(t *testing.T) {
	data, _ := buildSegment(t, 5)
	base := t.TempDir()
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		dir := filepath.Join(base, "w")
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		cat := storage.NewCatalog()
		l, err := OpenLog(dir, cat, Options{})
		if i < segHeaderLen {
			if err == nil {
				l.Close() //nolint:errcheck
				t.Fatalf("flip@%d: header corruption recovered %d records, want an error",
					i, l.Recovered().Records)
			}
			if !strings.Contains(err.Error(), segName(1)) {
				t.Fatalf("flip@%d: error does not name the segment: %v", i, err)
			}
			if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, mut) {
				t.Fatalf("flip@%d: failed recovery modified the segment (%v)", i, rerr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("flip@%d: %v", i, err)
		}
		// Whatever survived must be an intact prefix: every recovered row is
		// one of the originals, with its original payload.
		if cat.Has("T") {
			tbl, _ := cat.Get("T")
			tbl.Scan(func(id storage.RowID, row value.Tuple) bool {
				if len(row) != 2 || row[0].Int() != int64(id-1) || row[1].Str() != "Paris" {
					t.Fatalf("flip@%d: mangled row %d = %v", i, id, row)
				}
				return true
			})
		}
		l.Close() //nolint:errcheck
	}
}

// TestSegmentHeaderTornOrCorrupt pins where a damaged header stops being a
// torn write: a header that is short, all zero, or garbled with nothing
// behind it is torn at offset 0; a garbled header with records behind it is
// corruption.
func TestSegmentHeaderTornOrCorrupt(t *testing.T) {
	data, _ := buildSegment(t, 3)
	garbled := append([]byte(nil), data...)
	garbled[5] ^= 0x01 // flags byte: checksum no longer matches
	zeroed := append(make([]byte, segHeaderLen), data[segHeaderLen:]...)
	for _, tc := range []struct {
		name    string
		data    []byte
		corrupt bool
	}{
		{"empty", nil, false},
		{"short", data[:segHeaderLen-1], false},
		{"zero header", zeroed, false},
		{"garbled header alone", garbled[:segHeaderLen], false},
		{"garbled header with records", garbled, true},
	} {
		d := decodeSegmentBytes(tc.data)
		if tc.corrupt {
			if d.err == nil || d.torn || len(d.recs) != 0 {
				t.Errorf("%s: err=%v torn=%v records=%d, want corruption", tc.name, d.err, d.torn, len(d.recs))
			}
		} else if d.err != nil || !d.torn || d.good != 0 {
			t.Errorf("%s: err=%v torn=%v good=%d, want torn at 0", tc.name, d.err, d.torn, d.good)
		}
	}
}

// TestSealedSegmentCorruptionFails: damage anywhere in a sealed (non-tail)
// segment is corruption, not a torn write — recovery must refuse.
func TestSealedSegmentCorruptionFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, cat := openLog(t, dir, Options{SegmentBytes: 128})
	attach(cat, l)
	tbl, _ := cat.Create("T", flightsSchema())
	for i := 0; i < 40; i++ {
		tbl.Insert(value.NewTuple(i, "Paris")) //nolint:errcheck
	}
	if len(l.Segments()) < 3 {
		t.Fatalf("need sealed segments: %+v", l.Segments())
	}
	sealedPath := l.Segments()[0].Path
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Truncate the sealed segment mid-record.
	data, err := os.ReadFile(sealedPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sealedPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(dir, storage.NewCatalog(), Options{}); err == nil {
		t.Error("torn sealed segment accepted")
	}

	// A byte flip inside a sealed segment must also refuse.
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0xff
	if err := os.WriteFile(sealedPath, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(dir, storage.NewCatalog(), Options{}); err == nil {
		t.Error("corrupt sealed segment accepted")
	}

	// Restoring the original bytes recovers cleanly.
	if err := os.WriteFile(sealedPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, cat2 := openLog(t, dir, Options{})
	defer l2.Close()
	if tbl2, err := cat2.Get("T"); err != nil || tbl2.Len() != 40 {
		t.Errorf("restore: %v, rows=%d", err, tbl2.Len())
	}
	_ = cat
}
