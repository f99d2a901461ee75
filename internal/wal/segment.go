package wal

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/storage"
	"repro/internal/value"
)

// Segment files live inside the log directory and are named by sequence
// number: "00000001.wal". Higher sequence numbers are strictly newer; the
// highest segment is the live tail, everything below it is sealed (fsynced
// at rotation and never written again).

// SegmentInfo describes one on-disk segment (admin surface).
type SegmentInfo struct {
	Seq      uint64
	Path     string
	Bytes    int64
	Sealed   bool
	Snapshot bool
}

func segName(seq uint64) string { return fmt.Sprintf("%08d.wal", seq) }

// parseSegName extracts the sequence number from a segment file name.
func parseSegName(name string) (seq uint64, ok bool) {
	if !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 10, 64)
	if err != nil || n == 0 {
		return 0, false
	}
	return n, true
}

// listSegments returns the segments in dir in replay (sequence) order. A
// "*.json" file is refused rather than skipped: it may be a segment of the
// retired JSON log format, and starting an empty log beside it would hide
// its data.
func listSegments(fsys FS, dir string) ([]SegmentInfo, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []SegmentInfo
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".json") {
			return nil, fmt.Errorf("wal: %s is a JSON log file, a format this version does not read",
				filepath.Join(dir, e.Name()))
		}
		seq, ok := parseSegName(e.Name())
		if !ok {
			continue // tmp files, strays
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, SegmentInfo{Seq: seq, Path: filepath.Join(dir, e.Name()), Bytes: info.Size()})
	}
	// "1.wal" and "00000001.wal" both parse as sequence 1; such twins are
	// never written by the log and are reported.
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	for i := 1; i < len(segs); i++ {
		if segs[i].Seq == segs[i-1].Seq {
			return nil, fmt.Errorf("wal: duplicate segment sequence %d (%s and %s)",
				segs[i].Seq, segs[i-1].Path, segs[i].Path)
		}
	}
	return segs, nil
}

// segmentDecode is the outcome of decoding one whole segment file.
type segmentDecode struct {
	recs     []storage.LogRecord
	good     int64 // file offset just past the last good record
	torn     bool  // frame-level failure at good (torn write signature)
	snapshot bool
	err      error
}

// decodeSegmentBytes decodes a binary segment image (header + records).
// A header that is short, all zero bytes, or garbled with nothing after it
// counts as torn at offset 0 — the signature of a crash immediately after
// segment creation. A complete, non-zero header that fails validation and is
// followed by records is corruption: treating it as torn would truncate every
// record behind it.
func decodeSegmentBytes(data []byte) segmentDecode {
	if len(data) < segHeaderLen || [segHeaderLen]byte(data) == [segHeaderLen]byte{} {
		return segmentDecode{torn: true}
	}
	flags, err := parseSegHeader(data)
	if err != nil {
		if len(data) == segHeaderLen {
			return segmentDecode{torn: true}
		}
		return segmentDecode{err: err}
	}
	recs, good, torn, derr := decodeRecords(data[segHeaderLen:])
	return segmentDecode{
		recs: recs, good: int64(segHeaderLen + good), torn: torn,
		snapshot: flags&flagSnapshot != 0, err: derr,
	}
}

// decodeSegmentFile reads and decodes one segment.
func decodeSegmentFile(fsys FS, seg SegmentInfo) segmentDecode {
	data, err := fsys.ReadFile(seg.Path)
	if err != nil {
		return segmentDecode{err: err}
	}
	return decodeSegmentBytes(data)
}

// writeSnapshotSegment writes a snapshot-flagged segment holding the minimal
// record sequence that recreates cat's committed state (one create per
// table, one insert per committed row, then its indexes, then a commit),
// followed by the carry records, through a temp file, fsync and rename. It
// returns the final file size.
func writeSnapshotSegment(fsys FS, dir string, seq uint64, cat *storage.Catalog, carry []storage.LogRecord) (int64, error) {
	tmp := filepath.Join(dir, segName(seq)+".tmp")
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	defer fsys.Remove(tmp) // no-op after the rename succeeds
	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := w.Write(segHeader(flagSnapshot)); err != nil {
		f.Close()
		return 0, err
	}
	var buf []byte
	emit := func(r storage.LogRecord) error {
		var err error
		buf, err = appendFramedRecord(buf[:0], r)
		if err != nil {
			return err
		}
		_, err = w.Write(buf)
		return err
	}
	if err := snapshotRecords(cat, carry, emit); err != nil {
		f.Close()
		return 0, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	size, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, segName(seq))); err != nil {
		return 0, err
	}
	return size, fsys.SyncDir(dir)
}

// snapshotRecords feeds emit the canonical snapshot record sequence for cat,
// then the carry records.
func snapshotRecords(cat *storage.Catalog, carry []storage.LogRecord, emit func(storage.LogRecord) error) error {
	for _, name := range cat.Names() {
		tbl, err := cat.Get(name)
		if err != nil {
			return fmt.Errorf("wal: snapshot: %w", err)
		}
		if err := emit(storage.LogRecord{
			Op: storage.OpCreateTable, Table: tbl.Name(),
			Schema: tbl.Schema(), PK: tbl.PrimaryKey(),
		}); err != nil {
			return err
		}
		// StreamAt keeps O(1) tuples materialized while walking a spilled
		// table — essential when the scratch catalog runs with a bounded
		// pool — and the scratch is quiescent, its only consistency
		// requirement. The Latest view skips the versions of transactions
		// still open: they travel as carry records instead.
		var scanErr error
		tbl.StreamAt(storage.Latest(), func(id storage.RowID, row value.Tuple) bool {
			scanErr = emit(storage.LogRecord{Op: storage.OpInsert, Table: tbl.Name(), RowID: id, Row: row})
			return scanErr == nil
		})
		if scanErr != nil {
			return scanErr
		}
		// Indexes follow the rows, so replay builds each one with a single
		// sort instead of maintaining it row by row.
		for _, ix := range tbl.IndexMeta() {
			op := storage.OpCreateIndex
			if ix.Ordered {
				op = storage.OpCreateOrderedIndex
			}
			if err := emit(storage.LogRecord{Op: op, Table: tbl.Name(), Cols: ix.Cols, Index: ix.Name}); err != nil {
				return err
			}
		}
	}
	// Preserve the MVCC commit clock across compaction: replaying the
	// snapshot alone would restart the clock near the row count.
	if err := emit(storage.LogRecord{Op: storage.OpCommit, TS: cat.Clock()}); err != nil {
		return err
	}
	for _, r := range carry {
		if err := emit(r); err != nil {
			return err
		}
	}
	return nil
}
