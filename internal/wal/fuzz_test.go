package wal

import (
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// FuzzWALDecode feeds arbitrary (including randomly corrupted) segment
// images to the binary decoder and replays whatever comes out. The contract
// under corruption is truncate-or-error: decoding must never panic, must
// never report more than it consumed, and every record it does return must
// itself be re-encodable — i.e. structurally intact, not a misparse.
func FuzzWALDecode(f *testing.F) {
	// Seed with a valid segment (header + create + inserts + churn).
	var seed []byte
	seed = append(seed, segHeader(0)...)
	schema := value.NewSchema(value.Col("fno", value.TypeInt), value.Col("dest", value.TypeString))
	recs := []storage.LogRecord{
		{Op: storage.OpCreateTable, Table: "T", Schema: schema, PK: []string{"fno"}},
		{Op: storage.OpCreateIndex, Table: "T", Cols: []string{"dest"}},
		{Op: storage.OpInsert, Table: "T", RowID: 1, Row: value.NewTuple(122, "Paris")},
		{Op: storage.OpInsert, Table: "T", RowID: 2, Row: value.NewTuple(-9, "Rome")},
		{Op: storage.OpUpdate, Table: "T", RowID: 2, Row: value.NewTuple(2.5, "Milan")},
		{Op: storage.OpDelete, Table: "T", RowID: 1},
		{Op: storage.OpInsert, Table: "T", RowID: 3, Row: value.NewTuple(nil, true)},
		{Op: storage.OpInsert, Table: "T", RowID: 4, Row: value.NewTuple(7, "Oslo"), Txn: 1},
		{Op: storage.OpUpdate, Table: "T", RowID: 2, Row: value.NewTuple(3, "Nice"), Txn: 1},
		{Op: storage.OpCommit, TS: 9, Txn: 1},
		{Op: storage.OpDelete, Table: "T", RowID: 4, Txn: 2},
	}
	for _, r := range recs {
		var err error
		seed, err = appendFramedRecord(seed, r)
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-5])
	f.Add(seed[:segHeaderLen])
	f.Add([]byte{})
	f.Add([]byte("YWAL\x02\x00\x00\x00\xff\xff\xff\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := decodeSegmentBytes(data)
		if d.good < 0 || d.good > int64(len(data)) {
			t.Fatalf("good offset %d out of range [0,%d]", d.good, len(data))
		}
		if d.err != nil && d.torn {
			t.Fatal("decode reported both torn and corrupt")
		}
		// Every returned record must re-encode: a record that decodes but
		// cannot encode again was misparsed, not recovered.
		buf := make([]byte, 0, 256)
		for _, rec := range d.recs {
			var err error
			buf, err = appendFramedRecord(buf[:0], rec)
			if err != nil {
				t.Fatalf("decoded record does not re-encode: %+v: %v", rec, err)
			}
		}
		// Replay — through the Applier, the path recovery takes — must
		// degrade to an error at worst, never a panic.
		a := NewApplier(storage.NewCatalog())
		for _, rec := range d.recs {
			if err := a.Apply(rec); err != nil {
				break
			}
		}
	})
}
