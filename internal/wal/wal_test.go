package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// loggedCatalog opens a fresh log at dir and wires every catalog mutation
// into it.
func loggedCatalog(t *testing.T, dir string) (*storage.Catalog, *Log) {
	t.Helper()
	l, cat := openLog(t, dir, Options{})
	attach(cat, l)
	return cat, l
}

// reopen replays the closed log at dir into a fresh catalog.
func reopen(t *testing.T, dir string) (*storage.Catalog, RecoveryInfo) {
	t.Helper()
	l, cat := openLog(t, dir, Options{})
	info := l.Recovered()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return cat, info
}

func flightsSchema() *value.Schema {
	return value.NewSchema(value.Col("fno", value.TypeInt), value.Col("dest", value.TypeString))
}

// TestRecoverMissingFile: a log path that does not exist yet is a fresh
// database — OpenLog creates the directory and replays nothing.
func TestRecoverMissingFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "absent")
	cat, info := reopen(t, dir)
	if info.Records != 0 || info.Segments != 0 || len(cat.Names()) != 0 {
		t.Fatalf("recovered %+v, tables %v", info, cat.Names())
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("log directory not created: %v %v", fi, err)
	}
}

func TestLogAndRecoverRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cat, l := loggedCatalog(t, dir)

	tbl, err := cat.Create("Flights", flightsSchema(), "fno")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("dest"); err != nil {
		t.Fatal(err)
	}
	id1, _ := tbl.Insert(value.NewTuple(122, "Paris"))
	id2, _ := tbl.Insert(value.NewTuple(136, "Rome"))
	tbl.Update(id2, value.NewTuple(136, "Milan")) //nolint:errcheck
	id3, _ := tbl.Insert(value.NewTuple(140, "Oslo"))
	tbl.Delete(id3) //nolint:errcheck
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover into a fresh catalog.
	cat2, info := reopen(t, dir)
	if info.Records != 7 { // create, index, ins, ins, upd, ins, del
		t.Errorf("applied %d records", info.Records)
	}
	tbl2, err := cat2.Get("Flights")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != 2 {
		t.Fatalf("recovered %d rows", tbl2.Len())
	}
	row, err := tbl2.Get(id1)
	if err != nil || row[1].Str() != "Paris" {
		t.Errorf("row1 = %v, %v", row, err)
	}
	row, err = tbl2.Get(id2)
	if err != nil || row[1].Str() != "Milan" {
		t.Errorf("row2 = %v, %v", row, err)
	}
	// Index recovered.
	if !tbl2.HasIndex([]int{1}) {
		t.Error("index not recovered")
	}
	// PK recovered: duplicate insert must fail.
	if _, err := tbl2.Insert(value.NewTuple(122, "Dup")); err == nil {
		t.Error("PK not recovered")
	}
	// RowID continuity: fresh inserts must not reuse ids.
	newID, err := tbl2.Insert(value.NewTuple(150, "Lima"))
	if err != nil {
		t.Fatal(err)
	}
	if newID <= id3 {
		t.Errorf("rowid %d reused (last was %d)", newID, id3)
	}
}

func TestRecoverDrop(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cat, l := loggedCatalog(t, dir)
	cat.Create("Tmp", flightsSchema())  //nolint:errcheck
	cat.Drop("Tmp")                     //nolint:errcheck
	cat.Create("Keep", flightsSchema()) //nolint:errcheck
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	cat2, _ := reopen(t, dir)
	if cat2.Has("Tmp") || !cat2.Has("Keep") {
		t.Errorf("names = %v", cat2.Names())
	}
}

func TestValueTaggedRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cat, l := loggedCatalog(t, dir)
	schema := value.NewSchema(
		value.Col("i", value.TypeInt), value.Col("f", value.TypeFloat),
		value.Col("s", value.TypeString), value.Col("b", value.TypeBool),
		value.Col("n", value.TypeInt),
	)
	cat.Create("V", schema) //nolint:errcheck
	tbl, _ := cat.Get("V")
	orig := value.NewTuple(7, 2.5, "x", true, nil)
	id, err := tbl.Insert(orig)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	cat2, _ := reopen(t, dir)
	tbl2, _ := cat2.Get("V")
	row, err := tbl2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !row.Equal(orig) {
		t.Errorf("round trip %v != %v", row, orig)
	}
}

func TestRolledBackTxnConvergesOnReplay(t *testing.T) {
	// The log records both the mutation and its compensation; replay must
	// converge to the committed state only.
	dir := filepath.Join(t.TempDir(), "wal")
	cat, l := loggedCatalog(t, dir)
	cat.Create("T", flightsSchema()) //nolint:errcheck
	tbl, _ := cat.Get("T")
	keep, _ := tbl.Insert(value.NewTuple(1, "keep"))

	// Simulate what txn.Rollback does: apply, then compensate.
	id, _ := tbl.Insert(value.NewTuple(2, "doomed"))
	tbl.Delete(id) //nolint:errcheck
	old, _ := tbl.Delete(keep)
	tbl.RestoreAt(keep, old) //nolint:errcheck
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	cat2, _ := reopen(t, dir)
	tbl2, _ := cat2.Get("T")
	if tbl2.Len() != 1 {
		t.Fatalf("rows = %d", tbl2.Len())
	}
	row, _ := tbl2.Get(keep)
	if row[1].Str() != "keep" {
		t.Errorf("row = %v", row)
	}
}

func TestRecoverUnknownOp(t *testing.T) {
	err := NewApplier(storage.NewCatalog()).Apply(storage.LogRecord{Op: "explode", Table: "T"})
	if err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("err = %v", err)
	}
}

// TestLegacyJSONRefused: the retired JSON-lines log format is not read, and
// must not be mistaken for an empty log either — a JSON file at the log
// path, or a "*.json" segment inside the log directory, fails OpenLog with
// an error naming it and is left byte-identical.
func TestLegacyJSONRefused(t *testing.T) {
	legacy := []byte(`{"op":"create","table":"T","schema":[{"name":"fno","type":"INT"}]}` + "\n" +
		`{"op":"insert","table":"T","rid":1,"row":[{"t":"i","i":122}]}` + "\n")

	t.Run("file at path", func(t *testing.T) {
		base := t.TempDir()
		path := filepath.Join(base, "y.wal")
		if err := os.WriteFile(path, legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenLog(path, storage.NewCatalog(), Options{})
		if err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("OpenLog err = %v, want a refusal naming %s", err, path)
		}
		assertUntouched(t, base, "y.wal", path, legacy)
	})

	t.Run("segment in dir", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "wal")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, "00000001.json")
		if err := os.WriteFile(seg, legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenLog(dir, storage.NewCatalog(), Options{})
		if err == nil || !strings.Contains(err.Error(), seg) {
			t.Fatalf("OpenLog err = %v, want a refusal naming %s", err, seg)
		}
		assertUntouched(t, dir, "00000001.json", seg, legacy)
	})
}

// assertUntouched checks that dir holds exactly the one entry name and that
// path still has the bytes want.
func assertUntouched(t *testing.T, dir, name, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("%s changed: %q, %v", path, got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != name {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Errorf("%s holds %v, want only %s", dir, names, name)
	}
}

func TestTableIndexAccessors(t *testing.T) {
	tbl, err := storage.NewTable("T", flightsSchema(), "fno")
	if err != nil {
		t.Fatal(err)
	}
	tbl.CreateIndex("dest")        //nolint:errcheck
	tbl.CreateIndex("fno", "dest") //nolint:errcheck
	ixs := tbl.Indexes()
	if len(ixs) != 2 {
		t.Fatalf("indexes = %v", ixs)
	}
	if tbl2, _ := storage.NewTable("U", flightsSchema()); tbl2.PrimaryKey() != nil {
		t.Error("PK of keyless table should be nil")
	}
}
