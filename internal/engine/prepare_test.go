package engine

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(txn.NewManager(storage.NewCatalog()))
	for _, src := range []string{
		"CREATE TABLE Flights (fno INT, dest STRING, price FLOAT, PRIMARY KEY (fno))",
		"CREATE INDEX ON Flights (dest)",
		"INSERT INTO Flights VALUES (1, 'Paris', 100.0), (2, 'Paris', 250.0), (3, 'Rome', 180.0), (4, 'Oslo', 90.0)",
	} {
		if _, err := e.ExecuteSQL(src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	return e
}

func prep(t *testing.T, e *Engine, src string) *Prepared {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare(stmt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPreparedMatchesText: a prepared execution with bound parameters must
// return exactly what the equivalent literal text returns, across statement
// shapes and repeated executions.
func TestPreparedMatchesText(t *testing.T) {
	e := newTestEngine(t)
	cases := []struct {
		tmpl   string
		params value.Tuple
		text   string
	}{
		{"SELECT fno FROM Flights WHERE dest = ? ORDER BY fno", value.NewTuple("Paris"),
			"SELECT fno FROM Flights WHERE dest = 'Paris' ORDER BY fno"},
		{"SELECT fno FROM Flights WHERE dest = ? AND price <= ? ORDER BY fno", value.NewTuple("Paris", 150.0),
			"SELECT fno FROM Flights WHERE dest = 'Paris' AND price <= 150.0 ORDER BY fno"},
		{"SELECT fno FROM Flights WHERE price BETWEEN ? AND ? ORDER BY fno", value.NewTuple(90.0, 190.0),
			"SELECT fno FROM Flights WHERE price BETWEEN 90.0 AND 190.0 ORDER BY fno"},
		{"SELECT COUNT(*) FROM Flights WHERE dest = ?", value.NewTuple("Paris"),
			"SELECT COUNT(*) FROM Flights WHERE dest = 'Paris'"},
		{"SELECT fno FROM Flights WHERE fno IN (SELECT fno FROM Flights WHERE dest = ?) ORDER BY fno", value.NewTuple("Rome"),
			"SELECT fno FROM Flights WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Rome') ORDER BY fno"},
		{"SELECT dest FROM Flights WHERE fno = $1", value.NewTuple(3),
			"SELECT dest FROM Flights WHERE fno = 3"},
	}
	for _, c := range cases {
		p := prep(t, e, c.tmpl)
		want, err := e.ExecuteSQL(c.text)
		if err != nil {
			t.Fatalf("%s: %v", c.text, err)
		}
		for round := 0; round < 3; round++ { // bind-many: reuse the plan
			got, err := p.Execute(c.params)
			if err != nil {
				t.Fatalf("%s round %d: %v", c.tmpl, round, err)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("%s: %d rows, want %d", c.tmpl, len(got.Rows), len(want.Rows))
			}
			for i := range got.Rows {
				if !got.Rows[i].Equal(want.Rows[i]) {
					t.Fatalf("%s row %d: %v, want %v", c.tmpl, i, got.Rows[i], want.Rows[i])
				}
			}
		}
	}
}

// TestPreparedDML: parameters bind in INSERT/UPDATE/DELETE.
func TestPreparedDML(t *testing.T) {
	e := newTestEngine(t)
	ins := prep(t, e, "INSERT INTO Flights VALUES (?, ?, ?)")
	if _, err := ins.Execute(value.NewTuple(10, "Lima", 420.5)); err != nil {
		t.Fatal(err)
	}
	upd := prep(t, e, "UPDATE Flights SET price = ? WHERE fno = ?")
	if res, err := upd.Execute(value.NewTuple(99.5, 10)); err != nil || res.Affected != 1 {
		t.Fatalf("update: %v %v", res, err)
	}
	got, err := e.ExecuteSQL("SELECT price FROM Flights WHERE fno = 10")
	if err != nil || len(got.Rows) != 1 || got.Rows[0][0].Float() != 99.5 {
		t.Fatalf("after update: %v %v", got, err)
	}
	del := prep(t, e, "DELETE FROM Flights WHERE fno = ?")
	if res, err := del.Execute(value.NewTuple(10)); err != nil || res.Affected != 1 {
		t.Fatalf("delete: %v %v", res, err)
	}
}

// TestPreparedParamPushdown: an equality parameter must probe the hash index
// exactly like a literal — observed through the storage layer's lookup
// counters being unavailable, we assert behaviorally: rows come back right
// AND the plan records an eq pushdown slot for the parameter.
func TestPreparedParamPushdown(t *testing.T) {
	e := newTestEngine(t)
	p := prep(t, e, "SELECT fno FROM Flights WHERE dest = ?")
	if _, err := p.Execute(value.NewTuple("Paris")); err != nil {
		t.Fatal(err)
	}
	plan := p.plan.Load()
	if plan == nil || plan.sel == nil {
		t.Fatal("no select plan built")
	}
	fp := plan.sel.froms[0]
	if len(fp.eqCols) != 1 || len(fp.eqSrcs) != 1 || fp.eqSrcs[0].param != 0 {
		t.Fatalf("parameter not planned as eq pushdown: %+v", fp)
	}
}

// TestPreparedDDLInvalidation: schema changes must transparently replan —
// CREATE INDEX is picked up, DROP TABLE turns into a clean error, and
// re-creating the table revives the handle against the new schema.
func TestPreparedDDLInvalidation(t *testing.T) {
	e := newTestEngine(t)
	p := prep(t, e, "SELECT fno FROM Flights WHERE price BETWEEN ? AND ? ORDER BY fno")
	if _, err := p.Execute(value.NewTuple(90.0, 190.0)); err != nil {
		t.Fatal(err)
	}
	if got := p.plan.Load().sel.froms[0]; got.rangeCol >= 0 {
		t.Fatalf("range pushdown without ordered index: %+v", got)
	}
	if _, err := e.ExecuteSQL("CREATE ORDERED INDEX ON Flights (price)"); err != nil {
		t.Fatal(err)
	}
	res, err := p.Execute(value.NewTuple(90.0, 190.0))
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("after index: %v %v", res, err)
	}
	if got := p.plan.Load().sel.froms[0]; got.rangeCol < 0 {
		t.Fatalf("replanned plan ignores the new ordered index: %+v", got)
	}

	if _, err := e.ExecuteSQL("DROP TABLE Flights"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(value.NewTuple(0.0, 1.0)); err == nil {
		t.Fatal("execute after DROP TABLE succeeded")
	} else if !errors.Is(err, storage.ErrNotFound) && !strings.Contains(err.Error(), "not found") {
		t.Fatalf("unexpected error after drop: %v", err)
	}
	if _, err := e.ExecuteSQL("CREATE TABLE Flights (fno INT, dest STRING, price FLOAT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteSQL("INSERT INTO Flights VALUES (7, 'Kyiv', 120.0)"); err != nil {
		t.Fatal(err)
	}
	res, err = p.Execute(value.NewTuple(100.0, 130.0))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
		t.Fatalf("after re-create: %v %v", res, err)
	}
}

// TestPreparedFloatExact: float64 parameters must survive bit-exactly — no
// %g text detour. The text path is not merely lossy for some values, it is
// broken: %g renders small/large magnitudes in exponent form (1e-05), which
// the SQL lexer does not even accept.
func TestPreparedFloatExact(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.ExecuteSQL("CREATE TABLE P (x FLOAT)"); err != nil {
		t.Fatal(err)
	}
	ins := prep(t, e, "INSERT INTO P VALUES (?)")
	get := prep(t, e, "SELECT x FROM P WHERE x = ?")
	for _, f := range []float64{
		math.Pi,
		0.1 + 0.2, // 0.30000000000000004 — classic shortest-form trap
		math.Nextafter(1, 2),
		1e-323, // subnormal
		-math.MaxFloat64,
	} {
		if _, err := ins.Execute(value.NewTuple(f)); err != nil {
			t.Fatal(err)
		}
		res, err := get.Execute(value.NewTuple(f))
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("float %v did not round-trip exactly: %v %v", f, res, err)
		}
		if bits := math.Float64bits(res.Rows[0][0].Float()); bits != math.Float64bits(f) {
			t.Fatalf("float %v: got bits %x want %x", f, bits, math.Float64bits(f))
		}
	}
}

// TestPreparedErrors: arity and misuse are reported cleanly.
func TestPreparedErrors(t *testing.T) {
	e := newTestEngine(t)
	p := prep(t, e, "SELECT fno FROM Flights WHERE dest = ? AND price <= ?")
	if _, err := p.Execute(value.NewTuple("Paris")); err == nil {
		t.Fatal("short parameter vector accepted")
	}
	// Unprepared text with a placeholder: evaluation reports the unbound slot.
	if _, err := e.ExecuteSQL("SELECT fno FROM Flights WHERE price + ? > 0"); err == nil || !errors.Is(err, ErrUnboundParam) {
		t.Fatalf("want ErrUnboundParam, got %v", err)
	}
	stmt, _ := sql.Parse("BEGIN")
	if _, err := e.Prepare(stmt); err == nil {
		t.Fatal("Prepare(BEGIN) accepted")
	}
}

// TestPreparedConcurrent: one handle, many goroutines — the pooled scratch
// must not cross-contaminate result rows.
func TestPreparedConcurrent(t *testing.T) {
	e := newTestEngine(t)
	p := prep(t, e, "SELECT fno FROM Flights WHERE dest = ?")
	dests := []string{"Paris", "Rome", "Oslo"}
	wants := map[string]int{"Paris": 2, "Rome": 1, "Oslo": 1}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 200; i++ {
				d := dests[(w+i)%len(dests)]
				res, err := p.Execute(value.NewTuple(d))
				if err != nil {
					done <- err
					return
				}
				if len(res.Rows) != wants[d] {
					done <- fmt.Errorf("dest %s: %d rows, want %d", d, len(res.Rows), wants[d])
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPreparedUnicodeIdentifiers: the prepared path must fold identifiers
// exactly like the text path (Unicode strings.ToLower, not ASCII-only) for
// binding resolution.
func TestPreparedUnicodeIdentifiers(t *testing.T) {
	e := New(txn.NewManager(storage.NewCatalog()))
	for _, src := range []string{
		"CREATE TABLE Übertabelle (id INT, x INT)",
		"INSERT INTO Übertabelle VALUES (1, 42)",
	} {
		if _, err := e.ExecuteSQL(src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	p := prep(t, e, "SELECT Ü.x FROM Übertabelle Ü WHERE Ü.id = ?")
	res, err := p.Execute(value.NewTuple(1))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 42 {
		t.Fatalf("unicode alias resolution: %v %v", res, err)
	}
}
