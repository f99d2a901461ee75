package engine

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// newEngine builds an engine over the Figure 1(a) database: Flights and
// Airlines exactly as printed in the paper.
func newEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(txn.NewManager(storage.NewCatalog()))
	script := `
		CREATE TABLE Flights (fno INT, dest STRING, PRIMARY KEY (fno));
		CREATE TABLE Airlines (fno INT, airline STRING, PRIMARY KEY (fno));
		INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (134, 'Paris'), (136, 'Rome');
		INSERT INTO Airlines VALUES (122, 'United'), (123, 'United'), (134, 'Lufthansa'), (136, 'Alitalia');
	`
	stmts, err := sql.ParseAll(script)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stmts {
		if _, err := e.Execute(s); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func query(t *testing.T, e *Engine, src string) *Result {
	t.Helper()
	res, err := e.ExecuteSQL(src)
	if err != nil {
		t.Fatalf("ExecuteSQL(%q): %v", src, err)
	}
	return res
}

func TestSelectFilter(t *testing.T) {
	e := newEngine(t)
	res := query(t, e, "SELECT fno FROM Flights WHERE dest = 'Paris'")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	want := []int64{122, 123, 134}
	for i, r := range res.Rows {
		if r[0].Int() != want[i] {
			t.Errorf("row %d = %v", i, r)
		}
	}
	if res.Cols[0] != "fno" {
		t.Errorf("cols = %v", res.Cols)
	}
}

func TestSelectStar(t *testing.T) {
	e := newEngine(t)
	res := query(t, e, "SELECT * FROM Flights WHERE fno = 136")
	if len(res.Rows) != 1 || len(res.Rows[0]) != 2 || res.Rows[0][1].Str() != "Rome" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if len(res.Cols) != 2 || res.Cols[0] != "fno" || res.Cols[1] != "dest" {
		t.Errorf("cols = %v", res.Cols)
	}
}

func TestJoin(t *testing.T) {
	e := newEngine(t)
	res := query(t, e, `SELECT f.fno, a.airline FROM Flights f, Airlines a
	                    WHERE f.fno = a.fno AND f.dest = 'Paris' AND a.airline = 'United'`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r[1].Str() != "United" {
			t.Errorf("row = %v", r)
		}
	}
}

func TestJoinStarExpansion(t *testing.T) {
	e := newEngine(t)
	res := query(t, e, "SELECT * FROM Flights f, Airlines a WHERE f.fno = a.fno AND f.fno = 122")
	if len(res.Rows) != 1 || len(res.Rows[0]) != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if len(res.Cols) != 4 {
		t.Errorf("cols = %v", res.Cols)
	}
}

func TestSubqueryIn(t *testing.T) {
	e := newEngine(t)
	res := query(t, e, `SELECT airline FROM Airlines
	                    WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Rome')`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "Alitalia" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestNotInSubquery(t *testing.T) {
	e := newEngine(t)
	res := query(t, e, `SELECT airline FROM Airlines
	                    WHERE fno NOT IN (SELECT fno FROM Flights WHERE dest = 'Paris')`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "Alitalia" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCorrelatedSubquery(t *testing.T) {
	e := newEngine(t)
	// Correlated: inner references outer alias f.
	res := query(t, e, `SELECT f.fno FROM Flights f
	                    WHERE f.fno IN (SELECT a.fno FROM Airlines a WHERE a.fno = f.fno AND a.airline = 'United')`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestOrderByLimitDistinct(t *testing.T) {
	e := newEngine(t)
	res := query(t, e, "SELECT dest FROM Flights ORDER BY dest DESC")
	if res.Rows[0][0].Str() != "Rome" {
		t.Errorf("order by desc: %v", res.Rows)
	}
	res = query(t, e, "SELECT DISTINCT dest FROM Flights ORDER BY dest")
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "Paris" {
		t.Errorf("distinct: %v", res.Rows)
	}
	res = query(t, e, "SELECT fno FROM Flights ORDER BY fno DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 136 || res.Rows[1][0].Int() != 134 {
		t.Errorf("limit: %v", res.Rows)
	}
}

func TestSelectNoFrom(t *testing.T) {
	e := newEngine(t)
	res := query(t, e, "SELECT 1 + 2, 'x'")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 3 || res.Rows[0][1].Str() != "x" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = query(t, e, "SELECT 1 WHERE FALSE")
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestInsertDeleteUpdateCounts(t *testing.T) {
	e := newEngine(t)
	res := query(t, e, "INSERT INTO Flights VALUES (150, 'Oslo'), (151, 'Oslo')")
	if res.Affected != 2 {
		t.Errorf("insert affected = %d", res.Affected)
	}
	res = query(t, e, "UPDATE Flights SET dest = 'Bergen' WHERE dest = 'Oslo'")
	if res.Affected != 2 {
		t.Errorf("update affected = %d", res.Affected)
	}
	res = query(t, e, "DELETE FROM Flights WHERE dest = 'Bergen'")
	if res.Affected != 2 {
		t.Errorf("delete affected = %d", res.Affected)
	}
	if query(t, e, "SELECT * FROM Flights").Rows == nil {
		t.Error("flights emptied unexpectedly")
	}
}

func TestUpdateSelfReference(t *testing.T) {
	e := newEngine(t)
	query(t, e, "CREATE TABLE P (x INT)")
	query(t, e, "INSERT INTO P VALUES (1), (2)")
	query(t, e, "UPDATE P SET x = x * 10")
	res := query(t, e, "SELECT x FROM P ORDER BY x")
	if res.Rows[0][0].Int() != 10 || res.Rows[1][0].Int() != 20 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestDuplicatePKRollsBackWholeInsert(t *testing.T) {
	e := newEngine(t)
	_, err := e.ExecuteSQL("INSERT INTO Flights VALUES (700, 'Lima'), (122, 'Dup')")
	if err == nil {
		t.Fatal("expected duplicate key error")
	}
	// First row must have been rolled back with the failed statement.
	res := query(t, e, "SELECT * FROM Flights WHERE fno = 700")
	if len(res.Rows) != 0 {
		t.Error("partial insert survived failed statement")
	}
}

func TestArithmeticAndBetween(t *testing.T) {
	e := newEngine(t)
	res := query(t, e, "SELECT fno * 2 + 1 FROM Flights WHERE fno BETWEEN 122 AND 123 ORDER BY fno")
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 245 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = query(t, e, "SELECT 7 / 2, 7.0 / 2")
	if res.Rows[0][0].Int() != 3 || res.Rows[0][1].Float() != 3.5 {
		t.Errorf("division: %v", res.Rows)
	}
	if _, err := e.ExecuteSQL("SELECT 1 / 0"); err == nil {
		t.Error("division by zero accepted")
	}
	res = query(t, e, "SELECT 'foo' + 'bar'")
	if res.Rows[0][0].Str() != "foobar" {
		t.Errorf("concat: %v", res.Rows)
	}
}

func TestComparisonOperators(t *testing.T) {
	e := newEngine(t)
	cases := map[string]int{
		"SELECT fno FROM Flights WHERE fno < 123":                1,
		"SELECT fno FROM Flights WHERE fno <= 123":               2,
		"SELECT fno FROM Flights WHERE fno > 134":                1,
		"SELECT fno FROM Flights WHERE fno >= 134":               2,
		"SELECT fno FROM Flights WHERE fno <> 122":               3,
		"SELECT fno FROM Flights WHERE NOT fno = 122":            3,
		"SELECT fno FROM Flights WHERE dest IN ('Rome', 'Oslo')": 1,
	}
	for src, want := range cases {
		if got := len(query(t, e, src).Rows); got != want {
			t.Errorf("%s: %d rows, want %d", src, got, want)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	e := newEngine(t)
	query(t, e, "CREATE TABLE N (x INT, y STRING)")
	query(t, e, "INSERT INTO N VALUES (NULL, 'a'), (1, NULL)")
	if got := len(query(t, e, "SELECT * FROM N WHERE x = 1").Rows); got != 1 {
		t.Errorf("x=1: %d", got)
	}
	// NULL never satisfies comparisons.
	if got := len(query(t, e, "SELECT * FROM N WHERE x = NULL").Rows); got != 0 {
		t.Errorf("x=NULL matched %d rows", got)
	}
	if got := len(query(t, e, "SELECT * FROM N WHERE x < 5").Rows); got != 1 {
		t.Errorf("x<5: %d", got)
	}
}

func TestIndexedLookupMatchesScanResults(t *testing.T) {
	e := newEngine(t)
	noIx := query(t, e, "SELECT fno FROM Flights WHERE dest = 'Paris'")
	query(t, e, "CREATE INDEX ON Flights (dest)")
	withIx := query(t, e, "SELECT fno FROM Flights WHERE dest = 'Paris'")
	if len(noIx.Rows) != len(withIx.Rows) {
		t.Fatalf("index changed results: %v vs %v", noIx.Rows, withIx.Rows)
	}
	for i := range noIx.Rows {
		if !noIx.Rows[i].Equal(withIx.Rows[i]) {
			t.Errorf("row %d differs", i)
		}
	}
}

func TestErrorCases(t *testing.T) {
	e := newEngine(t)
	bad := []string{
		"SELECT nosuch FROM Flights",
		"SELECT f.nosuch FROM Flights f",
		"SELECT x FROM NoSuchTable",
		"UPDATE Flights SET nosuch = 1",
		"INSERT INTO Flights VALUES ('wrongtype', 'Paris')",
		"SELECT fno FROM Flights WHERE fno IN (SELECT fno, dest FROM Flights)", // arity
		"SELECT -'x'", // negate string
		"SELECT 'a' - 'b'",
	}
	for _, src := range bad {
		if _, err := e.ExecuteSQL(src); err == nil {
			t.Errorf("%s: expected error", src)
		}
	}
}

func TestAnswerConstraintRejectedInPlainEngine(t *testing.T) {
	e := newEngine(t)
	_, err := e.ExecuteSQL("SELECT fno FROM Flights WHERE ('Jerry', fno) IN ANSWER Reservation")
	if !errors.Is(err, ErrAnswerConstraint) {
		t.Errorf("err = %v, want ErrAnswerConstraint", err)
	}
}

func TestEntangledRejectedInPlainEngine(t *testing.T) {
	e := newEngine(t)
	stmt, err := sql.Parse("SELECT 'K', fno INTO ANSWER R WHERE ('J', fno) IN ANSWER R")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(stmt); err == nil || !strings.Contains(err.Error(), "coordination component") {
		t.Errorf("err = %v", err)
	}
}

func TestAmbiguousColumn(t *testing.T) {
	e := newEngine(t)
	// fno exists in both tables; unqualified use in a join must error.
	if _, err := e.ExecuteSQL("SELECT fno FROM Flights f, Airlines a WHERE f.fno = a.fno"); err == nil {
		t.Error("ambiguous column accepted")
	}
}

func TestUnboundVariableError(t *testing.T) {
	e := newEngine(t)
	_, err := e.ExecuteSQL("SELECT fno FROM Flights WHERE mystery = 3")
	if !errors.Is(err, ErrUnboundVariable) {
		t.Errorf("err = %v, want ErrUnboundVariable", err)
	}
}

func TestCoordinatorVariableBinding(t *testing.T) {
	// The coordinator grounds entangled-query predicates by binding free
	// variables in the environment; check EvalExpr sees them.
	e := newEngine(t)
	expr, err := sql.ParseExpr("fno IN (SELECT fno FROM Flights WHERE dest = 'Paris')")
	if err != nil {
		t.Fatal(err)
	}
	err = e.Manager().RunAtomic(func(tx *txn.Txn) error {
		env := NewEnv()
		env.BindVar("fno", value.NewInt(122))
		v, err := e.EvalExpr(tx, expr, env)
		if err != nil {
			return err
		}
		if !v.Bool() {
			t.Error("fno=122 should satisfy the predicate")
		}
		env.BindVar("fno", value.NewInt(136))
		v, err = e.EvalExpr(tx, expr, env)
		if err != nil {
			return err
		}
		if v.Bool() {
			t.Error("fno=136 (Rome) should not satisfy the predicate")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExecuteSQLParseError(t *testing.T) {
	e := newEngine(t)
	if _, err := e.ExecuteSQL("SELEC"); err == nil {
		t.Error("parse error not propagated")
	}
}

func TestScalarSubquery(t *testing.T) {
	e := newEngine(t)
	// Flight(s) whose fno equals the minimum Paris fno.
	res := query(t, e, "SELECT fno FROM Flights WHERE fno = (SELECT MIN(fno) FROM Flights WHERE dest = 'Paris')")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 122 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// In the select list.
	res = query(t, e, "SELECT (SELECT COUNT(*) FROM Flights), fno FROM Flights WHERE fno = 136")
	if res.Rows[0][0].Int() != 4 {
		t.Errorf("rows = %v", res.Rows)
	}
	// Correlated scalar subquery.
	res = query(t, e, `SELECT f.fno FROM Flights f
		WHERE (SELECT a.airline FROM Airlines a WHERE a.fno = f.fno) = 'Alitalia'`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 136 {
		t.Errorf("rows = %v", res.Rows)
	}
	// Zero rows → NULL (comparison false).
	res = query(t, e, "SELECT fno FROM Flights WHERE fno = (SELECT fno FROM Flights WHERE dest = 'Atlantis')")
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", res.Rows)
	}
	// Errors: multi-column and multi-row.
	if _, err := e.ExecuteSQL("SELECT (SELECT fno, dest FROM Flights) FROM Flights"); err == nil {
		t.Error("multi-column scalar subquery accepted")
	}
	if _, err := e.ExecuteSQL("SELECT (SELECT fno FROM Flights) FROM Flights"); err == nil {
		t.Error("multi-row scalar subquery accepted")
	}
}

func TestDDLStatements(t *testing.T) {
	e := newEngine(t)
	query(t, e, "CREATE TABLE Tmp (x INT)")
	if !e.Catalog().Has("Tmp") {
		t.Error("create failed")
	}
	query(t, e, "DROP TABLE Tmp")
	if e.Catalog().Has("Tmp") {
		t.Error("drop failed")
	}
	if _, err := e.ExecuteSQL("DROP TABLE Tmp"); err == nil {
		t.Error("double drop accepted")
	}
	if _, err := e.ExecuteSQL("CREATE TABLE Flights (x INT)"); err == nil {
		t.Error("duplicate create accepted")
	}
	if _, err := e.ExecuteSQL("CREATE INDEX ON NoSuch (x)"); err == nil {
		t.Error("index on missing table accepted")
	}
}

// TestReadOnFinishedTxn: reads take no table lock, yet every read path —
// text SELECT, aggregate and prepared SELECT — still refuses a transaction
// that has already committed.
func TestReadOnFinishedTxn(t *testing.T) {
	e := newEngine(t)
	tx := e.Manager().Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"SELECT fno FROM Flights WHERE dest = 'Paris'",
		"SELECT COUNT(*) FROM Flights",
	} {
		stmt, err := sql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.ExecuteIn(tx, stmt); !errors.Is(err, txn.ErrTxnDone) {
			t.Errorf("%s: %v, want ErrTxnDone", src, err)
		}
	}
	p := prep(t, e, "SELECT dest FROM Flights WHERE fno = ?")
	if _, err := p.ExecuteIn(tx, value.NewTuple(122)); !errors.Is(err, txn.ErrTxnDone) {
		t.Errorf("prepared: %v, want ErrTxnDone", err)
	}
}
