package sql

import (
	"strconv"
	"strings"

	"repro/internal/value"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	String() string
}

// Expr is any parsed expression.
type Expr interface {
	expr()
	String() string
}

// ---------------------------------------------------------------------------
// Statements

// ColDef is one column definition in CREATE TABLE.
type ColDef struct {
	Name string
	Type value.Type
}

// CreateTable is CREATE TABLE name (col type, ..., [PRIMARY KEY (cols)]).
type CreateTable struct {
	Name string
	Cols []ColDef
	PK   []string
}

func (*CreateTable) stmt() {}

func (s *CreateTable) String() string {
	parts := make([]string, 0, len(s.Cols)+1)
	for _, c := range s.Cols {
		parts = append(parts, c.Name+" "+c.Type.String())
	}
	if len(s.PK) > 0 {
		parts = append(parts, "PRIMARY KEY ("+strings.Join(s.PK, ", ")+")")
	}
	return "CREATE TABLE " + s.Name + " (" + strings.Join(parts, ", ") + ")"
}

// CreateIndex is CREATE [ORDERED] INDEX [name] ON table (cols). Ordered
// indexes support range lookups and take exactly one column. A named
// single-column index without ORDERED also builds ordered (the more capable
// kind); the unnamed multi/single-column form stays the legacy hash index.
type CreateIndex struct {
	Table   string
	Name    string // user-assigned index name, "" for the anonymous form
	Cols    []string
	Ordered bool
}

func (*CreateIndex) stmt() {}

func (s *CreateIndex) String() string {
	var b strings.Builder
	b.WriteString("CREATE ")
	if s.Ordered {
		b.WriteString("ORDERED ")
	}
	b.WriteString("INDEX ")
	if s.Name != "" {
		b.WriteString(s.Name)
		b.WriteByte(' ')
	}
	b.WriteString("ON " + s.Table + " (" + strings.Join(s.Cols, ", ") + ")")
	return b.String()
}

// Explain is EXPLAIN <statement>: describe the access plan without executing.
type Explain struct {
	Stmt Statement
}

func (*Explain) stmt() {}

func (s *Explain) String() string { return "EXPLAIN " + s.Stmt.String() }

// TxnStmt is BEGIN, COMMIT or ROLLBACK.
type TxnStmt struct {
	Kind TxnKind
}

// TxnKind distinguishes transaction-control statements.
type TxnKind uint8

// Transaction-control kinds.
const (
	TxnBegin TxnKind = iota
	TxnCommit
	TxnRollback
)

func (*TxnStmt) stmt() {}

func (s *TxnStmt) String() string {
	switch s.Kind {
	case TxnBegin:
		return "BEGIN"
	case TxnCommit:
		return "COMMIT"
	default:
		return "ROLLBACK"
	}
}

// DropTable is DROP TABLE name.
type DropTable struct{ Name string }

func (*DropTable) stmt() {}

func (s *DropTable) String() string { return "DROP TABLE " + s.Name }

// Insert is INSERT INTO table VALUES (...), (...) — or, with From set,
// INSERT INTO table SELECT ... .
type Insert struct {
	Table string
	Rows  [][]Expr
	From  *Select // nil for the VALUES form
}

func (*Insert) stmt() {}

func (s *Insert) String() string {
	if s.From != nil {
		return "INSERT INTO " + s.Table + " " + s.From.String()
	}
	rows := make([]string, len(s.Rows))
	for i, r := range s.Rows {
		rows[i] = "(" + exprList(r) + ")"
	}
	return "INSERT INTO " + s.Table + " VALUES " + strings.Join(rows, ", ")
}

// Delete is DELETE FROM table [WHERE expr].
type Delete struct {
	Table string
	Where Expr // nil when absent
}

func (*Delete) stmt() {}

func (s *Delete) String() string {
	out := "DELETE FROM " + s.Table
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

// Assign is one SET col = expr clause.
type Assign struct {
	Col string
	Val Expr
}

// Update is UPDATE table SET assignments [WHERE expr].
type Update struct {
	Table string
	Sets  []Assign
	Where Expr
}

func (*Update) stmt() {}

func (s *Update) String() string {
	sets := make([]string, len(s.Sets))
	for i, a := range s.Sets {
		sets[i] = a.Col + " = " + a.Val.String()
	}
	out := "UPDATE " + s.Table + " SET " + strings.Join(sets, ", ")
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

// SelectItem is one projection in a SELECT list; Star means "*".
type SelectItem struct {
	Expr  Expr // nil when Star
	Alias string
	Star  bool
}

// TableRef is one FROM-clause table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

func (r TableRef) String() string {
	if r.Alias != "" {
		return r.Name + " " + r.Alias
	}
	return r.Name
}

// Binding returns the name the table is referred to by in expressions.
func (r TableRef) Binding() string {
	if r.Alias != "" {
		return r.Alias
	}
	return r.Name
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Select is an ordinary (non-entangled) SELECT statement.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

func (*Select) stmt() {}

func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	items := make([]string, len(s.Items))
	for i, it := range s.Items {
		switch {
		case it.Star:
			items[i] = "*"
		case it.Alias != "":
			items[i] = it.Expr.String() + " AS " + it.Alias
		default:
			items[i] = it.Expr.String()
		}
	}
	b.WriteString(strings.Join(items, ", "))
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		froms := make([]string, len(s.From))
		for i, f := range s.From {
			froms[i] = f.String()
		}
		b.WriteString(strings.Join(froms, ", "))
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY " + exprList(s.GroupBy))
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		keys := make([]string, len(s.OrderBy))
		for i, k := range s.OrderBy {
			keys[i] = k.Expr.String()
			if k.Desc {
				keys[i] += " DESC"
			}
		}
		b.WriteString(" ORDER BY " + strings.Join(keys, ", "))
	}
	if s.Limit >= 0 {
		b.WriteString(" LIMIT " + strconv.Itoa(s.Limit))
	}
	return b.String()
}

// AnswerTarget is one answer atom of an entangled query: the tuple of
// expressions contributed INTO ANSWER Relation.
type AnswerTarget struct {
	Exprs    []Expr
	Relation string
}

func (a AnswerTarget) String() string {
	return "(" + exprList(a.Exprs) + ") INTO ANSWER " + a.Relation
}

// EntangledSelect is the paper's coordination statement:
//
//	SELECT select_expr INTO ANSWER tbl [, ANSWER tbl]... [WHERE cond] [CHOOSE n]
//
// With a single answer relation the select list is flat, exactly as in §2.1:
//
//	SELECT 'Kramer', fno INTO ANSWER Reservation WHERE ... CHOOSE 1
//
// With several answer relations, each contribution is a parenthesized tuple
// (the demo paper's grammar leaves the multi-relation select list
// unspecified; we adopt the grouped form):
//
//	SELECT ('Jerry', fno) INTO ANSWER Reservation,
//	       ('Jerry', hno) INTO ANSWER HotelReservation
//	WHERE ... CHOOSE 1
type EntangledSelect struct {
	Targets []AnswerTarget
	Where   Expr
	Choose  int // answers requested; the paper's examples use CHOOSE 1
}

func (*EntangledSelect) stmt() {}

func (s *EntangledSelect) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if len(s.Targets) == 1 {
		b.WriteString(exprList(s.Targets[0].Exprs))
		b.WriteString(" INTO ANSWER " + s.Targets[0].Relation)
	} else {
		parts := make([]string, len(s.Targets))
		for i, t := range s.Targets {
			parts[i] = t.String()
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if s.Choose > 0 {
		b.WriteString(" CHOOSE " + strconv.Itoa(s.Choose))
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Expressions

// Literal is a constant value.
type Literal struct{ Val value.Value }

func (*Literal) expr() {}

func (e *Literal) String() string { return e.Val.String() }

// Param is a statement-parameter placeholder: `?` (ordinal) or `$n`
// (explicit 1-based slot) in the source text. Idx is the 0-based slot in the
// parameter vector bound at execution time; a statement's parameter count is
// NumParams. Parameters are the prepare/bind half of the parse-once/
// bind-many pipeline: the same parsed statement (or compiled entangled
// template) is executed many times with only the vector changing.
type Param struct{ Idx int }

func (*Param) expr() {}

func (e *Param) String() string { return "$" + strconv.Itoa(e.Idx+1) }

// ColumnRef names a column, optionally qualified by table or alias. In
// entangled queries unqualified references are free coordination variables.
type ColumnRef struct {
	Table string // empty when unqualified
	Name  string
}

func (*ColumnRef) expr() {}

func (e *ColumnRef) String() string {
	if e.Table != "" {
		return e.Table + "." + e.Name
	}
	return e.Name
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpAnd
	OpOr
)

var binOpText = map[BinOp]string{
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpAnd: "AND", OpOr: "OR",
}

func (op BinOp) String() string { return binOpText[op] }

// Binary is a binary operation.
type Binary struct {
	Op   BinOp
	L, R Expr
}

func (*Binary) expr() {}

func (e *Binary) String() string {
	return "(" + e.L.String() + " " + e.Op.String() + " " + e.R.String() + ")"
}

// Not is logical negation.
type Not struct{ X Expr }

func (*Not) expr() {}

func (e *Not) String() string { return "(NOT " + e.X.String() + ")" }

// Neg is arithmetic negation.
type Neg struct{ X Expr }

func (*Neg) expr() {}

func (e *Neg) String() string { return "(-" + e.X.String() + ")" }

// Exists is EXISTS (SELECT ...): true iff the subquery returns any row.
type Exists struct {
	Sel *Select
	Neg bool // NOT EXISTS
}

func (*Exists) expr() {}

func (e *Exists) String() string {
	if e.Neg {
		return "(NOT EXISTS (" + e.Sel.String() + "))"
	}
	return "(EXISTS (" + e.Sel.String() + "))"
}

// Subquery is a scalar subquery expression: (SELECT ...) used as a value.
// It must produce one column and at most one row; zero rows yield NULL.
type Subquery struct {
	Sel *Select
}

func (*Subquery) expr() {}

func (e *Subquery) String() string { return "(" + e.Sel.String() + ")" }

// FuncCall is an aggregate function application: COUNT(*), COUNT(x), SUM(x),
// AVG(x), MIN(x), MAX(x). Name is upper-cased.
type FuncCall struct {
	Name string
	Star bool // COUNT(*)
	Arg  Expr // nil when Star
}

func (*FuncCall) expr() {}

func (e *FuncCall) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	return e.Name + "(" + e.Arg.String() + ")"
}

// Like is x [NOT] LIKE pattern, with % (any run) and _ (any one char).
type Like struct {
	X       Expr
	Pattern Expr
	Neg     bool
}

func (*Like) expr() {}

func (e *Like) String() string {
	op := " LIKE "
	if e.Neg {
		op = " NOT LIKE "
	}
	return "(" + e.X.String() + op + e.Pattern.String() + ")"
}

// IsNull is x IS [NOT] NULL — the only way to test for NULL, since ordinary
// comparisons involving NULL are false.
type IsNull struct {
	X   Expr
	Neg bool // IS NOT NULL
}

func (*IsNull) expr() {}

func (e *IsNull) String() string {
	if e.Neg {
		return "(" + e.X.String() + " IS NOT NULL)"
	}
	return "(" + e.X.String() + " IS NULL)"
}

// Between is x BETWEEN lo AND hi (inclusive).
type Between struct {
	X, Lo, Hi Expr
}

func (*Between) expr() {}

func (e *Between) String() string {
	return "(" + e.X.String() + " BETWEEN " + e.Lo.String() + " AND " + e.Hi.String() + ")"
}

// InValues is x IN (v1, v2, ...).
type InValues struct {
	X    Expr
	Vals []Expr
	Neg  bool
}

func (*InValues) expr() {}

func (e *InValues) String() string {
	op := " IN "
	if e.Neg {
		op = " NOT IN "
	}
	return "(" + e.X.String() + op + "(" + exprList(e.Vals) + "))"
}

// InSelect is (x1, ..., xk) IN (SELECT ...); Left has one entry for the
// common single-column form.
type InSelect struct {
	Left []Expr
	Sub  *Select
	Neg  bool
}

func (*InSelect) expr() {}

func (e *InSelect) String() string {
	left := exprList(e.Left)
	if len(e.Left) > 1 {
		left = "(" + left + ")"
	}
	op := " IN "
	if e.Neg {
		op = " NOT IN "
	}
	return "(" + left + op + "(" + e.Sub.String() + "))"
}

// InAnswer is the entangled answer constraint (e1, ..., ek) IN ANSWER R:
// the query may only be answered if the system-wide answer relation R
// contains a tuple matching (e1, ..., ek).
type InAnswer struct {
	Left     []Expr
	Relation string
	Neg      bool // NOT IN ANSWER: an exclusion constraint (extension)
}

func (*InAnswer) expr() {}

func (e *InAnswer) String() string {
	op := " IN ANSWER "
	if e.Neg {
		op = " NOT IN ANSWER "
	}
	return "((" + exprList(e.Left) + ")" + op + e.Relation + ")"
}

func exprList(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}

// WalkExpr calls fn on e and every sub-expression (pre-order). Subquery
// bodies (InSelect.Sub) are NOT descended into; they are separate scopes.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Binary:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *FuncCall:
		WalkExpr(x.Arg, fn)
	case *Not:
		WalkExpr(x.X, fn)
	case *Neg:
		WalkExpr(x.X, fn)
	case *Between:
		WalkExpr(x.X, fn)
		WalkExpr(x.Lo, fn)
		WalkExpr(x.Hi, fn)
	case *Like:
		WalkExpr(x.X, fn)
		WalkExpr(x.Pattern, fn)
	case *IsNull:
		WalkExpr(x.X, fn)
	case *InValues:
		WalkExpr(x.X, fn)
		for _, v := range x.Vals {
			WalkExpr(v, fn)
		}
	case *InSelect:
		for _, l := range x.Left {
			WalkExpr(l, fn)
		}
	case *InAnswer:
		for _, l := range x.Left {
			WalkExpr(l, fn)
		}
	}
}

// walkDeep calls fn on e and every sub-expression including the bodies of
// nested subqueries (which WalkExpr deliberately skips as separate scopes).
func walkDeep(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Binary:
		walkDeep(x.L, fn)
		walkDeep(x.R, fn)
	case *FuncCall:
		walkDeep(x.Arg, fn)
	case *Not:
		walkDeep(x.X, fn)
	case *Neg:
		walkDeep(x.X, fn)
	case *Between:
		walkDeep(x.X, fn)
		walkDeep(x.Lo, fn)
		walkDeep(x.Hi, fn)
	case *Like:
		walkDeep(x.X, fn)
		walkDeep(x.Pattern, fn)
	case *IsNull:
		walkDeep(x.X, fn)
	case *InValues:
		walkDeep(x.X, fn)
		for _, v := range x.Vals {
			walkDeep(v, fn)
		}
	case *InSelect:
		for _, l := range x.Left {
			walkDeep(l, fn)
		}
		walkSelectDeep(x.Sub, fn)
	case *InAnswer:
		for _, l := range x.Left {
			walkDeep(l, fn)
		}
	case *Exists:
		walkSelectDeep(x.Sel, fn)
	case *Subquery:
		walkSelectDeep(x.Sel, fn)
	}
}

func walkSelectDeep(s *Select, fn func(Expr)) {
	if s == nil {
		return
	}
	for _, it := range s.Items {
		walkDeep(it.Expr, fn)
	}
	walkDeep(s.Where, fn)
	for _, g := range s.GroupBy {
		walkDeep(g, fn)
	}
	walkDeep(s.Having, fn)
	for _, o := range s.OrderBy {
		walkDeep(o.Expr, fn)
	}
}

// VisitExprs calls fn on every expression of the statement, at any depth —
// including inside subquery bodies. It is the traversal NumParams and the
// prepared-statement planners rely on to find every Param slot.
func VisitExprs(stmt Statement, fn func(Expr)) {
	switch s := stmt.(type) {
	case *Select:
		walkSelectDeep(s, fn)
	case *EntangledSelect:
		for _, t := range s.Targets {
			for _, e := range t.Exprs {
				walkDeep(e, fn)
			}
		}
		walkDeep(s.Where, fn)
	case *Insert:
		for _, row := range s.Rows {
			for _, e := range row {
				walkDeep(e, fn)
			}
		}
		walkSelectDeep(s.From, fn)
	case *Update:
		for _, a := range s.Sets {
			walkDeep(a.Val, fn)
		}
		walkDeep(s.Where, fn)
	case *Delete:
		walkDeep(s.Where, fn)
	case *Explain:
		VisitExprs(s.Stmt, fn)
	}
}

// NumParams returns the parameter-vector length the statement needs: one
// more than the highest Param slot it mentions (so `$3` alone needs a
// 3-value vector; `?` placeholders were numbered in textual order by the
// parser).
func NumParams(stmt Statement) int {
	n := 0
	VisitExprs(stmt, func(e Expr) {
		if p, ok := e.(*Param); ok && p.Idx+1 > n {
			n = p.Idx + 1
		}
	})
	return n
}

// Conjuncts flattens a WHERE tree into its top-level AND-ed conjuncts.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	// Single accumulator instead of per-level append chains: WHERE clauses
	// are re-split on every entangled-query compilation.
	return appendConjuncts(make([]Expr, 0, 4), e)
}

func appendConjuncts(out []Expr, e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		out = appendConjuncts(out, b.L)
		return appendConjuncts(out, b.R)
	}
	return append(out, e)
}

// AndAll rebuilds a conjunction from a list of conjuncts (nil for empty).
func AndAll(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &Binary{Op: OpAnd, L: out, R: e}
		}
	}
	return out
}
