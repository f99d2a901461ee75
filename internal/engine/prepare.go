package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// Prepared is the engine half of a prepared statement: one parsed statement
// whose planning — table resolution, projection columns, index selection,
// join ordering — is done once and replayed for every execution with a bound
// parameter vector. The plan is stamped with the catalog's DDL version and
// transparently rebuilt when schema changes invalidate it, so a handle
// survives CREATE INDEX (picking up the new access path) and reports a clean
// error after DROP TABLE.
//
// A Prepared is immutable after construction and safe for concurrent
// Execute/ExecuteIn calls; per-execution state lives in a pooled scratch.
type Prepared struct {
	eng  *Engine
	stmt sql.Statement
	n    int // parameter-vector length the statement needs

	plan    atomic.Pointer[stmtPlan]
	scratch sync.Pool // *execScratch
}

// stmtPlan is one version-stamped planning result. sel is non-nil for the
// plannable SELECT shape (non-aggregate, with FROM); other statements run
// through the generic executor, which re-reads the catalog itself.
type stmtPlan struct {
	version uint64
	sel     *selectPlan
}

// selectPlan caches the per-execution analysis evalSelect performs: resolved
// tables, canonical bindings, projection columns, pushdown slots (with
// symbolic value sources, so parameters participate in index selection), and
// the join iteration order.
type selectPlan struct {
	sel   *sql.Select
	cols  []string
	froms []fromPlan
	iter  []int // join iteration order: indexes into froms
	// WHERE split into top-level conjuncts, plus a bitmask of the ones
	// exactly covered by an index pushdown. When every bind-time guard holds
	// (probe values coerce to the column type and are non-NULL), execution
	// skips the masked conjuncts — for a pure point probe that is all of
	// them; when a guard fails it falls back to re-checking every conjunct.
	conds []sql.Expr
	skip  uint64
}

// fromPlan is the static part of a fromTable.
type fromPlan struct {
	ref     sql.TableRef
	tbl     *storage.Table
	binding string
	eqCols  []int
	eqSrcs  []valueSrc
	// Range pushdowns over an ordered-indexed column; bounds tighten at
	// bind time (which of two parameterized bounds is tighter depends on
	// the bound values).
	rangeCol   int
	rangeConds []rangeCond
	// Conjunct indices absorbed by the range pushdown, un-masked again if an
	// equality probe supersedes the range. Fixed-size; overflow conjuncts
	// simply stay evaluated.
	rconj  [4]int
	nrconj int
}

// valueSrc is a value known at plan time (literal) or bind time (parameter).
type valueSrc struct {
	param int // -1: lit holds the value
	lit   value.Value
}

func (v valueSrc) resolve(params value.Tuple) (value.Value, bool) {
	if v.param < 0 {
		return v.lit, true
	}
	if v.param >= len(params) {
		return value.Null, false
	}
	return params[v.param], true
}

// rangeCond is one pushable comparison over the range column: a lower or
// upper bound, inclusive or not.
type rangeCond struct {
	lo   bool
	incl bool
	src  valueSrc
}

// execScratch is the pooled per-execution state of a planned SELECT.
type execScratch struct {
	fts   []fromTable
	froms []*fromTable
	iter  []*fromTable
	env   *Env
}

// Prepare plans one parsed statement for repeated execution. Entangled
// queries are compiled by package eq instead (they execute through the
// coordination component); transaction control carries no plan.
func (e *Engine) Prepare(stmt sql.Statement) (*Prepared, error) {
	switch stmt.(type) {
	case *sql.EntangledSelect:
		return nil, fmt.Errorf("engine: entangled query must be prepared through the coordination pipeline")
	case *sql.TxnStmt:
		return nil, fmt.Errorf("engine: transaction control cannot be prepared")
	}
	return &Prepared{eng: e, stmt: stmt, n: sql.NumParams(stmt)}, nil
}

// Statement returns the parsed statement behind the handle.
func (p *Prepared) Statement() sql.Statement { return p.stmt }

// NumParams returns the length of the parameter vector Execute expects.
func (p *Prepared) NumParams() int { return p.n }

// Execute runs the statement with params bound, in its own transaction.
func (p *Prepared) Execute(params value.Tuple) (*Result, error) {
	var res *Result
	err := p.eng.mgr.RunAtomic(func(tx *txn.Txn) error {
		var err error
		res, err = p.ExecuteIn(tx, params)
		return err
	})
	return res, err
}

// ExecuteIn runs the statement with params bound inside an existing
// transaction (the session/interactive-transaction path).
func (p *Prepared) ExecuteIn(tx *txn.Txn, params value.Tuple) (*Result, error) {
	if len(params) < p.n {
		return nil, fmt.Errorf("engine: statement needs %d parameter(s), got %d", p.n, len(params))
	}
	plan := p.plan.Load()
	if plan == nil || plan.version != p.eng.Catalog().DDLVersion() {
		var err error
		if plan, err = p.buildPlan(); err != nil {
			return nil, err
		}
		p.plan.Store(plan)
	}
	if plan.sel == nil {
		return p.eng.ExecuteInBound(tx, p.stmt, params)
	}
	return p.execSelect(tx, plan.sel, params)
}

// buildPlan runs the planning work of evalSelect once, against the current
// catalog version. Statements outside the plannable shape get a plan with
// sel == nil (generic execution, still parse-free).
func (p *Prepared) buildPlan() (*stmtPlan, error) {
	version := p.eng.Catalog().DDLVersion()
	s, ok := p.stmt.(*sql.Select)
	if !ok || hasAggregates(s) || len(s.GroupBy) > 0 || len(s.From) == 0 {
		return &stmtPlan{version: version}, nil
	}
	sp := &selectPlan{sel: s, froms: make([]fromPlan, len(s.From))}
	for i, ref := range s.From {
		tbl, err := p.eng.Catalog().Get(ref.Name)
		if err != nil {
			return nil, err
		}
		sp.froms[i] = fromPlan{
			ref: ref, tbl: tbl, binding: strings.ToLower(ref.Binding()), rangeCol: -1,
		}
	}
	sp.conds = sql.Conjuncts(s.Where)
	sp.skip = planPushDowns(s.Where, sp.froms, len(s.From) == 1)
	sp.cols = projectionColsPlanned(s, sp.froms)

	// Join iteration order: cost-ranked by estimated candidate cardinality
	// from the storage statistics, decided once at plan time and rebuilt
	// whenever the DDL version moves (a new index re-ranks transparently).
	// Literal pushdown values refine the estimates; parameter slots cost with
	// default selectivities.
	if n := len(sp.froms); n == 1 || planNaiveOrder {
		// Nothing to rank — keep statement order without costing. The
		// single-table case is the hot text-path shape; skipping estimation
		// keeps per-statement planning allocation-flat.
		if n <= len(identityOrder) {
			sp.iter = identityOrder[:n:n]
		} else {
			sp.iter = make([]int, n)
			for i := range sp.iter {
				sp.iter[i] = i
			}
		}
	} else {
		ests := make([]float64, len(sp.froms))
		for i := range sp.froms {
			fp := &sp.froms[i]
			ests[i] = estimateFromPlan(fp, fp.tbl.Stats(), nil).Rows
		}
		sp.iter = plan.Order(ests)
	}
	return &stmtPlan{version: version, sel: sp}, nil
}

// identityOrder serves as the shared statement-order iteration slice for
// plans that skip ranking (read-only; capped reslices hand out prefixes).
var identityOrder = func() []int {
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = i
	}
	return ids
}()

// planNaiveOrder, when set, disables cost-ranked join ordering so tables are
// visited in statement order. Test-only: the plan-equivalence suite compares
// ranked plans against this naive baseline.
var planNaiveOrder bool

// planPushDowns is pushDownPredicates with symbolic value sources: the same
// conjunct shapes are recognized, but parameter operands stay unresolved
// until bind time. It returns a bitmask of the conjuncts (in sql.Conjuncts
// order) exactly covered by an attached pushdown, which execution skips when
// the bind-time guards in execSelect hold. Conjuncts beyond the mask's 64
// bits are pushed but never skipped.
//
// A conjunct may be masked out because the pushdown that absorbed it has
// identical semantics:
//
//   - equality probes compare with Identical, which agrees with SQL = for
//     every non-NULL value once the probe is coerced to the column's declared
//     type (stored values always are, schema validation coerces on insert);
//   - range scans and evalBinary comparisons both order with value.Compare,
//     and the ordered index skips NULL entries exactly as `col < x` is never
//     truthy for a NULL column.
//
// The NULL/coercion preconditions involve bound values, so they are checked
// per execution; this function only decides coverage shape.
func planPushDowns(where sql.Expr, froms []fromPlan, single bool) (skip uint64) {
	locate := func(cr *sql.ColumnRef) (*fromPlan, int) {
		for i := range froms {
			f := &froms[i]
			if cr.Table != "" && !strings.EqualFold(cr.Table, f.ref.Binding()) {
				continue
			}
			if cr.Table == "" && !single {
				continue
			}
			if o := f.tbl.Schema().Ordinal(cr.Name); o >= 0 {
				return f, o
			}
		}
		return nil, -1
	}
	addRange := func(f *fromPlan, o int, rc rangeCond) bool {
		if f.rangeCol >= 0 && f.rangeCol != o {
			return false // one range column per table
		}
		if !f.tbl.HasOrderedIndex(o) {
			return false
		}
		f.rangeCol = o
		f.rangeConds = append(f.rangeConds, rc)
		return true
	}
	consume := func(ci int) {
		if ci < 64 {
			skip |= 1 << uint(ci)
		}
	}
	consumeRange := func(f *fromPlan, ci int) {
		if ci < 64 && f.nrconj < len(f.rconj) {
			f.rconj[f.nrconj] = ci
			f.nrconj++
			skip |= 1 << uint(ci)
		}
	}
	for ci, c := range sql.Conjuncts(where) {
		switch b := c.(type) {
		case *sql.Binary:
			cr, src, op, ok := normalizeCmpSym(b)
			if !ok {
				continue
			}
			f, o := locate(cr)
			if f == nil {
				continue
			}
			switch op {
			case sql.OpEq:
				f.eqCols = append(f.eqCols, o)
				f.eqSrcs = append(f.eqSrcs, src)
				consume(ci)
			case sql.OpGt:
				if addRange(f, o, rangeCond{lo: true, src: src}) {
					consumeRange(f, ci)
				}
			case sql.OpGe:
				if addRange(f, o, rangeCond{lo: true, incl: true, src: src}) {
					consumeRange(f, ci)
				}
			case sql.OpLt:
				if addRange(f, o, rangeCond{src: src}) {
					consumeRange(f, ci)
				}
			case sql.OpLe:
				if addRange(f, o, rangeCond{incl: true, src: src}) {
					consumeRange(f, ci)
				}
			}
		case *sql.Between:
			cr, ok := b.X.(*sql.ColumnRef)
			if !ok {
				continue
			}
			lo, okLo := srcOf(b.Lo)
			hi, okHi := srcOf(b.Hi)
			if !okLo || !okHi {
				continue
			}
			f, o := locate(cr)
			if f == nil {
				continue
			}
			pushedLo := addRange(f, o, rangeCond{lo: true, incl: true, src: lo})
			pushedHi := addRange(f, o, rangeCond{incl: true, src: hi})
			// Only full coverage lets the conjunct be masked; a half-pushed
			// BETWEEN still narrows candidates correctly.
			if pushedLo && pushedHi {
				consumeRange(f, ci)
			}
		}
	}
	// Post-pass per table, mirroring pushDownPredicates: an index-backed
	// equality probe wins over a range scan (the discarded range conjuncts go
	// back to being evaluated), and an equality without a backing hash/PK
	// index on a single ordered-indexed column becomes a degenerate [v, v]
	// range over the ordered index — exact for every probe value (coercion
	// and NULL included, see pushDownPredicates), so its conjunct stays
	// masked. The bound value may be a parameter: both range conds share the
	// eq source and resolve at bind time.
	for i := range froms {
		f := &froms[i]
		if len(f.eqCols) == 0 {
			continue
		}
		if len(f.eqCols) == 1 && !f.tbl.HasEqIndex(f.eqCols) {
			if o := f.eqCols[0]; f.tbl.HasOrderedIndex(o) && (f.rangeCol < 0 || f.rangeCol == o) {
				src := f.eqSrcs[0]
				f.rangeCol = o
				f.rangeConds = append(f.rangeConds,
					rangeCond{lo: true, incl: true, src: src},
					rangeCond{incl: true, src: src})
				f.eqCols, f.eqSrcs = nil, nil
				continue
			}
		}
		if f.rangeCol >= 0 {
			f.rangeCol = -1
			f.rangeConds = nil
			for _, ci := range f.rconj[:f.nrconj] {
				skip &^= 1 << uint(ci)
			}
		}
	}
	return skip
}

func normalizeCmpSym(b *sql.Binary) (*sql.ColumnRef, valueSrc, sql.BinOp, bool) {
	var flipped sql.BinOp
	switch b.Op {
	case sql.OpEq:
		flipped = sql.OpEq
	case sql.OpLt:
		flipped = sql.OpGt
	case sql.OpLe:
		flipped = sql.OpGe
	case sql.OpGt:
		flipped = sql.OpLt
	case sql.OpGe:
		flipped = sql.OpLe
	default:
		return nil, valueSrc{}, 0, false
	}
	if cr, ok := b.L.(*sql.ColumnRef); ok {
		if src, ok := srcOf(b.R); ok {
			return cr, src, b.Op, true
		}
	}
	if cr, ok := b.R.(*sql.ColumnRef); ok {
		if src, ok := srcOf(b.L); ok {
			return cr, src, flipped, true
		}
	}
	return nil, valueSrc{}, 0, false
}

func srcOf(e sql.Expr) (valueSrc, bool) {
	switch x := e.(type) {
	case *sql.Literal:
		return valueSrc{param: -1, lit: x.Val}, true
	case *sql.Param:
		return valueSrc{param: x.Idx}, true
	}
	return valueSrc{}, false
}

// projectionColsPlanned is projectionCols over fromPlans.
func projectionColsPlanned(s *sql.Select, froms []fromPlan) []string {
	var cols []string
	for _, it := range s.Items {
		switch {
		case it.Star:
			for i := range froms {
				for _, c := range froms[i].tbl.Schema().Columns {
					cols = append(cols, c.Name)
				}
			}
		case it.Alias != "":
			cols = append(cols, it.Alias)
		default:
			if cr, ok := it.Expr.(*sql.ColumnRef); ok {
				cols = append(cols, cr.Name)
			} else {
				cols = append(cols, it.Expr.String())
			}
		}
	}
	return cols
}

// execSelect replays the cached analysis: bind-time pushdown value
// resolution, then the shared join loop. Everything per-execution lives in
// the pooled scratch; only the result rows are freshly allocated (they
// escape to the caller). Reads take no lock, but a finished transaction is
// still refused.
func (p *Prepared) execSelect(tx *txn.Txn, sp *selectPlan, params value.Tuple) (*Result, error) {
	if err := tx.Err(); err != nil {
		return nil, err
	}
	sc, _ := p.scratch.Get().(*execScratch)
	if sc == nil {
		sc = &execScratch{env: NewEnv()}
	}
	defer p.scratch.Put(sc)
	if cap(sc.fts) < len(sp.froms) {
		sc.fts = make([]fromTable, len(sp.froms))
		sc.froms = make([]*fromTable, len(sp.froms))
		sc.iter = make([]*fromTable, len(sp.froms))
	}
	fts := sc.fts[:len(sp.froms)]
	froms := sc.froms[:len(sp.froms)]
	iter := sc.iter[:len(sp.froms)]

	// exact tracks whether every pushdown is a semantically exact stand-in
	// for its conjunct this execution: equality probes must coerce to the
	// column type (the index compares with Identical; a raw INT probe would
	// miss FLOAT-keyed rows) and be non-NULL, range bounds must be non-NULL.
	// While exact, the plan's skip mask suppresses the covered conjuncts.
	exact := true
	for i := range sp.froms {
		fp := &sp.froms[i]
		ft := &fts[i]
		eqVals := ft.eqVals[:0] // keep the scratch tuple's capacity
		ids := ft.ids           // keep the reusable id buffer
		*ft = fromTable{ref: fp.ref, tbl: fp.tbl, binding: fp.binding, rangeCol: -1, ids: ids}
		for j, src := range fp.eqSrcs {
			v, ok := src.resolve(params)
			if !ok {
				return nil, fmt.Errorf("engine: parameter $%d out of range", src.param+1)
			}
			colType := fp.tbl.Schema().Columns[fp.eqCols[j]].Type
			if cv, err := v.Coerce(colType); err == nil && !cv.IsNull() {
				v = cv
			} else {
				exact = false // NULL or uncoercible: probe raw, re-check WHERE
			}
			eqVals = append(eqVals, v)
		}
		ft.eqVals = eqVals
		ft.eqCols = fp.eqCols // plan-owned, read-only during execution
		for _, rc := range fp.rangeConds {
			v, ok := rc.src.resolve(params)
			if !ok {
				return nil, fmt.Errorf("engine: parameter $%d out of range", rc.src.param+1)
			}
			if v.IsNull() {
				exact = false // NULL bound scans wide; WHERE filters exactly
			}
			ft.rangeCol = fp.rangeCol
			b := storage.BoundAt(v, rc.incl)
			if rc.lo {
				if !ft.lo.Set || tighterLo(b, ft.lo) {
					ft.lo = b
				}
			} else {
				if !ft.hi.Set || tighterHi(b, ft.hi) {
					ft.hi = b
				}
			}
		}
		froms[i] = ft
	}
	for i, idx := range sp.iter {
		iter[i] = &fts[idx]
	}

	skip := sp.skip
	if !exact {
		skip = 0
	}
	env := sc.env
	env.Reset()
	env.BindParams(params)
	return p.eng.runSelect(tx, sp.sel, froms, iter, env, sp.cols, sp.conds, skip)
}
