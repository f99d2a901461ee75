package engine

import (
	"fmt"
	"strings"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/value"
)

// estimateFromPlan costs one planned FROM entry with the plan package.
// params, when non-nil, resolves parameter-valued pushdown sources so a
// bind-time EXPLAIN (and template grounding, which executes through the text
// path) re-costs with the actual values; unresolved parameters estimate with
// default selectivities.
func estimateFromPlan(fp *fromPlan, st storage.TableStats, params value.Tuple) plan.Access {
	in := plan.Input{Stats: st, EqCols: fp.eqCols, RangeCol: fp.rangeCol}
	for _, src := range fp.eqSrcs {
		v, known := src.lit, src.param < 0
		if !known && src.param < len(params) {
			v, known = params[src.param], true
		}
		in.EqVals = append(in.EqVals, v)
		in.EqKnown = append(in.EqKnown, known)
	}
	// A converted equality probe shows up as two inclusive bounds sharing one
	// parameter source; when that parameter is unbound the bounds stay unknown
	// but the range is still structurally degenerate.
	if len(fp.rangeConds) == 2 && len(fp.eqCols) == 0 {
		a, b := fp.rangeConds[0], fp.rangeConds[1]
		if a.lo != b.lo && a.incl && b.incl &&
			a.src.param >= 0 && a.src.param == b.src.param {
			in.EqRange = true
		}
	}
	for _, rc := range fp.rangeConds {
		v, known := rc.src.lit, rc.src.param < 0
		if !known && rc.src.param < len(params) {
			v, known = params[rc.src.param], true
		}
		if !known {
			if rc.lo {
				in.LoParam = true
			} else {
				in.HiParam = true
			}
			continue
		}
		b := storage.BoundAt(v, rc.incl)
		if rc.lo {
			if !in.Lo.Set || tighterLo(b, in.Lo) {
				in.Lo = b
			}
		} else {
			if !in.Hi.Set || tighterHi(b, in.Hi) {
				in.Hi = b
			}
		}
	}
	return plan.Estimate(in)
}

// estimateFrom costs one text-path FROM entry whose pushdown values are
// already resolved. Equality probe values are pre-coerced and non-NULL on
// this path (pushDownPredicates withholds the probe otherwise), so only the
// slots and bounds matter.
func estimateFrom(f *fromTable) plan.Access {
	return plan.Estimate(plan.Input{
		Stats: f.tbl.Stats(), EqCols: f.eqCols,
		RangeCol: f.rangeCol, Lo: f.lo, Hi: f.hi,
	})
}

// ExplainResult wraps a plan description as a one-column result set, one row
// per rendered line, so EXPLAIN flows through every execution surface
// (engine, core, wire protocol, CLIs) like any other query.
func ExplainResult(d *plan.Desc) *Result {
	text := strings.TrimRight(d.String(), "\n")
	res := &Result{Cols: []string{"plan"}}
	for _, line := range strings.Split(text, "\n") {
		res.Rows = append(res.Rows, value.Tuple{value.NewString(line)})
	}
	return res
}

func colsLabel(schema *value.Schema, cols []int) string {
	var b strings.Builder
	for i, o := range cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(schema.Columns[o].Name)
	}
	return b.String()
}

// ExplainStmt builds the typed plan description for a statement without
// executing it. Parameter values, when supplied, refine the estimates the
// same way they would at bind time. Statements outside the plannable SELECT
// shape get a one-line note instead of access-path steps.
func (e *Engine) ExplainStmt(stmt sql.Statement, params value.Tuple) (*plan.Desc, error) {
	d := &plan.Desc{SQL: stmt.String()}
	switch s := stmt.(type) {
	case *sql.Select:
		return e.explainSelect(d, s, params)
	case *sql.Insert:
		d.Kind, d.Note = "insert", fmt.Sprintf("row construction + index maintenance on %s", s.Table)
	case *sql.Update:
		d.Kind, d.Note = "update", fmt.Sprintf("filtered scan of %s, new version per match", s.Table)
	case *sql.Delete:
		d.Kind, d.Note = "delete", fmt.Sprintf("filtered scan of %s, tombstone per match", s.Table)
	case *sql.CreateTable:
		d.Kind, d.Note = "create table", "catalog DDL (bumps the plan-cache version)"
	case *sql.CreateIndex:
		d.Kind, d.Note = "create index", "index build over every stored version (bumps the plan-cache version)"
	case *sql.DropTable:
		d.Kind, d.Note = "drop table", "catalog DDL (bumps the plan-cache version)"
	case *sql.TxnStmt:
		d.Kind, d.Note = "transaction control", "no data access"
	case *sql.EntangledSelect:
		d.Kind, d.Note = "entangled select", "coordination plan — explain through the coordination pipeline for generator detail"
	default:
		d.Kind, d.Note = "statement", fmt.Sprintf("%T has no plan", stmt)
	}
	return d, nil
}

func (e *Engine) explainSelect(d *plan.Desc, s *sql.Select, params value.Tuple) (*plan.Desc, error) {
	d.Kind = "select"
	switch {
	case hasAggregates(s) || len(s.GroupBy) > 0:
		d.Note = "aggregation over a filtered scan"
		return d, nil
	case len(s.From) == 0:
		d.Note = "constant select (no table access)"
		return d, nil
	}
	froms := make([]fromPlan, len(s.From))
	for i, ref := range s.From {
		tbl, err := e.Catalog().Get(ref.Name)
		if err != nil {
			return nil, err
		}
		froms[i] = fromPlan{
			ref: ref, tbl: tbl, binding: strings.ToLower(ref.Binding()), rangeCol: -1,
		}
	}
	conds := sql.Conjuncts(s.Where)
	skip := planPushDowns(s.Where, froms, len(s.From) == 1)

	stats := make([]storage.TableStats, len(froms))
	ests := make([]float64, len(froms))
	accs := make([]plan.Access, len(froms))
	for i := range froms {
		stats[i] = froms[i].tbl.Stats()
		accs[i] = estimateFromPlan(&froms[i], stats[i], params)
		ests[i] = accs[i].Rows
	}
	eliminated := 0
	for ci := range conds {
		if ci < 64 && skip&(1<<uint(ci)) != 0 {
			eliminated++
		}
	}
	for _, idx := range plan.Order(ests) {
		f := &froms[idx]
		step := plan.Step{
			Table:   f.tbl.Name(),
			Binding: f.ref.Binding(),
			Path:    accs[idx].Path.String(),
			Index:   accs[idx].Index,
			Columns: colsLabel(f.tbl.Schema(), accs[idx].Cols),
			EstRows: accs[idx].Rows,
			Rows:    stats[idx].Rows,
		}
		if len(d.Steps) == 0 {
			step.Residual = len(conds) - eliminated
			step.Eliminated = eliminated
		}
		d.Steps = append(d.Steps, step)
	}
	return d, nil
}
