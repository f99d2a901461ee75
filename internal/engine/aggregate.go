package engine

import (
	"fmt"
	"sort"

	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// hasAggregates reports whether the select list or HAVING clause contains an
// aggregate function call.
func hasAggregates(s *sql.Select) bool {
	found := false
	check := func(e sql.Expr) {
		sql.WalkExpr(e, func(x sql.Expr) {
			if _, ok := x.(*sql.FuncCall); ok {
				found = true
			}
		})
	}
	for _, it := range s.Items {
		if !it.Star {
			check(it.Expr)
		}
	}
	check(s.Having)
	for _, ob := range s.OrderBy {
		check(ob.Expr)
	}
	return found
}

// capturedRow is one joined row: the tuple bound to each FROM table.
type capturedRow []value.Tuple

// evalAggregate evaluates a SELECT with aggregates and/or GROUP BY: it
// materializes the (filtered) join, partitions it into groups, computes each
// aggregate over each group, and evaluates items/HAVING/ORDER BY with the
// aggregate calls substituted by their computed values.
func (e *Engine) evalAggregate(tx *txn.Txn, s *sql.Select, outer *Env) (*Result, error) {
	for _, it := range s.Items {
		if it.Star {
			return nil, fmt.Errorf("engine: SELECT * cannot be combined with aggregates")
		}
	}
	if err := tx.Err(); err != nil {
		return nil, err
	}
	froms := make([]*fromTable, len(s.From))
	for i, ref := range s.From {
		tbl, err := e.Catalog().Get(ref.Name)
		if err != nil {
			return nil, err
		}
		froms[i] = &fromTable{ref: ref, tbl: tbl, rangeCol: -1}
	}
	var params value.Tuple
	if outer != nil {
		params = outer.Params()
	}
	conds, skip := pushDownPredicates(s.Where, froms, len(s.From) == 1, params)

	baseEnv := NewEnv()
	if outer != nil {
		baseEnv = outer.Child()
	}

	// Materialize the filtered join, reading one consistent snapshot.
	snap := tx.Snapshot()
	var rows []capturedRow
	var rec func(i int, cur capturedRow) error
	rec = func(i int, cur capturedRow) error {
		if i == len(froms) {
			for ci, c := range conds {
				if ci < 64 && skip&(1<<uint(ci)) != 0 {
					continue
				}
				v, err := e.EvalExpr(tx, c, baseEnv)
				if err != nil {
					return err
				}
				if !truthy(v) {
					return nil
				}
			}
			cp := make(capturedRow, len(cur))
			copy(cp, cur)
			rows = append(rows, cp)
			return nil
		}
		f := froms[i]
		iterate := func(row value.Tuple) error {
			baseEnv.Bind(f.ref.Binding(), f.tbl.Schema(), row)
			cur[i] = row
			return rec(i+1, cur)
		}
		if len(f.eqCols) > 0 {
			for _, id := range f.tbl.LookupEqAppendAt(snap, nil, f.eqCols, f.eqVals) {
				row, ok := f.tbl.GetRefAt(snap, id)
				if !ok {
					continue
				}
				if err := iterate(row); err != nil {
					return err
				}
			}
			return nil
		}
		if f.rangeCol >= 0 {
			for _, id := range f.tbl.LookupRangeAt(snap, f.rangeCol, f.lo, f.hi) {
				row, ok := f.tbl.GetRefAt(snap, id)
				if !ok {
					continue
				}
				if err := iterate(row); err != nil {
					return err
				}
			}
			return nil
		}
		var iterErr error
		f.tbl.ScanAt(snap, func(_ storage.RowID, row value.Tuple) bool {
			iterErr = iterate(row)
			return iterErr == nil
		})
		return iterErr
	}
	if err := rec(0, make(capturedRow, len(froms))); err != nil {
		return nil, err
	}

	// bindRow rebuilds the environment for one captured row.
	bindRow := func(env *Env, r capturedRow) {
		for i, f := range froms {
			env.Bind(f.ref.Binding(), f.tbl.Schema(), r[i])
		}
	}

	// Partition into groups.
	type group struct {
		rep  capturedRow // representative row for non-aggregate expressions
		rows []capturedRow
	}
	var groups []*group
	if len(s.GroupBy) == 0 {
		g := &group{rows: rows}
		if len(rows) > 0 {
			g.rep = rows[0]
		}
		groups = append(groups, g)
	} else {
		index := make(map[string]*group)
		var order []string
		env := baseEnv.Child()
		for _, r := range rows {
			bindRow(env, r)
			key := make(value.Tuple, len(s.GroupBy))
			for k, ge := range s.GroupBy {
				v, err := e.EvalExpr(tx, ge, env)
				if err != nil {
					return nil, err
				}
				key[k] = v
			}
			ks := key.Key()
			g, ok := index[ks]
			if !ok {
				g = &group{rep: r}
				index[ks] = g
				order = append(order, ks)
			}
			g.rows = append(g.rows, r)
		}
		for _, ks := range order {
			groups = append(groups, index[ks])
		}
	}

	// Collect every aggregate call appearing in the query.
	var calls []*sql.FuncCall
	collect := func(ex sql.Expr) {
		sql.WalkExpr(ex, func(x sql.Expr) {
			if fc, ok := x.(*sql.FuncCall); ok {
				calls = append(calls, fc)
			}
		})
	}
	for _, it := range s.Items {
		collect(it.Expr)
	}
	collect(s.Having)
	for _, ob := range s.OrderBy {
		collect(ob.Expr)
	}

	out := &Result{Cols: aggProjectionCols(s)}
	var orderKeys []value.Tuple
	for _, g := range groups {
		vals := make(map[*sql.FuncCall]value.Value, len(calls))
		for _, fc := range calls {
			v, err := e.computeAggregate(tx, fc, g.rows, bindRow, baseEnv)
			if err != nil {
				return nil, err
			}
			vals[fc] = v
		}
		env := baseEnv.Child()
		if g.rep != nil {
			bindRow(env, g.rep)
		}
		if s.Having != nil {
			hv, err := e.EvalExpr(tx, substituteAgg(s.Having, vals), env)
			if err != nil {
				return nil, err
			}
			if !truthy(hv) {
				continue
			}
		}
		row := make(value.Tuple, 0, len(s.Items))
		for _, it := range s.Items {
			v, err := e.EvalExpr(tx, substituteAgg(it.Expr, vals), env)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		out.Rows = append(out.Rows, row)
		if len(s.OrderBy) > 0 {
			key := make(value.Tuple, len(s.OrderBy))
			for k, ob := range s.OrderBy {
				v, err := e.EvalExpr(tx, substituteAgg(ob.Expr, vals), env)
				if err != nil {
					return nil, err
				}
				key[k] = v
			}
			orderKeys = append(orderKeys, key)
		}
	}

	if len(s.OrderBy) > 0 {
		idx := make([]int, len(out.Rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, bIdx int) bool {
			ka, kb := orderKeys[idx[a]], orderKeys[idx[bIdx]]
			for k, ob := range s.OrderBy {
				c := ka[k].Compare(kb[k])
				if c != 0 {
					if ob.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		sorted := make([]value.Tuple, len(out.Rows))
		for i, j := range idx {
			sorted[i] = out.Rows[j]
		}
		out.Rows = sorted
	}
	if s.Limit >= 0 && len(out.Rows) > s.Limit {
		out.Rows = out.Rows[:s.Limit]
	}
	return out, nil
}

// computeAggregate evaluates one aggregate call over a group.
func (e *Engine) computeAggregate(tx *txn.Txn, fc *sql.FuncCall, rows []capturedRow, bindRow func(*Env, capturedRow), baseEnv *Env) (value.Value, error) {
	if fc.Star { // COUNT(*)
		return value.NewInt(int64(len(rows))), nil
	}
	env := baseEnv.Child()
	var (
		count    int64
		sumI     int64
		sumF     float64
		anyFloat bool
		minV     value.Value = value.Null
		maxV     value.Value = value.Null
	)
	for _, r := range rows {
		bindRow(env, r)
		v, err := e.EvalExpr(tx, fc.Arg, env)
		if err != nil {
			return value.Null, err
		}
		if v.IsNull() {
			continue // SQL aggregates skip NULLs
		}
		count++
		switch fc.Name {
		case "SUM", "AVG":
			switch v.Type() {
			case value.TypeInt:
				sumI += v.Int()
			case value.TypeFloat:
				anyFloat = true
				sumF += v.Float()
			default:
				return value.Null, fmt.Errorf("engine: %s over non-numeric %s", fc.Name, v.Type())
			}
		case "MIN":
			if minV.IsNull() || v.Compare(minV) < 0 {
				minV = v
			}
		case "MAX":
			if maxV.IsNull() || v.Compare(maxV) > 0 {
				maxV = v
			}
		case "COUNT":
			// counted above
		default:
			return value.Null, fmt.Errorf("engine: unknown aggregate %s", fc.Name)
		}
	}
	switch fc.Name {
	case "COUNT":
		return value.NewInt(count), nil
	case "SUM":
		if count == 0 {
			return value.Null, nil
		}
		if anyFloat {
			return value.NewFloat(sumF + float64(sumI)), nil
		}
		return value.NewInt(sumI), nil
	case "AVG":
		if count == 0 {
			return value.Null, nil
		}
		return value.NewFloat((sumF + float64(sumI)) / float64(count)), nil
	case "MIN":
		return minV, nil
	case "MAX":
		return maxV, nil
	default:
		return value.Null, fmt.Errorf("engine: unknown aggregate %s", fc.Name)
	}
}

// substituteAgg rebuilds an expression with every aggregate call replaced by
// its computed value literal.
func substituteAgg(e sql.Expr, vals map[*sql.FuncCall]value.Value) sql.Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *sql.FuncCall:
		return &sql.Literal{Val: vals[x]}
	case *sql.Binary:
		return &sql.Binary{Op: x.Op, L: substituteAgg(x.L, vals), R: substituteAgg(x.R, vals)}
	case *sql.Not:
		return &sql.Not{X: substituteAgg(x.X, vals)}
	case *sql.Neg:
		return &sql.Neg{X: substituteAgg(x.X, vals)}
	case *sql.Between:
		return &sql.Between{X: substituteAgg(x.X, vals), Lo: substituteAgg(x.Lo, vals), Hi: substituteAgg(x.Hi, vals)}
	case *sql.InValues:
		vs := make([]sql.Expr, len(x.Vals))
		for i, v := range x.Vals {
			vs[i] = substituteAgg(v, vals)
		}
		return &sql.InValues{X: substituteAgg(x.X, vals), Vals: vs, Neg: x.Neg}
	default:
		return e
	}
}

func aggProjectionCols(s *sql.Select) []string {
	cols := make([]string, len(s.Items))
	for i, it := range s.Items {
		switch {
		case it.Alias != "":
			cols[i] = it.Alias
		default:
			if cr, ok := it.Expr.(*sql.ColumnRef); ok {
				cols[i] = cr.Name
			} else {
				cols[i] = it.Expr.String()
			}
		}
	}
	return cols
}
