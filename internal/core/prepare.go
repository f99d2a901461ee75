package core

import (
	"context"
	"fmt"

	"repro/internal/coord"
	"repro/internal/engine"
	"repro/internal/eq"
	"repro/internal/sql"
	"repro/internal/value"
)

// PreparedStmt is a reusable statement handle: the text was parsed once, and
// the layer-specific artifact — an engine plan for plain SQL, a compiled
// coordination template for entangled queries — was built once. Executing it
// binds a parameter vector (`?` / `$n` slots in the text) without touching
// the parser or compiler again.
//
// Handles are immutable and safe for concurrent use; they are also what the
// text→artifact LRU behind plain Execute stores, so one handle may serve
// many sessions.
type PreparedStmt struct {
	sys  *System
	src  string
	stmt sql.Statement
	n    int

	plan *engine.Prepared // plain statements (nil for entangled/txn control)
	tmpl *eq.Template     // entangled queries
}

// Source returns the SQL text the statement was prepared from.
func (ps *PreparedStmt) Source() string { return ps.src }

// NumParams returns the parameter-vector length ExecuteBound expects.
func (ps *PreparedStmt) NumParams() int { return ps.n }

// Entangled reports whether execution submits to the coordination component.
func (ps *PreparedStmt) Entangled() bool { return ps.tmpl != nil }

// Prepare parses and compiles one statement for repeated execution. The
// result is cached: preparing the same text again (on this System, while the
// entry survives the LRU) returns the same handle without re-parsing.
func (s *System) Prepare(src string) (*PreparedStmt, error) {
	return s.prepareCached(src)
}

// prepareCached is the cache-fronted compile path shared by Prepare,
// Execute and Session.Execute.
func (s *System) prepareCached(src string) (*PreparedStmt, error) {
	ddl := s.cat.DDLVersion()
	if ps := s.stmts.get(src, ddl); ps != nil {
		return ps, nil
	}
	ps, err := s.compile(src)
	if err != nil {
		return nil, err
	}
	s.stmts.put(src, ps, ddl)
	return ps, nil
}

// compile builds the layered artifact for one statement.
func (s *System) compile(src string) (*PreparedStmt, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	ps := &PreparedStmt{sys: s, src: src, stmt: stmt, n: sql.NumParams(stmt)}
	switch es := stmt.(type) {
	case *sql.EntangledSelect:
		tmpl, err := eq.CompileTemplate(es, src)
		if err != nil {
			return nil, err
		}
		ps.tmpl = tmpl
	case *sql.TxnStmt:
		// Transaction control has no artifact; Session routes it.
	default:
		plan, err := s.eng.Prepare(stmt)
		if err != nil {
			return nil, err
		}
		ps.plan = plan
	}
	return ps, nil
}

// checkParams validates the bound vector's arity.
func (ps *PreparedStmt) checkParams(params value.Tuple) error {
	if len(params) < ps.n {
		return fmt.Errorf("core: statement needs %d parameter(s), got %d", ps.n, len(params))
	}
	return nil
}

// ExecuteBound runs the prepared statement with params bound, outside any
// interactive transaction. Entangled statements submit a template-bound
// query to the coordinator — skipping sql.Parse and eq compilation entirely
// — and return a waitable handle, exactly like Execute does for text.
func (ps *PreparedStmt) ExecuteBound(params value.Tuple, owner string) (*Response, error) {
	if err := ps.sys.gate(ps.stmt); err != nil {
		return nil, err
	}
	if err := ps.checkParams(params); err != nil {
		return nil, err
	}
	if ps.tmpl != nil {
		h, err := ps.SubmitBound(params, owner)
		if err != nil {
			return nil, err
		}
		return &Response{Handle: h, Entangled: true}, nil
	}
	if _, ok := ps.stmt.(*sql.TxnStmt); ok {
		return nil, fmt.Errorf("core: BEGIN/COMMIT/ROLLBACK require a Session (interactive transactions are per-connection)")
	}
	res, err := ps.plan.Execute(params)
	if err != nil {
		return nil, err
	}
	if err := ps.sys.afterPlain(ps.stmt); err != nil {
		return nil, err
	}
	return &Response{Result: res}, nil
}

// SubmitBound binds params into the entangled template and registers the
// query with the coordination component — the bind-many half of the
// pipeline: no parse, no compile, just atom substitution and submission.
func (ps *PreparedStmt) SubmitBound(params value.Tuple, owner string) (*coord.Handle, error) {
	if err := ps.sys.gate(ps.stmt); err != nil {
		return nil, err
	}
	if ps.tmpl == nil {
		return nil, fmt.Errorf("core: SubmitBound requires an entangled statement (INTO ANSWER)")
	}
	if err := ps.checkParams(params); err != nil {
		return nil, err
	}
	q, err := ps.tmpl.Bind(params)
	if err != nil {
		return nil, err
	}
	h, err := ps.sys.coord.Submit(q, owner)
	if err != nil {
		return nil, err
	}
	if err := ps.sys.commitWAL(); err != nil {
		return nil, err
	}
	return h, nil
}

// Exec is ExecuteBound with Go-native arguments (see value.NewTuple for the
// accepted kinds).
func (ps *PreparedStmt) Exec(owner string, args ...any) (*Response, error) {
	return ps.ExecuteBound(value.NewTuple(args...), owner)
}

// Prepare is System.Prepare; prepared handles are session-independent, but
// executing one through ExecutePrepared respects this session's open
// transaction.
func (s *Session) Prepare(src string) (*PreparedStmt, error) {
	return s.sys.Prepare(src)
}

// ExecutePrepared runs a prepared statement in this session: inside an open
// interactive transaction plain statements join it (entangled queries are
// rejected, as with text), outside one the system-level path applies.
func (s *Session) ExecutePrepared(ps *PreparedStmt, params value.Tuple, owner string) (*Response, error) {
	if _, ok := ps.stmt.(*sql.TxnStmt); ok {
		return s.ExecuteStmt(ps.stmt, owner)
	}
	if ps.tmpl != nil {
		if s.tx != nil {
			return nil, fmt.Errorf("%w: entangled queries coordinate in their own transaction; COMMIT or ROLLBACK first", ErrTxnOpen)
		}
		return ps.ExecuteBound(params, owner)
	}
	if err := ps.checkParams(params); err != nil {
		return nil, err
	}
	if s.tx == nil {
		return ps.ExecuteBound(params, owner)
	}
	res, err := ps.plan.ExecuteIn(s.tx, params)
	if err != nil {
		// Statement-level failure aborts the whole interactive transaction
		// (strict 2PL has no partial statement rollback) — same contract as
		// the text path.
		s.tx.Rollback() //nolint:errcheck
		s.tx = nil
		s.sys.commitWAL() //nolint:errcheck // compensations durable; sticky error resurfaces on the next commit
		return nil, fmt.Errorf("%w (transaction rolled back)", err)
	}
	return &Response{Result: res}, nil
}

// ExecutePreparedContext is ExecutePrepared with cancellation plumbing: an
// entangled submission stays bound to ctx (withdrawn on cancellation or
// deadline), mirroring Session.ExecuteContext.
func (s *Session) ExecutePreparedContext(ctx context.Context, ps *PreparedStmt, params value.Tuple, owner string) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := s.ExecutePrepared(ps, params, owner)
	if err != nil {
		return nil, err
	}
	s.sys.bindContext(ctx, resp)
	return resp, nil
}
