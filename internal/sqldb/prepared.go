package sqldb

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/qerr"
)

// Prepared is a pre-parsed statement with `?` placeholders. Executing it
// binds arguments positionally. When it reads a SELECT — as SELECT, CREATE
// TABLE … AS or INSERT … SELECT — with no placeholder inside a subquery,
// that SELECT's plans come from the plan store (cache.go): keyed with the
// placeholders intact, so one plan serves every binding, and the arguments
// are substituted into a copy-on-write clone of the plan. A statement
// without placeholders also keeps its own handle on its entry, so it
// skips planning with or without EnableCache, and runs its parsed AST
// under the text rendered once by Prepare.
type Prepared struct {
	db   *DB
	stmt Stmt
	// text is stmt's canonical rendering, recorded in the query history
	// for every execution that does not substitute arguments into the AST.
	text string
	// n is the number of `?` placeholders; paramsInSub marks placeholders
	// inside scalar/IN subqueries, which the planner folds at plan time and
	// must therefore be bound before planning.
	n           int
	paramsInSub bool
	// stored is the SELECT the statement reads, as the plan store finds
	// it; stored.sel is nil for every other statement and when
	// paramsInSub.
	stored storedSelect
	// kept is the statement's own entry when it has no placeholders.
	kept atomic.Pointer[keptPlan]
}

// Prepare parses a single statement for repeated execution with bound
// parameters. Works with or without EnableCache; with it, the parse and
// plan are shared through the caches.
func (db *DB) Prepare(sql string) (*Prepared, error) {
	st, err := db.parseOne(sql)
	if err != nil {
		return nil, err
	}
	p := &Prepared{db: db, stmt: st, text: st.String()}
	p.n, p.paramsInSub = countStmtParams(st)
	var sel *SelectStmt
	switch t := st.(type) {
	case *SelectStmt:
		sel = t
	case *CreateTableStmt:
		sel = t.As
	case *InsertStmt:
		sel = t.Query
	}
	if sel != nil && !p.paramsInSub {
		p.stored = storedSelect{sel: sel, sels: branches(sel), key: sel.String()}
		if p.n == 0 {
			p.stored.own = &p.kept
		}
	}
	return p, nil
}

// NumParams returns the number of `?` placeholders.
func (p *Prepared) NumParams() int { return p.n }

// Query executes the prepared statement with the given arguments bound to
// its `?` placeholders, in order.
func (p *Prepared) Query(args ...Datum) (*Result, error) {
	return p.ExecHintedContext(context.Background(), nil, args...)
}

// QueryContext is Query with cancellation and deadline support.
func (p *Prepared) QueryContext(ctx context.Context, args ...Datum) (*Result, error) {
	return p.ExecHintedContext(ctx, nil, args...)
}

// Exec is Query for statements that may not return rows (INSERT, UPDATE,
// DELETE, ...).
func (p *Prepared) Exec(args ...Datum) (*Result, error) {
	return p.ExecHintedContext(context.Background(), nil, args...)
}

// ExecContext is Exec with cancellation and deadline support.
func (p *Prepared) ExecContext(ctx context.Context, args ...Datum) (*Result, error) {
	return p.ExecHintedContext(ctx, nil, args...)
}

// ExecHintedContext is ExecContext with optimizer hints (see ExecHinted).
// Its SELECT's plans come from the store under the store's rule for hints.
func (p *Prepared) ExecHintedContext(ctx context.Context, hints *QueryHints, args ...Datum) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, qerr.Recovered("sqldb prepared exec", r)
		}
	}()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if len(args) != p.n {
		return nil, fmt.Errorf("sqldb: prepared statement wants %d arguments, got %d", p.n, len(args))
	}
	if p.stored.sel != nil {
		return p.record(ctx, func(ctx context.Context) (*Result, error) {
			return p.db.execStmtWith(ctx, p.stmt, hints, func(ctx context.Context, _ *SelectStmt, hints *QueryHints) (*Result, error) {
				return p.db.runStored(ctx, &p.stored, hints, args)
			})
		})
	}
	if p.n == 0 {
		return p.db.execStmtRecorded(ctx, p.stmt, p.text, hints)
	}
	// Parameters inside subqueries (or statements reading no SELECT):
	// substitute into a copy of the AST and run the normal path.
	return p.db.execStmtRecorded(ctx, bindStmtParams(p.stmt, args), "", hints)
}

// record runs fn under the query history and trace store when either is
// armed, recording the statement under the text Prepare rendered.
func (p *Prepared) record(ctx context.Context, fn func(ctx context.Context) (*Result, error)) (*Result, error) {
	if p.db.History != nil || p.db.Traces != nil {
		return p.db.recordQuery(ctx, p.text, fn)
	}
	return fn(ctx)
}

// countStmtParams counts `?` placeholders and reports whether any sit
// inside a scalar or IN subquery (those are folded to literals at plan
// time, forcing AST-level binding).
func countStmtParams(st Stmt) (n int, inSub bool) {
	// count never fails, so the traversals' errors are dropped.
	var count func(sub bool) func(Expr) (Expr, error)
	count = func(sub bool) func(Expr) (Expr, error) {
		return func(e Expr) (Expr, error) {
			switch t := e.(type) {
			case *Param:
				n++
				inSub = inSub || sub
			case *InExpr:
				_, _ = RewriteSelect(t.Sub, count(true))
			case *SubqueryExpr:
				_, _ = RewriteSelect(t.Query, count(true))
			}
			return e, nil
		}
	}
	_, _ = rewriteStmt(st, count(false))
	return n, inSub
}

// ---- plan-level parameter binding (copy-on-write) ----

// bindParams returns the Rewrite function that substitutes args for the
// Params of an expression, subqueries included. It never fails, so neither
// do the traversals it runs and those it is handed to.
func bindParams(args []Datum) func(Expr) (Expr, error) {
	var bind func(Expr) (Expr, error)
	bind = func(e Expr) (Expr, error) {
		switch t := e.(type) {
		case *Param:
			return &Lit{Val: args[t.Idx]}, nil
		case *InExpr:
			if sub, _ := RewriteSelect(t.Sub, bind); sub != t.Sub {
				// The replacement's operand is not visited: bind it here.
				x, _ := Rewrite(t.E, bind)
				return &InExpr{E: x, Sub: sub, Not: t.Not}, nil
			}
		case *SubqueryExpr:
			if q, _ := RewriteSelect(t.Query, bind); q != t.Query {
				return &SubqueryExpr{Query: q}, nil
			}
		}
		return e, nil
	}
	return bind
}

// bindPlanParams returns a plan with every Param replaced by the matching
// argument literal. Nodes without parameters are shared with the input, so
// the cached plan stays immutable.
func bindPlanParams(p Plan, args []Datum) Plan {
	var err error // stays nil: bindParams never fails
	rw := rewriter{fn: bindParams(args), err: &err}
	out, _ := rw.plan(p)
	return out
}

// plan applies the rewriter to every expression of a plan tree.
func (rw *rewriter) plan(p Plan) (Plan, bool) {
	switch t := p.(type) {
	case *LScan:
		if fs, ch := each(t.Filters, rw.expr); ch {
			c := *t
			c.Filters = fs
			return &c, true
		}
	case *LFilter:
		child, c1 := rw.plan(t.Child)
		conds, c2 := each(t.Conds, rw.expr)
		if c1 || c2 {
			c := *t
			c.Child, c.Conds = child, conds
			return &c, true
		}
	case *LJoin:
		l, c1 := rw.plan(t.L)
		r, c2 := rw.plan(t.R)
		el, c3 := each(t.EquiL, rw.expr)
		er, c4 := each(t.EquiR, rw.expr)
		if c1 || c2 || c3 || c4 {
			c := *t
			c.L, c.R, c.EquiL, c.EquiR = l, r, el, er
			return &c, true
		}
	case *LProject:
		child, c1 := rw.plan(t.Child)
		items, c2 := each(t.Items, rw.item)
		if c1 || c2 {
			c := *t
			c.Child, c.Items = child, items
			return &c, true
		}
	case *LAgg:
		child, c1 := rw.plan(t.Child)
		gb, c2 := each(t.GroupBy, rw.expr)
		items, c3 := each(t.Items, rw.item)
		having, c4 := rw.expr(t.Having)
		if c1 || c2 || c3 || c4 {
			c := *t
			c.Child, c.GroupBy, c.Items, c.Having = child, gb, items, having
			return &c, true
		}
	case *LDistinct:
		if child, ch := rw.plan(t.Child); ch {
			return &LDistinct{Child: child}, true
		}
	case *LSort:
		child, c1 := rw.plan(t.Child)
		keys, c2 := each(t.Keys, rw.order)
		if c1 || c2 {
			c := *t
			c.Child, c.Keys = child, keys
			return &c, true
		}
	case *LLimit:
		if child, ch := rw.plan(t.Child); ch {
			c := *t
			c.Child = child
			return &c, true
		}
	case *aliasPlan:
		if child, ch := rw.plan(t.Child); ch {
			c := *t
			c.Child = child
			return &c, true
		}
	case *unionPlan:
		if branches, ch := each(t.Branches, rw.plan); ch {
			return &unionPlan{Branches: branches}, true
		}
	}
	return p, false
}

// bindStmtParams substitutes arguments into a full statement (the fallback
// path for DML and for parameters inside plan-time-folded subqueries).
func bindStmtParams(st Stmt, args []Datum) Stmt {
	out, _ := rewriteStmt(st, bindParams(args))
	return out
}
