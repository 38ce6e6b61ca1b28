package sqldb

import "maps"

// The one traversal of the AST. Every whole-tree analysis of an expression
// is a function handed to Walk, every rewrite one handed to Rewrite, and
// RewriteSelect and rewriteStmt apply Rewrite to every expression slot of a
// SELECT or a whole statement. None of them enters a subquery's SELECT
// (InExpr.Sub, SubqueryExpr.Query): the function sees the InExpr or
// SubqueryExpr node and handles the subquery itself when it needs to.

// Walk calls fn on e and, in pre-order, on every expression below it; when
// fn returns false, Walk skips that node's children. A nil e is not
// visited.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch t := e.(type) {
	case *BinExpr:
		Walk(t.L, fn)
		Walk(t.R, fn)
	case *UnaryExpr:
		Walk(t.E, fn)
	case *FuncCall:
		for _, a := range t.Args {
			Walk(a, fn)
		}
	case *CaseExpr:
		for _, w := range t.Whens {
			Walk(w.Cond, fn)
			Walk(w.Then, fn)
		}
		Walk(t.Else, fn)
	case *InExpr:
		Walk(t.E, fn)
		for _, x := range t.List {
			Walk(x, fn)
		}
	case *BetweenExpr:
		Walk(t.E, fn)
		Walk(t.Lo, fn)
		Walk(t.Hi, fn)
	case *IsNullExpr:
		Walk(t.E, fn)
	}
}

// Rewrite applies fn to e and, in pre-order, to the expressions below it.
// fn returns the node itself to keep it, whose children are then rewritten
// in turn, or a replacement, whose children are not visited. Rewrite is
// copy-on-write: a node is copied only when one of its children changed, so
// unchanged subtrees are shared with e and an identity fn returns e itself.
// The first error from fn aborts the rewrite.
func Rewrite(e Expr, fn func(Expr) (Expr, error)) (Expr, error) {
	var err error
	rw := rewriter{fn: fn, err: &err}
	out, _ := rw.expr(e)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RewriteSelect applies Rewrite with fn to every expression of s — its
// items, the ON conditions of its FROM tree, WHERE, GROUP BY, HAVING and
// ORDER BY — and to those of its derived tables and UNION ALL branches,
// copy-on-write like Rewrite.
func RewriteSelect(s *SelectStmt, fn func(Expr) (Expr, error)) (*SelectStmt, error) {
	var err error
	rw := rewriter{fn: fn, err: &err}
	out, _ := rw.sel(s)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// rewriteStmt is RewriteSelect over a whole statement: the SELECT source of
// CREATE TABLE … AS, CREATE VIEW, INSERT … SELECT and EXPLAIN, INSERT's
// VALUES rows, and the expressions of UPDATE and DELETE.
func rewriteStmt(st Stmt, fn func(Expr) (Expr, error)) (Stmt, error) {
	var err error
	rw := rewriter{fn: fn, err: &err}
	out := rw.stmt(st)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Conjuncts splits e on AND, left to right; a nil e has none.
func Conjuncts(e Expr) []Expr {
	if b, ok := e.(*BinExpr); ok && b.Op == "and" {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	if e == nil {
		return nil
	}
	return []Expr{e}
}

// And joins the non-nil conds with AND, left-deep; it is nil when there
// are none.
func And(conds []Expr) Expr {
	var out Expr
	for _, c := range conds {
		switch {
		case c == nil:
		case out == nil:
			out = c
		default:
			out = &BinExpr{Op: "and", L: out, R: c}
		}
	}
	return out
}

// rewriter is one traversal: its function and where the first error the
// function returns goes. Each method returns its input and false when
// nothing below it changed.
type rewriter struct {
	fn  func(Expr) (Expr, error)
	err *error
}

func (rw *rewriter) expr(e Expr) (Expr, bool) {
	if e == nil || *rw.err != nil {
		return e, false
	}
	r, err := rw.fn(e)
	if err != nil {
		*rw.err = err
		return e, false
	}
	if r != e {
		return r, true
	}
	switch t := e.(type) {
	case *BinExpr:
		l, c1 := rw.expr(t.L)
		r, c2 := rw.expr(t.R)
		if c1 || c2 {
			return &BinExpr{Op: t.Op, L: l, R: r}, true
		}
	case *UnaryExpr:
		if x, ch := rw.expr(t.E); ch {
			return &UnaryExpr{Op: t.Op, E: x}, true
		}
	case *FuncCall:
		if args, ch := each(t.Args, rw.expr); ch {
			c := *t
			c.Args = args
			return &c, true
		}
	case *CaseExpr:
		whens, c1 := each(t.Whens, rw.when)
		els, c2 := rw.expr(t.Else)
		if c1 || c2 {
			return &CaseExpr{Whens: whens, Else: els}, true
		}
	case *InExpr:
		x, c1 := rw.expr(t.E)
		list, c2 := each(t.List, rw.expr)
		if c1 || c2 {
			c := *t
			c.E, c.List = x, list
			return &c, true
		}
	case *BetweenExpr:
		x, c1 := rw.expr(t.E)
		lo, c2 := rw.expr(t.Lo)
		hi, c3 := rw.expr(t.Hi)
		if c1 || c2 || c3 {
			return &BetweenExpr{E: x, Lo: lo, Hi: hi, Not: t.Not}, true
		}
	case *IsNullExpr:
		if x, ch := rw.expr(t.E); ch {
			return &IsNullExpr{E: x, Not: t.Not}, true
		}
	}
	return e, false
}

func (rw *rewriter) when(w WhenClause) (WhenClause, bool) {
	cond, c1 := rw.expr(w.Cond)
	then, c2 := rw.expr(w.Then)
	return WhenClause{Cond: cond, Then: then}, c1 || c2
}

func (rw *rewriter) item(it SelectItem) (SelectItem, bool) {
	e, ch := rw.expr(it.Expr)
	it.Expr = e
	return it, ch
}

func (rw *rewriter) order(o OrderItem) (OrderItem, bool) {
	e, ch := rw.expr(o.Expr)
	o.Expr = e
	return o, ch
}

func (rw *rewriter) sel(s *SelectStmt) (*SelectStmt, bool) {
	if s == nil {
		return nil, false
	}
	items, c1 := each(s.Items, rw.item)
	from, c2 := rw.from(s.From)
	where, c3 := rw.expr(s.Where)
	groupBy, c4 := each(s.GroupBy, rw.expr)
	having, c5 := rw.expr(s.Having)
	orderBy, c6 := each(s.OrderBy, rw.order)
	union, c7 := each(s.UnionAll, rw.sel)
	if !(c1 || c2 || c3 || c4 || c5 || c6 || c7) {
		return s, false
	}
	c := *s
	c.Items, c.From, c.Where, c.GroupBy, c.Having, c.OrderBy, c.UnionAll =
		items, from, where, groupBy, having, orderBy, union
	return &c, true
}

func (rw *rewriter) from(r *TableRef) (*TableRef, bool) {
	switch {
	case r == nil:
	case r.Join != nil:
		l, c1 := rw.from(r.Join.L)
		rr, c2 := rw.from(r.Join.R)
		cond, c3 := rw.expr(r.Join.Cond)
		if c1 || c2 || c3 {
			c := *r
			c.Join = &JoinRef{L: l, R: rr, Cond: cond, Left: r.Join.Left}
			return &c, true
		}
	case r.Sub != nil:
		if sub, ch := rw.sel(r.Sub); ch {
			c := *r
			c.Sub = sub
			return &c, true
		}
	}
	return r, false
}

func (rw *rewriter) stmt(st Stmt) Stmt {
	switch t := st.(type) {
	case *SelectStmt:
		s, _ := rw.sel(t)
		return s
	case *CreateTableStmt:
		if s, ch := rw.sel(t.As); ch {
			c := *t
			c.As = s
			return &c
		}
	case *CreateViewStmt:
		if s, ch := rw.sel(t.As); ch {
			c := *t
			c.As = s
			return &c
		}
	case *ExplainStmt:
		if s, ch := rw.sel(t.Query); ch {
			c := *t
			c.Query = s
			return &c
		}
	case *InsertStmt:
		values, c1 := each(t.Values, func(row []Expr) ([]Expr, bool) { return each(row, rw.expr) })
		query, c2 := rw.sel(t.Query)
		if c1 || c2 {
			c := *t
			c.Values, c.Query = values, query
			return &c
		}
	case *UpdateStmt:
		set, c1 := t.Set, false
		for _, k := range sortedKeys(t.Set) {
			x, ch := rw.expr(t.Set[k])
			if !ch {
				continue
			}
			if !c1 {
				set, c1 = maps.Clone(t.Set), true
			}
			set[k] = x
		}
		where, c2 := rw.expr(t.Where)
		if c1 || c2 {
			c := *t
			c.Set, c.Where = set, where
			return &c
		}
	case *DeleteStmt:
		if where, ch := rw.expr(t.Where); ch {
			c := *t
			c.Where = where
			return &c
		}
	}
	return st
}

// each applies f to the elements of xs, copying xs at the first element f
// changes.
func each[T any](xs []T, f func(T) (T, bool)) ([]T, bool) {
	out, changed := xs, false
	for i, x := range xs {
		y, ch := f(x)
		if !ch {
			continue
		}
		if !changed {
			out, changed = append([]T(nil), xs...), true
		}
		out[i] = y
	}
	return out, changed
}
