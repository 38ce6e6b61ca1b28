package sqldb

// Statement + plan caching.
//
// Two LRUs sit in front of the lex/parse/optimize pipeline:
//
//   - the statement cache maps normalized raw SQL text to its parsed AST,
//     so a repeated query skips the lexer and parser entirely;
//   - the plan cache maps the canonical rendering of a SELECT
//     (SelectStmt.String(), so textually-different but semantically
//     identical queries share an entry) to an optimized plan plus the
//     dependency set it was planned against.
//
// Invalidation contract: every cached plan records, for each table or view
// the statement references (including inside scalar/IN subqueries and view
// definitions), the object's identity and — for tables — its write-version
// counter. A hit is only served when every dependency still resolves to
// the same object at the same version; DDL (DROP/CREATE), INSERT, UPDATE,
// DELETE, and TRUNCATE all advance a table's version, so any of them
// invalidates dependent plans on their next lookup. This is required for
// correctness (the planner folds uncorrelated subqueries into literals at
// plan time) and keeps cardinality estimates fresh for free.
//
// Plans are cached only for hint-free, single-branch SELECTs: DL2SQL-OP
// passes per-query optimizer hints, and a hinted plan must not be served
// to an unhinted query (or vice versa). Cached plans are immutable —
// execution compiles expressions per run and keeps all per-run state in
// execCtx — so one plan can serve concurrent executions; `?` parameters
// are bound by copy-on-write substitution into a private copy of the plan
// (see Prepared). A Prepared statement without placeholders also keeps
// its own plan, under a key of the planner's inputs rather than table
// versions (see kept.go).

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/qerr"
)

// planEntry is one plan-cache value: the optimized plan and the catalog
// state it assumed.
type planEntry struct {
	plan Plan
	deps []planDep
}

// planDep pins one referenced relation: a base table at a specific write
// version, or a view by identity (views are replaced wholesale, so pointer
// equality suffices; the tables under the view are tracked as their own
// deps).
type planDep struct {
	name    string
	table   *Table
	view    *View
	version int64
}

// EnableCache activates the prepared-statement and plan caches, each
// bounded to capacity entries. capacity <= 0 disables caching (the
// default). When DB.Metrics is set, hit/miss/eviction counters appear
// under "sqldb.cache.stmt.*" and "sqldb.cache.plan.*", plus
// "sqldb.cache.plan.invalidations" for version-mismatch discards; set
// Metrics before calling EnableCache.
func (db *DB) EnableCache(capacity int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if capacity <= 0 {
		db.stmtCache, db.planCache, db.planInvalidCtr = nil, nil, nil
		return
	}
	db.stmtCache = cache.New[string, Stmt](capacity)
	db.planCache = cache.New[string, *planEntry](capacity)
	db.stmtCache.Instrument(db.Metrics, obs.CachePrefixStmt)
	db.planCache.Instrument(db.Metrics, obs.CachePrefixPlan)
	db.planInvalidCtr = db.Metrics.Counter(obs.MetricPlanInvalidations)
}

// CacheEnabled reports whether EnableCache is active.
func (db *DB) CacheEnabled() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.planCache != nil
}

// CacheStats reports the statement- and plan-cache counters.
// PlanInvalidations counts cached plans discarded because a dependency
// changed; such lookups first count as plan hits in Plan.Hits.
type CacheStats struct {
	Stmt              cache.Stats
	Plan              cache.Stats
	PlanInvalidations int64
}

// CacheStats snapshots the cache counters (all zeros when disabled).
func (db *DB) CacheStats() CacheStats {
	db.mu.RLock()
	sc, pc := db.stmtCache, db.planCache
	db.mu.RUnlock()
	return CacheStats{
		Stmt:              sc.Stats(),
		Plan:              pc.Stats(),
		PlanInvalidations: db.planInvalidations.Load(),
	}
}

// String renders the cache counters in the metrics-snapshot style.
func (s CacheStats) String() string {
	return fmt.Sprintf(
		"stmt  hits=%d misses=%d evictions=%d len=%d/%d\nplan  hits=%d misses=%d evictions=%d invalidations=%d len=%d/%d",
		s.Stmt.Hits, s.Stmt.Misses, s.Stmt.Evictions, s.Stmt.Len, s.Stmt.Cap,
		s.Plan.Hits, s.Plan.Misses, s.Plan.Evictions, s.PlanInvalidations, s.Plan.Len, s.Plan.Cap)
}

// normalizeSQL is the statement-cache key function: it collapses runs of
// whitespace outside string literals to one space and strips the trailing
// semicolon, so formatting differences share an entry while literal
// contents stay significant.
func normalizeSQL(s string) string {
	var sb strings.Builder
	sb.Grow(len(s))
	inStr := false
	space := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inStr {
			sb.WriteByte(c)
			if c == '\\' && i+1 < len(s) {
				i++
				sb.WriteByte(s[i])
				continue
			}
			if c == '\'' {
				inStr = false
			}
			continue
		}
		switch c {
		case '\'':
			if space && sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			space = false
			inStr = true
			sb.WriteByte(c)
		case ' ', '\t', '\n', '\r':
			space = true
		default:
			if space && sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			space = false
			sb.WriteByte(c)
		}
	}
	return strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sb.String()), ";"))
}

// parseOne parses a single statement, consulting the statement cache.
// Cached ASTs are shared across executions; every post-parse transform in
// the engine is copy-on-write, so they stay immutable.
func (db *DB) parseOne(sql string) (Stmt, error) {
	db.mu.RLock()
	sc := db.stmtCache
	db.mu.RUnlock()
	if sc == nil {
		return Parse(sql)
	}
	key := normalizeSQL(sql)
	if st, ok := sc.Get(key); ok {
		return st, nil
	}
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	if _, ok := st.(*SelectStmt); ok {
		// Only SELECTs are worth keeping: DDL/DML texts (e.g. dl2sql's
		// uniquely-named temp-table scripts) would churn the LRU.
		sc.Put(key, st)
	}
	return st, nil
}

// planSelectCached plans a SELECT, consulting the plan cache when the
// query is eligible (cache enabled, no hints, single branch, no relations
// bound). hit reports
// whether a validated cached plan was served; cacheable reports whether
// the cache was consulted at all (EXPLAIN renders this distinction). The
// outcome is noted in the statement's accounting before any subquery runs,
// so the statement's own state is the one recorded. A fresh plan is made
// under ctx, taking notes when notes is non-nil.
//
// A fresh plan is NOT inserted into the cache here: the returned commit
// closure performs the insertion, and callers invoke it only after the
// plan executed successfully — so a query that is cancelled, times out,
// or fails mid-execution never populates the cache (commit is a no-op for
// hits and uncacheable statements).
func (db *DB) planSelectCached(ctx context.Context, sel *SelectStmt, hints *QueryHints, notes *planNotes) (plan Plan, hit, cacheable bool, commit func(), err error) {
	noCommit := func() {}
	acct := acctFrom(ctx)
	db.mu.RLock()
	pc := db.planCache
	db.mu.RUnlock()
	if pc == nil || hints != nil || len(sel.UnionAll) > 0 || relationsFrom(ctx) != nil {
		if pc == nil {
			acct.noteCacheState("disabled")
		} else {
			acct.noteCacheState("bypass")
		}
		p, err := (&planner{db: db, ctx: ctx, hints: hints, notes: notes}).plan(sel)
		return p, false, false, noCommit, err
	}
	key := sel.String()
	if e, ok := pc.Get(key); ok {
		if db.depsValid(e.deps) {
			acct.noteCacheState("hit")
			return e.plan, true, true, noCommit, nil
		}
		pc.Delete(key)
		db.planInvalidations.Add(1)
		db.planInvalidCtr.Add(1)
	}
	// Collect dependencies from the original AST (before subquery
	// resolution rewrites them away). An unresolvable relation makes the
	// statement uncacheable rather than an error here — planning itself
	// reports the real failure. Unresolvable relations include sys.*
	// virtual tables, whose rows are volatile by design — the cache never
	// serves these plans, so they surface as "bypass" in EXPLAIN and the
	// query history.
	deps, depsOK := db.collectSelectDeps(sel)
	if depsOK {
		acct.noteCacheState("miss")
	} else {
		acct.noteCacheState("bypass")
	}
	p, err := (&planner{db: db, ctx: ctx, hints: hints, notes: notes}).plan(sel)
	if err != nil {
		return nil, false, true, noCommit, err
	}
	if !depsOK {
		return p, false, false, noCommit, nil
	}
	return p, false, true, func() { pc.Put(key, &planEntry{plan: p, deps: deps}) }, nil
}

// depsValid reports whether every recorded dependency still resolves to
// the same catalog object at the same version.
func (db *DB) depsValid(deps []planDep) bool {
	for _, d := range deps {
		if d.table != nil {
			t := db.lookupTable(d.name)
			if t != d.table || t.Version() != d.version {
				return false
			}
			continue
		}
		if db.lookupView(d.name) != d.view {
			return false
		}
	}
	return true
}

// collectSelectDeps walks a SELECT (FROM tree, all expressions, subqueries,
// view definitions, UNION ALL branches) and records every referenced table
// and view. ok is false when a relation cannot be resolved — such
// statements are not cached.
func (db *DB) collectSelectDeps(sel *SelectStmt) (deps []planDep, ok bool) {
	seen := map[string]bool{}
	ok = true
	var walkSel func(s *SelectStmt)
	addRel := func(name string) {
		key := strings.ToLower(name)
		if seen[key] {
			return
		}
		seen[key] = true
		if v := db.lookupView(name); v != nil {
			deps = append(deps, planDep{name: name, view: v})
			walkSel(v.Query)
			return
		}
		if t := db.lookupTable(name); t != nil {
			deps = append(deps, planDep{name: name, table: t, version: t.Version()})
			return
		}
		ok = false
	}
	subqueries := func(e Expr) (Expr, error) {
		switch t := e.(type) {
		case *InExpr:
			walkSel(t.Sub)
		case *SubqueryExpr:
			walkSel(t.Query)
		}
		return e, nil
	}
	// subqueries never fails.
	walkSel = func(s *SelectStmt) { _, _ = rewriteSelect(s, subqueries, addRel) }
	walkSel(sel)
	return deps, ok
}

// ---- Prepared statements ----

// Prepared is a pre-parsed statement with `?` placeholders. Executing it
// binds arguments positionally; for hint-free single-branch SELECTs whose
// parameters sit outside subqueries, the optimized plan is fetched from
// the plan cache (keyed with the placeholders intact, so one plan serves
// every binding) and the arguments are substituted into a copy-on-write
// clone of the plan — repeated executions skip lex, parse, and optimize.
// A statement without placeholders runs its parsed AST as is, under the
// text rendered once by Prepare, so repeated executions render nothing;
// when it reads a SELECT — as SELECT, CREATE TABLE … AS or INSERT …
// SELECT — it also keeps that SELECT's plans (see kept.go).
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
	// sels are the UNION ALL branches of the SELECT whose plans a
	// placeholder-free statement keeps: the statement itself or the source
	// of CREATE TABLE … AS or INSERT … SELECT; nil for every other
	// statement. kept holds their plans, replaced whenever the planner's
	// inputs move.
	sels []*SelectStmt
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
	if p.n == 0 && sel != nil {
		first := *sel
		first.UnionAll = nil
		p.sels = append([]*SelectStmt{&first}, sel.UnionAll...)
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
// The plan cache never serves a hinted SELECT; a kept plan serves one
// unless it pins a JoinOrder or calls a UDF.
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
	if p.sels != nil && (hints == nil || len(hints.JoinOrder) == 0) {
		return p.record(ctx, func(ctx context.Context) (*Result, error) {
			return p.db.execStmtWith(ctx, p.stmt, hints, p.runSelect)
		})
	}
	if p.n == 0 {
		return p.db.execStmtRecorded(ctx, p.stmt, p.text, hints)
	}
	if sel, isSel := p.stmt.(*SelectStmt); isSel && !p.paramsInSub && len(sel.UnionAll) == 0 {
		return p.record(ctx, func(ctx context.Context) (*Result, error) {
			plan, _, _, commit, err := p.db.planSelectCached(ctx, sel, hints, nil)
			if err != nil {
				return nil, err
			}
			res, err := p.db.execPlan(bindPlanParams(plan, args), p.db.newExecCtx(ctx))
			if err != nil {
				return nil, err
			}
			commit()
			return res, nil
		})
	}
	// Parameters inside subqueries (or non-SELECT statements): substitute
	// into a copy of the AST and run the normal path.
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
