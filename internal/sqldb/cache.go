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
// (see Prepared).

import (
	"context"
	"fmt"
	"strings"

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
// query is eligible (cache enabled, no hints, single branch). hit reports
// whether a validated cached plan was served; cacheable reports whether
// the cache was consulted at all (EXPLAIN renders this distinction).
//
// A fresh plan is NOT inserted into the cache here: the returned commit
// closure performs the insertion, and callers invoke it only after the
// plan executed successfully — so a query that is cancelled, times out,
// or fails mid-execution never populates the cache (commit is a no-op for
// hits and uncacheable statements).
func (db *DB) planSelectCached(sel *SelectStmt, hints *QueryHints) (plan Plan, hit, cacheable bool, commit func(), err error) {
	noCommit := func() {}
	db.mu.RLock()
	pc := db.planCache
	db.mu.RUnlock()
	if pc == nil || hints != nil || len(sel.UnionAll) > 0 {
		p, err := db.planSelect(sel, hints)
		return p, false, false, noCommit, err
	}
	key := sel.String()
	if e, ok := pc.Get(key); ok {
		if db.depsValid(e.deps) {
			return e.plan, true, true, noCommit, nil
		}
		pc.Delete(key)
		db.planInvalidations.Add(1)
		db.planInvalidCtr.Add(1)
	}
	// Collect dependencies from the original AST (before subquery
	// resolution rewrites them away). An unresolvable relation makes the
	// statement uncacheable rather than an error here — planning itself
	// reports the real failure.
	deps, depsOK := db.collectSelectDeps(sel)
	p, err := db.planSelect(sel, hints)
	if err != nil {
		return nil, false, true, noCommit, err
	}
	if !depsOK {
		// Unresolvable relations include sys.* virtual tables, whose rows
		// are volatile by design — the cache never serves these plans, so
		// they surface as "bypass" in EXPLAIN and the query history.
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
	var addRel func(name string)
	var walkSel func(s *SelectStmt)
	var walkExpr func(e Expr)
	var walkFrom func(r *TableRef)

	addRel = func(name string) {
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
	walkFrom = func(r *TableRef) {
		if r == nil {
			return
		}
		switch {
		case r.Join != nil:
			walkFrom(r.Join.L)
			walkFrom(r.Join.R)
			walkExpr(r.Join.Cond)
		case r.Sub != nil:
			walkSel(r.Sub)
		default:
			addRel(r.Table)
		}
	}
	walkExpr = func(e Expr) {
		switch t := e.(type) {
		case nil:
		case *BinExpr:
			walkExpr(t.L)
			walkExpr(t.R)
		case *UnaryExpr:
			walkExpr(t.E)
		case *FuncCall:
			for _, a := range t.Args {
				walkExpr(a)
			}
		case *CaseExpr:
			for _, w := range t.Whens {
				walkExpr(w.Cond)
				walkExpr(w.Then)
			}
			walkExpr(t.Else)
		case *InExpr:
			walkExpr(t.E)
			for _, x := range t.List {
				walkExpr(x)
			}
			if t.Sub != nil {
				walkSel(t.Sub)
			}
		case *BetweenExpr:
			walkExpr(t.E)
			walkExpr(t.Lo)
			walkExpr(t.Hi)
		case *IsNullExpr:
			walkExpr(t.E)
		case *SubqueryExpr:
			walkSel(t.Query)
		}
	}
	walkSel = func(s *SelectStmt) {
		if s == nil {
			return
		}
		for _, it := range s.Items {
			if !it.Star {
				walkExpr(it.Expr)
			}
		}
		walkFrom(s.From)
		walkExpr(s.Where)
		for _, g := range s.GroupBy {
			walkExpr(g)
		}
		walkExpr(s.Having)
		for _, o := range s.OrderBy {
			walkExpr(o.Expr)
		}
		for _, u := range s.UnionAll {
			walkSel(u)
		}
	}
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
type Prepared struct {
	db   *DB
	stmt Stmt
	// n is the number of `?` placeholders; paramsInSub marks placeholders
	// inside scalar/IN subqueries, which the planner folds at plan time and
	// must therefore be bound before planning.
	n           int
	paramsInSub bool
}

// Prepare parses a single statement for repeated execution with bound
// parameters. Works with or without EnableCache; with it, the parse and
// plan are shared through the caches.
func (db *DB) Prepare(sql string) (*Prepared, error) {
	st, err := db.parseOne(sql)
	if err != nil {
		return nil, err
	}
	p := &Prepared{db: db, stmt: st}
	p.n, p.paramsInSub = countStmtParams(st)
	return p, nil
}

// NumParams returns the number of `?` placeholders.
func (p *Prepared) NumParams() int { return p.n }

// Query executes the prepared statement with the given arguments bound to
// its `?` placeholders, in order.
func (p *Prepared) Query(args ...Datum) (*Result, error) {
	return p.QueryContext(context.Background(), args...)
}

// QueryContext is Query with cancellation and deadline support.
func (p *Prepared) QueryContext(ctx context.Context, args ...Datum) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, qerr.Recovered("sqldb prepared query", r)
		}
	}()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if len(args) != p.n {
		return nil, fmt.Errorf("sqldb: prepared statement wants %d arguments, got %d", p.n, len(args))
	}
	if sel, isSel := p.stmt.(*SelectStmt); isSel && !p.paramsInSub && len(sel.UnionAll) == 0 {
		run := func(ctx context.Context) (*Result, error) {
			plan, hit, cacheable, commit, err := p.db.planSelectCached(sel, nil)
			if err != nil {
				return nil, err
			}
			acctFrom(ctx).noteCacheState(p.db.cacheStateOf(hit, cacheable))
			bound, _ := bindPlanParams(plan, args)
			res, err := p.db.execPlan(bound, p.db.newExecCtx(ctx))
			if err != nil {
				return nil, err
			}
			commit()
			return res, nil
		}
		if p.db.History != nil || p.db.Traces != nil {
			return p.db.recordQuery(ctx, sel.String(), run)
		}
		return run(ctx)
	}
	// Parameters inside subqueries (or non-SELECT statements): substitute
	// into a copy of the AST and run the normal path.
	st, err := bindStmtParams(p.stmt, args)
	if err != nil {
		return nil, err
	}
	return p.db.execStmtRecorded(ctx, st, st.String(), nil)
}

// Exec is Query for statements that may not return rows (INSERT, UPDATE,
// DELETE, ...).
func (p *Prepared) Exec(args ...Datum) (*Result, error) {
	return p.ExecContext(context.Background(), args...)
}

// ExecContext is Exec with cancellation and deadline support.
func (p *Prepared) ExecContext(ctx context.Context, args ...Datum) (res *Result, err error) {
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
	if _, isSel := p.stmt.(*SelectStmt); isSel {
		return p.QueryContext(ctx, args...)
	}
	st, err := bindStmtParams(p.stmt, args)
	if err != nil {
		return nil, err
	}
	return p.db.execStmtRecorded(ctx, st, st.String(), nil)
}

// countStmtParams counts `?` placeholders and reports whether any sit
// inside a scalar or IN subquery (those are folded to literals at plan
// time, forcing AST-level binding).
func countStmtParams(st Stmt) (n int, inSub bool) {
	var walkExpr func(e Expr, sub bool)
	var walkSel func(s *SelectStmt, sub bool)
	walkExpr = func(e Expr, sub bool) {
		switch t := e.(type) {
		case nil:
		case *Param:
			n++
			if sub {
				inSub = true
			}
		case *BinExpr:
			walkExpr(t.L, sub)
			walkExpr(t.R, sub)
		case *UnaryExpr:
			walkExpr(t.E, sub)
		case *FuncCall:
			for _, a := range t.Args {
				walkExpr(a, sub)
			}
		case *CaseExpr:
			for _, w := range t.Whens {
				walkExpr(w.Cond, sub)
				walkExpr(w.Then, sub)
			}
			walkExpr(t.Else, sub)
		case *InExpr:
			walkExpr(t.E, sub)
			for _, x := range t.List {
				walkExpr(x, sub)
			}
			if t.Sub != nil {
				walkSel(t.Sub, true)
			}
		case *BetweenExpr:
			walkExpr(t.E, sub)
			walkExpr(t.Lo, sub)
			walkExpr(t.Hi, sub)
		case *IsNullExpr:
			walkExpr(t.E, sub)
		case *SubqueryExpr:
			walkSel(t.Query, true)
		}
	}
	var walkFrom func(r *TableRef, sub bool)
	walkFrom = func(r *TableRef, sub bool) {
		if r == nil {
			return
		}
		switch {
		case r.Join != nil:
			walkFrom(r.Join.L, sub)
			walkFrom(r.Join.R, sub)
			walkExpr(r.Join.Cond, sub)
		case r.Sub != nil:
			walkSel(r.Sub, sub)
		}
	}
	walkSel = func(s *SelectStmt, sub bool) {
		if s == nil {
			return
		}
		for _, it := range s.Items {
			if !it.Star {
				walkExpr(it.Expr, sub)
			}
		}
		walkFrom(s.From, sub)
		walkExpr(s.Where, sub)
		for _, g := range s.GroupBy {
			walkExpr(g, sub)
		}
		walkExpr(s.Having, sub)
		for _, o := range s.OrderBy {
			walkExpr(o.Expr, sub)
		}
		for _, u := range s.UnionAll {
			walkSel(u, sub)
		}
	}
	switch t := st.(type) {
	case *SelectStmt:
		walkSel(t, false)
	case *InsertStmt:
		for _, row := range t.Values {
			for _, e := range row {
				walkExpr(e, false)
			}
		}
		walkSel(t.Query, false)
	case *UpdateStmt:
		for _, e := range t.Set {
			walkExpr(e, false)
		}
		walkExpr(t.Where, false)
	case *DeleteStmt:
		walkExpr(t.Where, false)
	case *ExplainStmt:
		walkSel(t.Query, false)
	}
	return n, inSub
}

// ---- plan-level parameter binding (copy-on-write) ----

// bindPlanParams returns a plan with every Param replaced by the matching
// argument literal. Nodes without parameters are shared with the input, so
// the cached plan stays immutable.
func bindPlanParams(p Plan, args []Datum) (Plan, bool) {
	switch t := p.(type) {
	case nil:
		return nil, false
	case *LScan:
		fs, ch := bindExprSlice(t.Filters, args)
		if !ch {
			return t, false
		}
		c := *t
		c.Filters = fs
		return &c, true
	case *LFilter:
		child, c1 := bindPlanParams(t.Child, args)
		conds, c2 := bindExprSlice(t.Conds, args)
		if !c1 && !c2 {
			return t, false
		}
		c := *t
		c.Child, c.Conds = child, conds
		return &c, true
	case *LJoin:
		l, c1 := bindPlanParams(t.L, args)
		r, c2 := bindPlanParams(t.R, args)
		el, c3 := bindExprSlice(t.EquiL, args)
		er, c4 := bindExprSlice(t.EquiR, args)
		res, c5 := bindExprSlice(t.Residual, args)
		if !(c1 || c2 || c3 || c4 || c5) {
			return t, false
		}
		c := *t
		c.L, c.R, c.EquiL, c.EquiR, c.Residual = l, r, el, er, res
		return &c, true
	case *LProject:
		child, c1 := bindPlanParams(t.Child, args)
		items, c2 := bindItems(t.Items, args)
		if !c1 && !c2 {
			return t, false
		}
		c := *t
		c.Child, c.Items = child, items
		return &c, true
	case *LAgg:
		child, c1 := bindPlanParams(t.Child, args)
		gb, c2 := bindExprSlice(t.GroupBy, args)
		items, c3 := bindItems(t.Items, args)
		having, c4 := bindExpr(t.Having, args)
		if !(c1 || c2 || c3 || c4) {
			return t, false
		}
		c := *t
		c.Child, c.GroupBy, c.Items, c.Having = child, gb, items, having
		return &c, true
	case *LDistinct:
		child, ch := bindPlanParams(t.Child, args)
		if !ch {
			return t, false
		}
		return &LDistinct{Child: child}, true
	case *LSort:
		child, c1 := bindPlanParams(t.Child, args)
		keys := t.Keys
		c2 := false
		for i, k := range t.Keys {
			e, ch := bindExpr(k.Expr, args)
			if ch && !c2 {
				keys = append([]OrderItem(nil), t.Keys...)
				c2 = true
			}
			if ch {
				keys[i].Expr = e
			}
		}
		if !c1 && !c2 {
			return t, false
		}
		c := *t
		c.Child, c.Keys = child, keys
		return &c, true
	case *LLimit:
		child, ch := bindPlanParams(t.Child, args)
		if !ch {
			return t, false
		}
		c := *t
		c.Child = child
		return &c, true
	case *aliasPlan:
		child, ch := bindPlanParams(t.Child, args)
		if !ch {
			return t, false
		}
		c := *t
		c.Child = child
		return &c, true
	}
	return p, false
}

func bindItems(items []SelectItem, args []Datum) ([]SelectItem, bool) {
	out := items
	changed := false
	for i, it := range items {
		if it.Star {
			continue
		}
		e, ch := bindExpr(it.Expr, args)
		if ch && !changed {
			out = append([]SelectItem(nil), items...)
			changed = true
		}
		if ch {
			out[i].Expr = e
		}
	}
	return out, changed
}

func bindExprSlice(es []Expr, args []Datum) ([]Expr, bool) {
	out := es
	changed := false
	for i, e := range es {
		b, ch := bindExpr(e, args)
		if ch && !changed {
			out = append([]Expr(nil), es...)
			changed = true
		}
		if ch {
			out[i] = b
		}
	}
	return out, changed
}

// bindExpr substitutes Params with literals, sharing unchanged subtrees.
func bindExpr(e Expr, args []Datum) (Expr, bool) {
	switch t := e.(type) {
	case nil:
		return nil, false
	case *Param:
		return &Lit{Val: args[t.Idx]}, true
	case *BinExpr:
		l, c1 := bindExpr(t.L, args)
		r, c2 := bindExpr(t.R, args)
		if !c1 && !c2 {
			return t, false
		}
		return &BinExpr{Op: t.Op, L: l, R: r}, true
	case *UnaryExpr:
		sub, ch := bindExpr(t.E, args)
		if !ch {
			return t, false
		}
		return &UnaryExpr{Op: t.Op, E: sub}, true
	case *FuncCall:
		as, ch := bindExprSlice(t.Args, args)
		if !ch {
			return t, false
		}
		return &FuncCall{Name: t.Name, Args: as, Distinct: t.Distinct, Star: t.Star}, true
	case *CaseExpr:
		changed := false
		whens := t.Whens
		for i, w := range t.Whens {
			c, c1 := bindExpr(w.Cond, args)
			th, c2 := bindExpr(w.Then, args)
			if (c1 || c2) && !changed {
				whens = append([]WhenClause(nil), t.Whens...)
				changed = true
			}
			if c1 || c2 {
				whens[i] = WhenClause{Cond: c, Then: th}
			}
		}
		els, c3 := bindExpr(t.Else, args)
		if !changed && !c3 {
			return t, false
		}
		return &CaseExpr{Whens: whens, Else: els}, true
	case *InExpr:
		sub, c1 := bindExpr(t.E, args)
		list, c2 := bindExprSlice(t.List, args)
		q, c3 := bindSelParams(t.Sub, args)
		if !(c1 || c2 || c3) {
			return t, false
		}
		return &InExpr{E: sub, List: list, Sub: q, Not: t.Not}, true
	case *BetweenExpr:
		sub, c1 := bindExpr(t.E, args)
		lo, c2 := bindExpr(t.Lo, args)
		hi, c3 := bindExpr(t.Hi, args)
		if !(c1 || c2 || c3) {
			return t, false
		}
		return &BetweenExpr{E: sub, Lo: lo, Hi: hi, Not: t.Not}, true
	case *IsNullExpr:
		sub, ch := bindExpr(t.E, args)
		if !ch {
			return t, false
		}
		return &IsNullExpr{E: sub, Not: t.Not}, true
	case *SubqueryExpr:
		q, ch := bindSelParams(t.Query, args)
		if !ch {
			return t, false
		}
		return &SubqueryExpr{Query: q}, true
	}
	return e, false
}

// bindSelParams rewrites a SELECT subtree copy-on-write.
func bindSelParams(s *SelectStmt, args []Datum) (*SelectStmt, bool) {
	if s == nil {
		return nil, false
	}
	changed := false
	out := *s
	items, ch := bindItems(s.Items, args)
	changed = changed || ch
	out.Items = items
	from, ch := bindFromParams(s.From, args)
	changed = changed || ch
	out.From = from
	w, ch := bindExpr(s.Where, args)
	changed = changed || ch
	out.Where = w
	gb, ch := bindExprSlice(s.GroupBy, args)
	changed = changed || ch
	out.GroupBy = gb
	h, ch := bindExpr(s.Having, args)
	changed = changed || ch
	out.Having = h
	ob := s.OrderBy
	obChanged := false
	for i, o := range s.OrderBy {
		e, ch := bindExpr(o.Expr, args)
		if ch && !obChanged {
			ob = append([]OrderItem(nil), s.OrderBy...)
			obChanged = true
		}
		if ch {
			ob[i].Expr = e
		}
	}
	changed = changed || obChanged
	out.OrderBy = ob
	ua := s.UnionAll
	uaChanged := false
	for i, u := range s.UnionAll {
		b, ch := bindSelParams(u, args)
		if ch && !uaChanged {
			ua = append([]*SelectStmt(nil), s.UnionAll...)
			uaChanged = true
		}
		if ch {
			ua[i] = b
		}
	}
	changed = changed || uaChanged
	out.UnionAll = ua
	if !changed {
		return s, false
	}
	return &out, true
}

func bindFromParams(r *TableRef, args []Datum) (*TableRef, bool) {
	if r == nil {
		return nil, false
	}
	switch {
	case r.Join != nil:
		l, c1 := bindFromParams(r.Join.L, args)
		rr, c2 := bindFromParams(r.Join.R, args)
		cond, c3 := bindExpr(r.Join.Cond, args)
		if !(c1 || c2 || c3) {
			return r, false
		}
		out := *r
		out.Join = &JoinRef{L: l, R: rr, Cond: cond, Left: r.Join.Left}
		return &out, true
	case r.Sub != nil:
		sub, ch := bindSelParams(r.Sub, args)
		if !ch {
			return r, false
		}
		out := *r
		out.Sub = sub
		return &out, true
	default:
		return r, false
	}
}

// bindStmtParams substitutes arguments into a full statement (the fallback
// path for DML and for parameters inside plan-time-folded subqueries).
func bindStmtParams(st Stmt, args []Datum) (Stmt, error) {
	switch t := st.(type) {
	case *SelectStmt:
		out, _ := bindSelParams(t, args)
		return out, nil
	case *InsertStmt:
		out := *t
		changed := false
		if len(t.Values) > 0 {
			vals := make([][]Expr, len(t.Values))
			for i, row := range t.Values {
				r, ch := bindExprSlice(row, args)
				vals[i] = r
				changed = changed || ch
			}
			out.Values = vals
		}
		q, ch := bindSelParams(t.Query, args)
		out.Query = q
		changed = changed || ch
		if !changed {
			return t, nil
		}
		return &out, nil
	case *UpdateStmt:
		out := *t
		set := make(map[string]Expr, len(t.Set))
		for k, e := range t.Set {
			b, _ := bindExpr(e, args)
			set[k] = b
		}
		out.Set = set
		w, _ := bindExpr(t.Where, args)
		out.Where = w
		return &out, nil
	case *DeleteStmt:
		out := *t
		w, _ := bindExpr(t.Where, args)
		out.Where = w
		return &out, nil
	case *ExplainStmt:
		out := *t
		q, _ := bindSelParams(t.Query, args)
		out.Query = q
		return &out, nil
	default:
		return st, nil
	}
}
