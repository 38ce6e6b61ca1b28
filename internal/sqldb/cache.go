package sqldb

// The statement store and its kept plans.
//
// EnableCache turns on the statement store, one LRU. Its key is a text as
// one lexer pass reads it (scanKey): the tokens, without whitespace and
// comments, each number and string literal replaced by its type. An entry
// is a template: the statement parsed once with its liftable literals as
// Params, and the plans kept for it. The literal values the same pass
// collects bind the Params as a Prepared statement's arguments bind its
// `?`s — the vector compiler reads a Param's value from the execution's
// arguments, and the aggregate binds its block's Params before it matches
// calls, keys and items by their text — so Table I's templates run with
// other literals share one plan. A plan does not depend on a lifted
// literal: the greedy join order reads estimates made from constant
// textbook selectivities, and only through how they compare (SNIPPETS.md,
// Paper 1).
//
// Literals that shape a plan or a result stay literals, and a text whose
// values differ there misses the entry: an ORDER BY or GROUP BY key that
// is one literal (a position), LIMIT and OFFSET, the literals of an
// unaliased SELECT item, whose text names its column, and those inside
// scalar and IN subqueries, which the planner folds into values. TRUE,
// FALSE and NULL are keywords and stay in the key as written, since the
// same spelling can name a column.
//
// The store keeps one SELECT, or EXPLAIN [ANALYZE] of one, which shares
// the SELECT's entry. Other statements, texts with `?` and executions
// under a JoinOrder hint parse afresh; ExecStmtContext renders a SELECT
// and takes the text's path. A template enters the store only after an
// execution of it succeeded. A Prepared statement holds a template — the
// store's, when Prepare found one — and runs on its plans with or without
// EnableCache; one with `?`s looks its text up on every execution.
//
// plansFor serves a template's kept plans while holds reports that
// planning afresh would read the same inputs:
//
//   - the column schemas of the tables the statement reads, bound
//     (relations.go) or not, and the views it reads by identity;
//   - how every pair of the greedy join order's estimates compares, ties
//     included — a base table's row count times constant filter
//     selectivities, a derived table's 1000, either replaced by a
//     CardOverrides hint — read again under each execution's hints, so a
//     write that leaves the order alone does not re-plan;
//   - the UDF registry's generation. UDF selectivity and cost, DelayUDFs
//     and SymmetricJoin matter only to a statement that calls a UDF, whose
//     plan is kept only when made without them and served only to
//     executions without them.
//
// A plan that folded a scalar or IN subquery is data and is never kept,
// nor is one over a sys.* table or under a JoinOrder hint. EstRows feeds
// only EXPLAIN: a kept plan's estimates are its first planning's. Scans
// resolve their tables by name at execution, and kept plans are immutable
// — execution keeps its state in execCtx — so one plan serves concurrent
// executions. A fresh plan is kept only after it executed successfully.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/obs"
)

// EnableCache activates the statement store, bounded to capacity entries.
// capacity <= 0 disables it (the default); a Prepared statement keeps its
// own template either way. When DB.Metrics is set, the store's hit, miss
// and eviction counters appear under "sqldb.cache.plan.*"; set Metrics
// before calling EnableCache.
func (db *DB) EnableCache(capacity int) {
	store := cache.New[string, *template](capacity)
	store.Instrument(db.Metrics, obs.CachePrefixPlan)
	db.store.Store(store)
}

// CacheEnabled reports whether EnableCache is active.
func (db *DB) CacheEnabled() bool { return db.store.Load() != nil }

// storeFor is the store an execution under hints looks its text up in:
// none while the store is off or a JoinOrder hint pins the plan.
func (db *DB) storeFor(hints *QueryHints) *cache.LRU[string, *template] {
	if hints != nil && len(hints.JoinOrder) > 0 {
		return nil
	}
	return db.store.Load()
}

// CacheStats reports the statement store's counters. Stmt and Plan both
// report the one store, whose entry holds a statement and its plans.
// PlanInvalidations counts executions that found kept plans — in the
// store or a Prepared statement's own template — whose planner inputs had
// moved, so the statement planned afresh; such a lookup through the store
// first counts as a hit.
type CacheStats struct {
	Stmt              cache.Stats
	Plan              cache.Stats
	PlanInvalidations int64
}

// CacheStats snapshots the store's counters (all zeros when disabled).
func (db *DB) CacheStats() CacheStats {
	st := db.store.Load().Stats()
	return CacheStats{Stmt: st, Plan: st, PlanInvalidations: db.planInvalidations.Load()}
}

// String renders the counters in the metrics-snapshot style.
func (s CacheStats) String() string {
	return fmt.Sprintf("store hits=%d misses=%d evictions=%d invalidations=%d len=%d/%d",
		s.Plan.Hits, s.Plan.Misses, s.Plan.Evictions, s.PlanInvalidations, s.Plan.Len, s.Plan.Cap)
}

// ---- templates ----

// template is a parsed statement whose Params a text's literal values and
// a caller's arguments bind, and the plans kept for the SELECT it reads.
// Everything but kept is immutable once made.
type template struct {
	stmt Stmt
	// sels are the UNION ALL branches of the SELECT stmt reads — as
	// SELECT, CREATE TABLE … AS or INSERT … SELECT — each planned as a
	// block of its own; nil when it reads none.
	sels []*SelectStmt
	// vals are the literal values of the text parsed; Param i binds the
	// literal in slot i, negated for the slots in neg, and Param len(vals)+n
	// the n-th of the nuser `?`s. fixed are the slots of the literals that
	// stay in stmt, which another text must match.
	vals       []Datum
	fixed, neg []int
	nuser      int
	kept       atomic.Pointer[keptPlan]
}

func newTemplate(st Stmt, p *parser) *template {
	t := &template{stmt: st, vals: p.vals, nuser: p.nuser}
	for slot, lifted := range p.lifted {
		switch {
		case !lifted:
			t.fixed = append(t.fixed, slot)
		case p.neg[slot]:
			t.neg = append(t.neg, slot)
		}
	}
	var sel *SelectStmt
	switch s := st.(type) {
	case *SelectStmt:
		sel = s
	case *CreateTableStmt:
		sel = s.As
	case *InsertStmt:
		sel = s.Query
	}
	if sel != nil {
		t.sels = branches(sel)
	}
	return t
}

// matches reports whether a text with literal values vals keeps t's fixed
// literals.
func (t *template) matches(vals []Datum) bool {
	for _, slot := range t.fixed {
		a, b := vals[slot], t.vals[slot]
		if a.T != b.T || a.I != b.I || a.S != b.S || math.Float64bits(a.F) != math.Float64bits(b.F) {
			return false
		}
	}
	return true
}

// args are the values of t's Params for a text with literal values vals
// and a caller's `?` arguments user.
func (t *template) args(vals, user []Datum) []Datum {
	switch {
	case len(vals) == 0:
		return user
	case len(t.neg) == 0 && len(user) == 0:
		return vals
	}
	args := append(append(make([]Datum, 0, len(vals)+len(user)), vals...), user...)
	for _, slot := range t.neg {
		args[slot] = signed(args[slot], true)
	}
	return args
}

// signed is the number v, negated when neg is set.
func signed(v Datum, neg bool) Datum {
	switch {
	case !neg:
		return v
	case v.T == TInt:
		return Int(-v.I)
	}
	return Float(-v.F)
}

// text renders t as the text with literal values vals, its `?`s kept.
func (t *template) text(vals []Datum) string {
	return bindStmtParams(t.stmt, argValue(t.args(vals, nil))).String()
}

// keyScan is what one lexer pass reads of a text: its store key, its
// literal values by slot, its EXPLAIN prefix and whether it holds a `?`.
type keyScan struct {
	key              string
	vals             []Datum
	explain, analyze bool
	params           bool
}

// scanKey lexes src once into its store key. ok is false for a text the
// store does not keep: anything but one SELECT or EXPLAIN [ANALYZE] of
// one, and text that does not lex (the parser then reports why).
func scanKey(src string) (k keyScan, ok bool) {
	l := lexer{src: src}
	var sb strings.Builder
	started, ended := false, false
	for {
		t, err := l.next()
		if err != nil {
			return k, false
		}
		switch {
		case t.kind == tokEOF:
			k.key = sb.String()
			return k, started
		case t.kind == tokOp && t.text == ";":
			ended = true
			continue
		case ended:
			return k, false // a second statement
		case !started:
			switch {
			case t.is("explain") && !k.explain:
				k.explain = true
				continue
			case t.is("analyze") && k.explain && !k.analyze:
				k.analyze = true
				continue
			case !t.is("select"):
				return k, false
			}
			started = true
			sb.Grow(len(src))
		default:
			sb.WriteByte(' ')
		}
		switch t.kind {
		case tokNumber, tokString:
			v, err := litValue(t)
			if err != nil {
				return k, false
			}
			k.vals = append(k.vals, v)
			sb.WriteByte('#')
			sb.WriteString(v.T.String())
		case tokParam:
			k.params = true
			sb.WriteByte('?')
		default:
			sb.WriteString(t.text)
		}
	}
}

// template returns the store's template for a text and whether it was
// parsed afresh, which the caller puts in the store once an execution of
// it succeeded. The template of EXPLAIN [ANALYZE] text is its SELECT's.
func (db *DB) template(store *cache.LRU[string, *template], src string, k keyScan) (*template, bool, error) {
	if t, ok := store.GetIf(k.key, func(t *template) bool { return t.matches(k.vals) }); ok {
		return t, false, nil
	}
	t, err := parseTemplate(src, k.vals)
	if err != nil {
		return nil, false, err
	}
	if e, ok := t.stmt.(*ExplainStmt); ok {
		t.stmt, t.sels = e.Query, branches(e.Query)
	}
	return t, true, nil
}

// ---- kept plans ----

// keptPlan is a template's kept plans, one per UNION ALL branch, and the
// planner inputs they were made from. It is immutable once kept, so
// concurrent executions share it.
type keptPlan struct {
	plans  []Plan
	udfGen int64 // the UDF registry's generation when planning began
	udf    bool  // the statement or a view it reads calls a registered UDF
	rels   []keptRel
	orders []keptOrder
}

// keptRel pins one relation the planner read: a table by its column
// schema, a view by identity.
type keptRel struct {
	name   string
	view   *View
	schema Schema
}

// keptOrder is one greedy join order's input: each relation's estimate and
// how every pair of estimates compared.
type keptOrder struct {
	cards []relCard
	// hinted marks an order estimated under the statement's hints; a
	// view's definition plans without them.
	hinted bool
	cmp    []int8 // compareEst of estimates i and j, for each pair i < j
}

// planNotes records, while one statement is planned, the inputs kept plans
// must match. Its methods do nothing on a nil receiver, which is how every
// planning that keeps nothing runs.
type planNotes struct {
	rels     []keptRel
	orders   []keptOrder
	volatile bool // the plan folded a subquery or scans a sys.* table
}

func (n *planNotes) markVolatile() {
	if n != nil {
		n.volatile = true
	}
}

func (n *planNotes) table(name string, schema Schema) {
	if n != nil {
		n.rels = append(n.rels, keptRel{name: name, schema: schema})
	}
}

func (n *planNotes) view(name string, v *View) {
	if n != nil {
		n.rels = append(n.rels, keptRel{name: name, view: v})
	}
}

func (n *planNotes) order(cards []relCard, est []float64, hinted bool) {
	if n == nil {
		return
	}
	o := keptOrder{cards: cards, hinted: hinted}
	for i := range est {
		for j := i + 1; j < len(est); j++ {
			o.cmp = append(o.cmp, compareEst(est[i], est[j]))
		}
	}
	n.orders = append(n.orders, o)
}

// compareEst is how two estimates compare under the greedy order's `<`:
// -1 or 1 when one is less, 0 when neither is.
func compareEst(a, b float64) int8 {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

// holds reports whether planning afresh under ctx and hints would read the
// same inputs the entry was made from.
func (k *keptPlan) holds(ctx context.Context, db *DB, hints *QueryHints) bool {
	if db.udfGen.Load() != k.udfGen || k.udf && udfHinted(hints) {
		return false
	}
	rels := relationsFrom(ctx)
	for _, r := range k.rels {
		if r.view != nil {
			if rels.lookup(r.name) != nil || db.lookupView(r.name) != r.view {
				return false
			}
			continue
		}
		if t := db.relation(rels, r.name); t == nil || !slices.Equal(t.Schema, r.schema) {
			return false
		}
	}
	var buf [8]float64
	for _, o := range k.orders {
		h := hints
		if !o.hinted {
			h = nil
		}
		est := buf[:0]
		for _, c := range o.cards {
			est = append(est, db.estimate(rels, c, h))
		}
		pair := 0
		for i := range est {
			for j := i + 1; j < len(est); j++ {
				if compareEst(est[i], est[j]) != o.cmp[pair] {
					return false
				}
				pair++
			}
		}
	}
	return true
}

// udfHinted reports whether hints carry a hint that only a statement
// calling a UDF reads.
func udfHinted(h *QueryHints) bool {
	return h != nil && (len(h.UDFSelectivity) > 0 || len(h.UDFCost) > 0 ||
		h.DelayUDFs != nil || h.SymmetricJoin)
}

// callsUDF reports whether sels or a view among rels calls a registered
// UDF. Subqueries are not entered: a plan that folds one is never kept.
func (db *DB) callsUDF(sels []*SelectStmt, rels []keptRel) bool {
	found := false
	find := func(e Expr) (Expr, error) {
		if fc, ok := e.(*FuncCall); ok && db.lookupUDF(fc.Name) != nil {
			found = true
		}
		return e, nil
	}
	// find never fails.
	for _, sel := range sels {
		_, _ = RewriteSelect(sel, find)
	}
	for _, r := range rels {
		if r.view != nil {
			_, _ = RewriteSelect(r.view.Query, find)
		}
	}
	return found
}

// source is where the plans of a statement's SELECT come from: t's kept
// plans, served under the cache state served ("hit" through the store,
// "kept" from a Prepared statement's own template), or, without t, a
// fresh planning.
type source struct {
	t      *template
	served string
}

// branches splits a SELECT into its UNION ALL branches.
func branches(sel *SelectStmt) []*SelectStmt {
	if len(sel.UnionAll) == 0 {
		return []*SelectStmt{sel}
	}
	first := *sel
	first.UnionAll = nil
	return append([]*SelectStmt{&first}, sel.UnionAll...)
}

func noCommit() {}

// plansFor returns the plans of sel's branches and where they came from:
// src's kept plans while they hold (src.served), else a fresh plan made
// under ctx and hints — "miss" when the store is on and the plan can be
// kept, "bypass" when it is on and the plan is never kept, "disabled" when
// it is off. The state is noted in the statement's accounting unless the
// statement noted one already.
//
// A fresh plan is not kept here: the returned commit keeps it — replacing
// a stale one — and callers invoke it only after the plans executed
// successfully, so a statement that is cancelled, times out or fails
// leaves no plan behind. commit does nothing for served plans or a plan
// that is never kept.
func (db *DB) plansFor(ctx context.Context, src source, sel *SelectStmt, hints *QueryHints) (plans []Plan, state string, commit func(), err error) {
	if acct := acctFrom(ctx); acct.claimCacheState() {
		defer func() { acct.cacheState = state }()
	}
	pinned := hints != nil && len(hints.JoinOrder) > 0
	var kept *atomic.Pointer[keptPlan]
	var sels []*SelectStmt
	if src.t != nil && src.t.sels != nil {
		kept, sels = &src.t.kept, src.t.sels
		if k := kept.Load(); k != nil && !pinned {
			if k.holds(ctx, db, hints) {
				return k.plans, src.served, noCommit, nil
			}
			db.planInvalidations.Add(1)
			if m := db.metrics(); m != nil {
				m.planInvalidations.Add(1)
			}
		}
	} else {
		sels = branches(sel)
	}

	on := db.store.Load() != nil
	state = "disabled"
	if on {
		state = "miss"
	}
	var notes *planNotes
	if !pinned && kept != nil {
		notes = &planNotes{}
	}
	gen := db.udfGen.Load()
	plans = make([]Plan, len(sels))
	for i, sel := range sels {
		if plans[i], err = (&planner{db: db, ctx: ctx, hints: hints, notes: notes}).plan(sel); err != nil {
			return nil, state, nil, err
		}
	}
	udf := notes != nil && db.callsUDF(sels, notes.rels)
	if notes == nil || notes.volatile || udf && udfHinted(hints) {
		if on {
			state = "bypass"
		}
		return plans, state, noCommit, nil
	}
	k := &keptPlan{plans: plans, udfGen: gen, udf: udf, rels: notes.rels, orders: notes.orders}
	return plans, state, func() { kept.Store(k) }, nil
}

// runSelect runs sel on plans from src and appends each UNION ALL branch's
// rows to the first's.
func (db *DB) runSelect(ctx context.Context, sel *SelectStmt, hints *QueryHints, src source) (*Result, error) {
	plans, _, commit, err := db.plansFor(ctx, src, sel, hints)
	if err != nil {
		return nil, err
	}
	var res *Result
	for i, plan := range plans {
		br, err := db.execPlan(plan, db.newExecCtx(ctx))
		if err == nil && i > 0 {
			err = appendBranch(res, br)
		}
		if err != nil {
			return nil, err
		}
		if i == 0 {
			res = br
		}
	}
	commit()
	return res, nil
}
