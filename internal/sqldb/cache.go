package sqldb

// The statement cache and the plan store.
//
// The statement cache (EnableCache) maps normalized SQL text to its parsed
// AST, so a repeated text skips the lexer and parser.
//
// Every reused plan lives in the plan store as one entry type, keptPlan: a
// statement's plans, one per UNION ALL branch, and the planner inputs they
// were made from. plansFor is the one function that serves an entry or
// plans afresh. It finds entries in two places:
//
//   - a Prepared statement's own handle, which a statement without `?`
//     placeholders keeps with or without EnableCache;
//   - the EnableCache LRU, under the SELECT's canonical rendering
//     (SelectStmt.String(), so formatting differences share an entry; a
//     prepared statement's placeholders stay in its text, and each
//     execution binds its arguments into a copy of the plan).
//
// An entry is served while holds reports that planning afresh would read
// the same inputs. Those inputs, and how the entry covers each:
//
//   - The column schemas of the tables the statement reads, bound
//     (relations.go) or not, and the views it reads by identity. A scan's
//     output schema is its table's, so a table re-created with the same
//     columns plans the same.
//   - The greedy join order. It reads each relation's estimate — a base
//     table's row count times constant textbook filter selectivities, a
//     derived table's 1000, either replaced by a CardOverrides hint — only
//     through `<` and a stable sort (SNIPPETS.md, Paper 1). The entry
//     therefore records how every pair of estimates compares, ties
//     included, not the row counts: a write that leaves the order alone
//     does not re-plan. The estimates are read again under each
//     execution's own hints, so one text may run hinted and unhinted.
//   - UDFs. Registering or removing one re-plans every entry, as either
//     can change what a call names. UDF selectivity and cost, DelayUDFs
//     and SymmetricJoin only matter to a statement that calls a registered
//     UDF; such a statement's plan is stored only when made without them,
//     and served only to executions without them.
//   - Folded scalar and IN subqueries. foldSubquery turns their values
//     into literals, so a plan that folded one is data and is never
//     stored. Nor is a plan over a sys.* table, whose rows change under
//     every plan, or one under a JoinOrder hint.
//   - EstRows and joinSelectivity feed only EXPLAIN; a stored plan's
//     estimates are those of its first planning.
//
// Scans resolve their tables by name at execution, so an entry runs over a
// table written, re-created or bound under the same name without planning
// again. Entries are immutable — execution compiles expressions per run
// and keeps all per-run state in execCtx — so one plan serves concurrent
// executions. A fresh plan is stored only after it executed successfully.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/obs"
)

// EnableCache activates the statement cache and the plan store's LRU,
// each bounded to capacity entries. capacity <= 0 disables both (the
// default); a Prepared statement keeps its own entry either way. When
// DB.Metrics is set, hit/miss/eviction counters appear under
// "sqldb.cache.stmt.*" and "sqldb.cache.plan.*"; set Metrics before
// calling EnableCache.
func (db *DB) EnableCache(capacity int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if capacity <= 0 {
		db.stmtCache, db.planCache = nil, nil
		return
	}
	db.stmtCache = cache.New[string, Stmt](capacity)
	db.planCache = cache.New[string, *keptPlan](capacity)
	db.stmtCache.Instrument(db.Metrics, obs.CachePrefixStmt)
	db.planCache.Instrument(db.Metrics, obs.CachePrefixPlan)
}

// CacheEnabled reports whether EnableCache is active.
func (db *DB) CacheEnabled() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.planCache != nil
}

// CacheStats reports the statement- and plan-cache counters.
// PlanInvalidations counts lookups that found a stored entry — in the LRU
// or a Prepared statement's own handle — whose planner inputs had moved,
// so the statement planned afresh; such a lookup through the LRU first
// counts as a plan hit in Plan.Hits.
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

// ---- the plan store ----

// keptPlan is one stored entry: a statement's plans, one per UNION ALL
// branch, and the planner inputs they were made from. It is immutable once
// stored, so concurrent executions share it.
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

// planNotes records, while one statement is planned, the inputs a stored
// entry must match. Its methods do nothing on a nil receiver, which is how
// every planning that stores nothing runs.
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
// UDF. Subqueries are not entered: a plan that folds one is never stored.
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

// storedSelect is the SELECT a statement runs, as the plan store finds it.
type storedSelect struct {
	sel *SelectStmt
	// sels are sel's UNION ALL branches, each planned as a block of its
	// own; split from sel when nil.
	sels []*SelectStmt
	// key is sel's canonical text, the LRU key; rendered from sel when
	// empty.
	key string
	// own is a Prepared statement's own entry, or nil.
	own *atomic.Pointer[keptPlan]
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

// plansFor returns the plans of s's branches and where they came from:
// s.own's entry while it holds ("kept"), else the LRU entry under s's text
// while it holds ("hit"), else a fresh plan made under ctx and hints —
// "miss" when the LRU is on and the plan can be stored, "bypass" when it
// is on and the plan is never stored, "disabled" when it is off. The
// state is noted in the statement's accounting unless the statement
// noted one already.
//
// A fresh plan is not stored here: the returned commit stores it —
// replacing a stale entry — and callers invoke it only after the plans
// executed successfully, so a statement that is cancelled, times out or
// fails leaves no entry behind. commit does nothing for a served entry or
// a plan that is never stored.
func (db *DB) plansFor(ctx context.Context, s *storedSelect, hints *QueryHints) (plans []Plan, state string, commit func(), err error) {
	if acct := acctFrom(ctx); acct.claimCacheState() {
		defer func() { acct.cacheState = state }()
	}
	pinned := hints != nil && len(hints.JoinOrder) > 0
	var stale *keptPlan
	if !pinned && s.own != nil {
		if k := s.own.Load(); k != nil {
			if k.holds(ctx, db, hints) {
				return k.plans, "kept", noCommit, nil
			}
			stale = k
		}
	}
	db.mu.RLock()
	lru := db.planCache
	db.mu.RUnlock()
	key := s.key
	if key == "" && lru != nil {
		key = s.sel.String()
	}
	if !pinned && lru != nil {
		if k, ok := lru.Get(key); ok {
			if k != stale && k.holds(ctx, db, hints) {
				if s.own != nil {
					s.own.Store(k)
				}
				return k.plans, "hit", noCommit, nil
			}
			stale = k
		}
	}
	if stale != nil {
		db.planInvalidations.Add(1)
		if m := db.metrics(); m != nil {
			m.planInvalidations.Add(1)
		}
	}

	state = "disabled"
	if lru != nil {
		state = "miss"
	}
	var notes *planNotes
	if !pinned && (lru != nil || s.own != nil) {
		notes = &planNotes{}
	}
	sels := s.sels
	if sels == nil {
		sels = branches(s.sel)
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
		if lru != nil {
			state = "bypass"
		}
		return plans, state, noCommit, nil
	}
	k := &keptPlan{plans: plans, udfGen: gen, udf: udf, rels: notes.rels, orders: notes.orders}
	return plans, state, func() {
		if s.own != nil {
			s.own.Store(k)
		}
		if lru != nil {
			lru.Put(key, k)
		}
	}, nil
}

// runStored runs s from the plan store, binding args into each plan when
// the statement has `?` placeholders, and appends each UNION ALL branch's
// rows to the first's.
func (db *DB) runStored(ctx context.Context, s *storedSelect, hints *QueryHints, args []Datum) (*Result, error) {
	plans, _, commit, err := db.plansFor(ctx, s, hints)
	if err != nil {
		return nil, err
	}
	var res *Result
	for i, plan := range plans {
		if len(args) > 0 {
			plan = bindPlanParams(plan, args)
		}
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
