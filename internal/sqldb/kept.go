package sqldb

// Kept plans.
//
// A Prepared statement without placeholders — a SELECT, or the SELECT of
// CREATE TABLE … AS or INSERT … SELECT — keeps the plans of its first
// successful execution, one per UNION ALL branch, and runs them again while
// every input the planner read is unchanged, re-planning otherwise. Scans
// resolve their tables by name at execution, so a kept plan runs over a
// table re-created, or a relation bound (relations.go), under the same
// name without planning again.
//
// The planner's data-dependent inputs, and how the key covers each:
//
//   - The column schemas of the tables the statement reads, bound or not,
//     and the views it reads by identity. A scan's output schema is its
//     table's, so a table re-created with the same columns plans the same.
//   - The greedy join order. It reads each relation's estimate — a base
//     table's row count times constant textbook filter selectivities, a
//     derived table's 1000, either replaced by a CardOverrides hint — only
//     through `<` and a stable sort. The key is therefore how every pair of
//     estimates compares, ties included, not the row counts: a new batch
//     size that leaves the order alone does not re-plan.
//   - Folded scalar and IN subqueries. foldSubquery turns their values into
//     literals, so a plan that folded one is data and is never kept. Nor is
//     a plan over a sys.* table, whose rows change under every plan.
//   - Hints. UDF selectivity and cost, DelayUDFs, SymmetricJoin and
//     SelectUDFLast only matter to a statement that calls a registered UDF;
//     such a statement, or one under a JoinOrder hint, plans every time.
//     Registering or removing a UDF re-plans every kept plan, as either can
//     change what a call names. CardOverrides enter through the estimates,
//     read under each execution's own hints.
//   - EstRows and joinSelectivity feed only EXPLAIN, and EXPLAIN always
//     plans fresh; a kept plan's estimates are those of its first planning.
//
// The text-keyed plan cache keeps its write-version rule: its entries are
// shared by every statement of one text, including those whose folded
// subqueries made the plan data, so only an unchanged table version proves
// such a plan current. A kept plan belongs to one Prepared and is never
// data, so the weaker schema-and-order key suffices.

import (
	"context"
	"slices"
)

// keptPlan is a Prepared statement's plans, one per UNION ALL branch, and
// the planner inputs they were made from. It is immutable once stored, so
// concurrent executions share it.
type keptPlan struct {
	plans  []Plan
	udfGen int64 // the UDF registry's generation when planning began
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

// planNotes records, while one statement is planned, the inputs a kept
// plan must match. Its methods do nothing on a nil receiver, which is how
// every planning that keeps nothing runs.
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
// same inputs the kept plan was made from.
func (k *keptPlan) holds(ctx context.Context, db *DB, hints *QueryHints) bool {
	if db.udfGen.Load() != k.udfGen {
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

// runSelect runs the statement's own SELECT, p.sels, from the kept plans
// while they hold, appending each UNION ALL branch's rows to the first's.
func (p *Prepared) runSelect(ctx context.Context, _ *SelectStmt, hints *QueryHints) (*Result, error) {
	plans, commit, err := p.plan(ctx, hints)
	if err != nil {
		return nil, err
	}
	var res *Result
	for i, plan := range plans {
		br, err := p.db.execPlan(plan, p.db.newExecCtx(ctx))
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

// plan returns the kept plans when they hold. Otherwise it plans afresh,
// taking notes, and returns a commit that keeps the new plans — replacing
// the old ones — once they have executed successfully, unless a plan is
// data or the statement calls a UDF. A plan the plan cache served carries
// no notes, so then nothing is kept.
func (p *Prepared) plan(ctx context.Context, hints *QueryHints) ([]Plan, func(), error) {
	db := p.db
	if k := p.kept.Load(); k != nil && k.holds(ctx, db, hints) {
		acctFrom(ctx).noteCacheState("kept")
		return k.plans, func() {}, nil
	}
	gen := db.udfGen.Load()
	notes := &planNotes{}
	plans, commits, keep := make([]Plan, len(p.sels)), make([]func(), len(p.sels)), true
	for i, sel := range p.sels {
		plan, hit, _, commit, err := db.planSelectCached(ctx, sel, hints, notes)
		if err != nil {
			return nil, nil, err
		}
		plans[i], commits[i], keep = plan, commit, keep && !hit
	}
	commit := func() {
		for _, c := range commits {
			c()
		}
	}
	if !keep || notes.volatile || db.callsUDF(p.sels, notes.rels) {
		return plans, commit, nil
	}
	k := &keptPlan{plans: plans, udfGen: gen, rels: notes.rels, orders: notes.orders}
	return plans, func() {
		commit()
		p.kept.Store(k)
	}, nil
}
