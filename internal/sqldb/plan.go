package sqldb

import (
	"context"
	"fmt"
	"math"
	"strings"
)

// Logical plan nodes. Each operator drains its child and produces a Result
// — a block-at-a-time columnar pipeline that has been fully consumed, which
// keeps per-operator profiling (Fig. 10) exact — but materialisation is
// late: scans and joins produce only the columns their ancestors read, and
// an aggregate over a join reads its match pairs (see prune.go).

// Plan is a logical/physical query plan node.
type Plan interface {
	planNode()
	// OutSchema is the statically-known schema of this node's output.
	OutSchema() []OutCol
}

// LScan reads a base table or view, applying pushed-down filters.
type LScan struct {
	Table   string
	Alias   string
	Filters []Expr // conjuncts evaluated during the scan
	schema  []OutCol
	// EstRows is the optimizer's cardinality estimate, kept for EXPLAIN and
	// tests.
	EstRows float64
	used    []bool // output positions an ancestor reads, nil = all (prune)
}

// LFilter applies residual conjuncts.
type LFilter struct {
	Child Plan
	Conds []Expr
}

// LJoin is a binary join. EquiL/EquiR are matching key expressions (over
// the left/right child schemas respectively); when empty the join is a
// nested-loop cross join, which an LFilter above it narrows.
type LJoin struct {
	L, R      Plan
	EquiL     []Expr
	EquiR     []Expr
	Symmetric bool // use the symmetric hash join algorithm (hint rule 3)
	// LeftOuter preserves unmatched left rows, padding the right side with
	// NULLs (LEFT OUTER JOIN).
	LeftOuter bool
	EstRows   float64
	used      []bool // output positions an ancestor reads, nil = all (prune)
}

// LProject computes the SELECT items.
type LProject struct {
	Child  Plan
	Items  []SelectItem
	schema []OutCol
}

// LAgg performs (optionally grouped) aggregation and computes the SELECT
// items over the aggregated values.
type LAgg struct {
	Child   Plan
	GroupBy []Expr
	Items   []SelectItem
	Having  Expr
	schema  []OutCol
}

// LDistinct removes duplicate rows.
type LDistinct struct{ Child Plan }

// LSort orders rows.
type LSort struct {
	Child Plan
	Keys  []OrderItem
}

// LLimit truncates rows.
type LLimit struct {
	Child  Plan
	N      int
	Offset int
}

// unionPlan concatenates its branches' rows in branch order, matching
// columns by position: the UNION ALL of a FROM subquery or a view, each
// branch planned as its own block, as runSelect runs a top-level one.
type unionPlan struct{ Branches []Plan }

func (*LScan) planNode()     {}
func (*LFilter) planNode()   {}
func (*LJoin) planNode()     {}
func (*LProject) planNode()  {}
func (*LAgg) planNode()      {}
func (*LDistinct) planNode() {}
func (*LSort) planNode()     {}
func (*LLimit) planNode()    {}
func (*unionPlan) planNode() {}

// OutSchema implementations: each node's statically-known output columns.
func (p *LScan) OutSchema() []OutCol     { return p.schema }
func (p *unionPlan) OutSchema() []OutCol { return p.Branches[0].OutSchema() }
func (p *LFilter) OutSchema() []OutCol   { return p.Child.OutSchema() }
func (p *LProject) OutSchema() []OutCol  { return p.schema }
func (p *LAgg) OutSchema() []OutCol      { return p.schema }
func (p *LDistinct) OutSchema() []OutCol { return p.Child.OutSchema() }
func (p *LSort) OutSchema() []OutCol     { return p.Child.OutSchema() }
func (p *LLimit) OutSchema() []OutCol    { return p.Child.OutSchema() }

func (p *LJoin) OutSchema() []OutCol {
	l := p.L.OutSchema()
	r := p.R.OutSchema()
	out := make([]OutCol, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}

// planRel is one relation in the FROM list during planning.
type planRel struct {
	alias string
	plan  Plan
}

// planner plans one statement under its hints. ctx is the statement's
// context: the subqueries planning folds run under it, so their work
// shares the statement's cancellation and deadline, memory budget, span
// and UDF-call accounting. notes, when non-nil, records the inputs a
// stored plan must match (see cache.go). inView marks the planning of a view's
// definition, which runs without the statement's hints.
type planner struct {
	db     *DB
	ctx    context.Context
	hints  *QueryHints
	notes  *planNotes
	inView bool
	rels   Relations // bound to the statement (relations.go)
}

// planSelect plans a SELECT with no notes taken.
func (db *DB) planSelect(ctx context.Context, st *SelectStmt, hints *QueryHints) (Plan, error) {
	return (&planner{db: db, ctx: ctx, hints: hints}).plan(st)
}

// plan builds a plan for a SELECT statement.
func (pl *planner) plan(st *SelectStmt) (Plan, error) {
	db := pl.db
	pl.rels = relationsFrom(pl.ctx)
	// Resolve scalar subqueries first: execute each uncorrelated subquery
	// once and replace it with a literal (covers the paper's Q4 AVG/stddev
	// pattern).
	st, err := pl.resolveSubqueries(st)
	if err != nil {
		return nil, err
	}

	if st.From == nil {
		// FROM-less SELECT: single-row projection.
		return &LProject{
			Child:  nil,
			Items:  st.Items,
			schema: db.projectSchema(st.Items, nil),
		}, nil
	}

	rels, onConds, err := pl.flattenFrom(st.From)
	if err != nil {
		return nil, err
	}
	conds := append(onConds, Conjuncts(st.Where)...)

	plan, residual, err := pl.buildJoinTree(rels, conds)
	if err != nil {
		return nil, err
	}
	if len(residual) > 0 {
		plan = &LFilter{Child: plan, Conds: db.orderPredicates(residual, pl.hints)}
	}

	// ORDER BY ordinals: an integer literal key selects the Nth item. The
	// substitution is copy-on-write, as st may be a cached statement.
	var ordErr error
	orderBy, _ := each(st.OrderBy, func(k OrderItem) (OrderItem, bool) {
		lit, ok := k.Expr.(*Lit)
		if !ok || lit.Val.T != TInt {
			return k, false
		}
		n := int(lit.Val.I)
		if n < 1 || n > len(st.Items) || st.Items[n-1].Star {
			if ordErr == nil {
				ordErr = fmt.Errorf("sqldb: ORDER BY position %d out of range", n)
			}
			return k, false
		}
		k.Expr = st.Items[n-1].Expr
		return k, true
	})
	if ordErr != nil {
		return nil, ordErr
	}

	// Aggregation?
	hasAgg := len(st.GroupBy) > 0 || st.Having != nil
	for _, it := range st.Items {
		if !it.Star && exprHasAggregate(it.Expr) {
			hasAgg = true
		}
	}
	if hasAgg {
		agg := &LAgg{Child: plan, GroupBy: st.GroupBy, Items: st.Items, Having: st.Having}
		agg.schema = db.projectSchema(st.Items, plan.OutSchema())
		plan = agg
		if st.Distinct {
			plan = &LDistinct{Child: plan}
		}
		if len(orderBy) > 0 {
			plan = &LSort{Child: plan, Keys: orderBy}
		}
	} else {
		star := len(st.Items) == 1 && st.Items[0].Star
		if len(orderBy) > 0 && !st.Distinct {
			// Sort below the projection so ORDER BY can reference source
			// columns that are not projected; output-alias references are
			// rewritten to the underlying item expressions first.
			keys := make([]OrderItem, len(orderBy))
			for i, k := range orderBy {
				keys[i] = k
				if cr, ok := k.Expr.(*ColRef); ok && cr.Table == "" {
					for _, it := range st.Items {
						if !it.Star && it.Alias != "" && strings.EqualFold(it.Alias, cr.Name) {
							keys[i].Expr = it.Expr
							break
						}
					}
				}
			}
			plan = &LSort{Child: plan, Keys: keys}
		}
		if !star {
			plan = &LProject{Child: plan, Items: st.Items, schema: db.projectSchema(st.Items, plan.OutSchema())}
		}
		if st.Distinct {
			plan = &LDistinct{Child: plan}
			if len(orderBy) > 0 {
				plan = &LSort{Child: plan, Keys: orderBy}
			}
		}
	}
	if st.Limit >= 0 || st.Offset > 0 {
		n := st.Limit
		if n < 0 {
			n = math.MaxInt >> 1 // no limit, with room for an offset
		}
		plan = &LLimit{Child: plan, N: n, Offset: st.Offset}
	}
	prune(plan, nil)
	return plan, nil
}

// planBranches plans a SELECT whose output feeds another block (a FROM
// subquery or a view): plan covers its first block only, so each UNION ALL
// branch is planned as a block of its own under one unionPlan.
func (pl *planner) planBranches(st *SelectStmt) (Plan, error) {
	first, err := pl.plan(st)
	if err != nil || len(st.UnionAll) == 0 {
		return first, err
	}
	u := &unionPlan{Branches: []Plan{first}}
	for _, branch := range st.UnionAll {
		p, err := pl.plan(branch)
		if err != nil {
			return nil, err
		}
		if n, want := len(p.OutSchema()), len(first.OutSchema()); n != want {
			return nil, fmt.Errorf("sqldb: UNION ALL branch yields %d columns, want %d", n, want)
		}
		u.Branches = append(u.Branches, p)
	}
	return u, nil
}

// projectSchema derives output column names for SELECT items.
func (db *DB) projectSchema(items []SelectItem, child []OutCol) []OutCol {
	var out []OutCol
	for _, it := range items {
		if it.Star {
			out = append(out, child...)
			continue
		}
		name := it.Alias
		if name == "" {
			if cr, ok := it.Expr.(*ColRef); ok {
				name = cr.Name
			} else {
				name = it.Expr.String()
			}
		}
		out = append(out, OutCol{Name: name})
	}
	return out
}

// flattenFrom walks the FROM tree collecting base relations and ON
// conditions. LEFT JOIN subtrees are planned structurally (they cannot be
// reordered) and returned as one composite relation.
func (pl *planner) flattenFrom(ref *TableRef) ([]planRel, []Expr, error) {
	switch {
	case ref.Join != nil && ref.Join.Left:
		return pl.planLeftJoin(ref.Join)
	case ref.Join != nil:
		lRels, lConds, err := pl.flattenFrom(ref.Join.L)
		if err != nil {
			return nil, nil, err
		}
		rRels, rConds, err := pl.flattenFrom(ref.Join.R)
		if err != nil {
			return nil, nil, err
		}
		rels := append(lRels, rRels...)
		conds := append(lConds, rConds...)
		if ref.Join.Cond != nil {
			conds = append(conds, Conjuncts(ref.Join.Cond)...)
		}
		return rels, conds, nil
	case ref.Sub != nil:
		sub, err := pl.planBranches(ref.Sub)
		if err != nil {
			return nil, nil, err
		}
		alias := ref.Alias
		// Requalify the subquery's output columns under the alias.
		schema := make([]OutCol, len(sub.OutSchema()))
		for i, c := range sub.OutSchema() {
			schema[i] = OutCol{Table: alias, Name: c.Name, Type: c.Type}
		}
		sub = &aliasPlan{Child: sub, schema: schema}
		return []planRel{{alias: alias, plan: sub}}, nil, nil
	default:
		scan, err := pl.newScan(ref.Table, ref.Alias)
		if err != nil {
			return nil, nil, err
		}
		return []planRel{{alias: ref.Alias, plan: scan}}, nil, nil
	}
}

// planLeftJoin plans `L LEFT JOIN R ON cond` as a composite relation. The
// ON condition must be a conjunction of equi-predicates between the two
// sides (the paper's workloads never need outer non-equi joins).
func (pl *planner) planLeftJoin(j *JoinRef) ([]planRel, []Expr, error) {
	buildSide := func(ref *TableRef) (Plan, error) {
		rels, conds, err := pl.flattenFrom(ref)
		if err != nil {
			return nil, err
		}
		plan, residual, err := pl.buildJoinTree(rels, conds)
		if err != nil {
			return nil, err
		}
		if len(residual) > 0 {
			plan = &LFilter{Child: plan, Conds: residual}
		}
		return plan, nil
	}
	lPlan, err := buildSide(j.L)
	if err != nil {
		return nil, nil, err
	}
	rPlan, err := buildSide(j.R)
	if err != nil {
		return nil, nil, err
	}
	join := &LJoin{L: lPlan, R: rPlan, LeftOuter: true}
	for _, c := range Conjuncts(j.Cond) {
		b, ok := c.(*BinExpr)
		if !ok || b.Op != "=" {
			return nil, nil, fmt.Errorf("sqldb: LEFT JOIN requires equi ON conditions, got %s", c)
		}
		lSide := exprResolvesIn(b.L, lPlan.OutSchema()) && !exprResolvesIn(b.L, rPlan.OutSchema())
		rSide := exprResolvesIn(b.R, rPlan.OutSchema()) && !exprResolvesIn(b.R, lPlan.OutSchema())
		switch {
		case lSide && rSide:
			join.EquiL = append(join.EquiL, b.L)
			join.EquiR = append(join.EquiR, b.R)
		case exprResolvesIn(b.R, lPlan.OutSchema()) && exprResolvesIn(b.L, rPlan.OutSchema()):
			join.EquiL = append(join.EquiL, b.R)
			join.EquiR = append(join.EquiR, b.L)
		default:
			return nil, nil, fmt.Errorf("sqldb: cannot attribute LEFT JOIN condition %s to one side each", c)
		}
	}
	if len(join.EquiL) == 0 {
		return nil, nil, fmt.Errorf("sqldb: LEFT JOIN requires an ON condition")
	}
	db := pl.db
	db.mu.Lock()
	db.leftJoinSeq++
	alias := fmt.Sprintf("_lj%d", db.leftJoinSeq)
	db.mu.Unlock()
	return []planRel{{alias: alias, plan: join}}, nil, nil
}

// exprResolvesIn reports whether every column reference in e resolves
// against the schema.
func exprResolvesIn(e Expr, schema []OutCol) bool {
	refs := colRefs(e)
	if len(refs) == 0 {
		return false
	}
	for _, ref := range refs {
		found := false
		for _, c := range schema {
			if strings.EqualFold(c.Name, ref.Name) &&
				(ref.Table == "" || strings.EqualFold(c.Table, ref.Table)) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// aliasPlan renames its child's output columns (for FROM subqueries).
type aliasPlan struct {
	Child  Plan
	schema []OutCol
}

func (*aliasPlan) planNode()             {}
func (p *aliasPlan) OutSchema() []OutCol { return p.schema }

// newScan plans a bound-relation, base-table, view, or virtual-table
// access. A view is planned without the statement's hints.
func (pl *planner) newScan(table, alias string) (Plan, error) {
	db := pl.db
	// A bound relation is found at execution by the name it is bound under.
	name, t := table, pl.rels.lookup(table)
	if t == nil {
		if st := db.lookupSysTable(table); st != nil {
			pl.notes.markVolatile() // sys.* rows change under every plan
			return db.newSysScan(st, alias), nil
		}
		if v := db.lookupView(table); v != nil {
			pl.notes.view(table, v)
			vp := *pl
			vp.hints, vp.inView = nil, true
			sub, err := vp.planBranches(v.Query)
			if err != nil {
				return nil, fmt.Errorf("sqldb: expanding view %s: %w", table, err)
			}
			schema := make([]OutCol, len(sub.OutSchema()))
			for i, c := range sub.OutSchema() {
				schema[i] = OutCol{Table: alias, Name: c.Name, Type: c.Type}
			}
			return &aliasPlan{Child: sub, schema: schema}, nil
		}
		if t = db.lookupTable(table); t == nil {
			return nil, fmt.Errorf("sqldb: no table or view named %q", table)
		}
		name = t.Name
	}
	pl.notes.table(name, t.Schema)
	schema := make([]OutCol, len(t.Schema))
	for i, c := range t.Schema {
		schema[i] = OutCol{Table: alias, Name: c.Name, Type: c.Type}
	}
	return &LScan{Table: name, Alias: alias, schema: schema, EstRows: float64(t.NumRows())}, nil
}

// colRefs lists every column reference in an expression.
func colRefs(e Expr) []*ColRef {
	var out []*ColRef
	Walk(e, func(x Expr) bool {
		if c, ok := x.(*ColRef); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// relsOf returns the set of relation aliases an expression touches, given
// the per-relation schemas. Unqualified names resolve to whichever relation
// has the column; ambiguity across relations is an error.
func relsOf(e Expr, rels []planRel) (map[string]bool, error) {
	out := map[string]bool{}
	for _, ref := range colRefs(e) {
		matched := ""
		for _, rel := range rels {
			for _, c := range rel.plan.OutSchema() {
				if !strings.EqualFold(c.Name, ref.Name) {
					continue
				}
				// A qualifier must match either the relation's alias or the
				// schema column's own qualifier (composite relations such as
				// LEFT JOIN subtrees carry their members' qualifiers).
				if ref.Table != "" && !strings.EqualFold(ref.Table, rel.alias) &&
					!strings.EqualFold(ref.Table, c.Table) {
					continue
				}
				if matched != "" && !strings.EqualFold(matched, rel.alias) {
					return nil, fmt.Errorf("sqldb: ambiguous column %q", ref.String())
				}
				matched = rel.alias
			}
		}
		if matched == "" {
			return nil, fmt.Errorf("sqldb: unknown column %q", ref.String())
		}
		out[strings.ToLower(matched)] = true
	}
	return out, nil
}

// exprUDFs returns the registered UDF names appearing in the expression.
func (db *DB) exprUDFs(e Expr) []string {
	var out []string
	Walk(e, func(x Expr) bool {
		if fc, ok := x.(*FuncCall); ok && db.lookupUDF(strings.ToLower(fc.Name)) != nil {
			out = append(out, strings.ToLower(fc.Name))
		}
		return true
	})
	return out
}

// resolveSubqueries folds the uncorrelated scalar and IN subqueries in the
// expressions of one SELECT block (its derived tables included) into
// literals, returning a rewritten statement that shares everything else.
func (pl *planner) resolveSubqueries(st *SelectStmt) (*SelectStmt, error) {
	if len(st.UnionAll) > 0 {
		// runSelect plans each UNION ALL branch on its own.
		blk := *st
		blk.UnionAll = nil
		st = &blk
	}
	return RewriteSelect(st, pl.foldSubquery)
}

// rewriteSubqueries is resolveSubqueries for one expression.
func (pl *planner) rewriteSubqueries(e Expr) (Expr, error) {
	return Rewrite(e, pl.foldSubquery)
}

// foldSubquery executes a scalar subquery and returns its value as a
// literal, or executes an IN subquery and returns the IN over the literal
// list of its values; it returns any other node as is. Either fold makes
// the plan data.
func (pl *planner) foldSubquery(e Expr) (Expr, error) {
	switch t := e.(type) {
	case *SubqueryExpr:
		pl.notes.markVolatile()
		res, err := pl.db.runSelect(pl.ctx, t.Query, pl.hints)
		if err != nil {
			return nil, fmt.Errorf("sqldb: scalar subquery: %w", err)
		}
		if len(res.Cols) != 1 {
			return nil, fmt.Errorf("sqldb: scalar subquery returns %d columns", len(res.Cols))
		}
		if res.NumRows() == 0 {
			return &Lit{Val: Null()}, nil
		}
		if res.NumRows() > 1 {
			return nil, fmt.Errorf("sqldb: scalar subquery returns %d rows", res.NumRows())
		}
		return &Lit{Val: res.Cols[0].Get(0)}, nil
	case *InExpr:
		if t.Sub == nil {
			return e, nil
		}
		pl.notes.markVolatile()
		// The replacement's operand is not visited: fold it here.
		x, err := pl.rewriteSubqueries(t.E)
		if err != nil {
			return nil, err
		}
		res, err := pl.db.runSelect(pl.ctx, t.Sub, pl.hints)
		if err != nil {
			return nil, fmt.Errorf("sqldb: IN subquery: %w", err)
		}
		if len(res.Cols) != 1 {
			return nil, fmt.Errorf("sqldb: IN subquery returns %d columns, want 1", len(res.Cols))
		}
		out := &InExpr{E: x, Not: t.Not}
		for i := 0; i < res.NumRows(); i++ {
			out.List = append(out.List, &Lit{Val: res.Cols[0].Get(i)})
		}
		return out, nil
	}
	return e, nil
}
