package sqldb

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// QueryHints carries the paper's optimizer hints (Section IV-B) into the
// planner. The DL2SQL-OP configuration fills these from the customized cost
// model and the per-class nUDF selectivity histograms; plain DL2SQL leaves
// them nil and gets the default behaviour.
type QueryHints struct {
	// UDFSelectivity maps a UDF name to the estimated fraction of rows
	// satisfying a predicate on that UDF (Eq. 10). Without an entry, the
	// default model assumes 1.0 — i.e. the UDF filter prunes nothing, which
	// is how a black-box UDF looks to a stock optimizer.
	UDFSelectivity map[string]float64
	// UDFCost maps a UDF name to its per-call cost (abstract units). The
	// predicate orderer uses it to decide scan-time vs delayed evaluation
	// (hint rule 1).
	UDFCost map[string]float64
	// DelayUDFs forces UDF predicates to be evaluated after all non-UDF
	// predicates and joins (rule 1, strategy 2) when the cost comparison
	// favours it. When nil the planner decides per-predicate.
	DelayUDFs *bool
	// SymmetricJoin requests the symmetric hash join algorithm for joins
	// whose condition contains a UDF call (rule 3).
	SymmetricJoin bool
	// CardOverrides maps lower-cased table names to cardinality estimates
	// supplied by the customized cost model (Eqs. 3–8), replacing the
	// catalog statistics during join ordering.
	CardOverrides map[string]float64
	// JoinOrder, when non-empty, pins the join order to the given relation
	// aliases (left-deep, in order).
	JoinOrder []string
}

// defaultUDFSelectivity is what the stock optimizer assumes for a black-box
// UDF predicate: no pruning.
const defaultUDFSelectivity = 1.0

// defaultPredicateSelectivity estimates how much of the input a non-UDF
// predicate keeps, using the textbook heuristics.
func (db *DB) predicateSelectivity(e Expr, hints *QueryHints) float64 {
	udfs := db.exprUDFs(e)
	if len(udfs) > 0 {
		sel := 1.0
		for _, u := range udfs {
			s := defaultUDFSelectivity
			if hints != nil {
				if v, ok := hints.UDFSelectivity[u]; ok {
					s = v
				}
			} else if udf := db.lookupUDF(u); udf != nil && udf.EstimateSelectivity != nil {
				s = udf.EstimateSelectivity(Null())
			}
			sel *= s
		}
		return sel
	}
	switch t := e.(type) {
	case *BinExpr:
		switch t.Op {
		case "=":
			return 0.1
		case "!=":
			return 0.9
		case "<", "<=", ">", ">=":
			return 1.0 / 3.0
		case "and":
			return db.predicateSelectivity(t.L, hints) * db.predicateSelectivity(t.R, hints)
		case "or":
			l := db.predicateSelectivity(t.L, hints)
			r := db.predicateSelectivity(t.R, hints)
			return l + r - l*r
		}
	case *InExpr:
		return math.Min(1, 0.1*float64(len(t.List)))
	case *BetweenExpr:
		return 0.25
	case *IsNullExpr:
		return 0.1
	case *UnaryExpr:
		if t.Op == "not" {
			return 1 - db.predicateSelectivity(t.E, hints)
		}
	}
	return 0.5
}

// predicateCost estimates the per-row evaluation cost of a predicate.
// Plain comparisons cost 1; each UDF call adds its registered cost (large
// for neural UDFs).
func (db *DB) predicateCost(e Expr, hints *QueryHints) float64 {
	cost := 1.0
	for _, u := range db.exprUDFs(e) {
		c := 1000.0
		if hints != nil {
			if v, ok := hints.UDFCost[u]; ok {
				c = v
			}
		}
		if udf := db.lookupUDF(u); udf != nil && udf.Cost > 0 {
			if hints == nil || hints.UDFCost[u] == 0 {
				c = udf.Cost
			}
		}
		cost += c
	}
	return cost
}

// orderPredicates sorts filter conjuncts by rank = (selectivity-1)/cost, the
// classic optimal ordering for expensive predicates: cheap, highly-selective
// predicates run first; expensive neural UDFs run last unless their
// selectivity justifies earlier evaluation (hint rule 1).
func (db *DB) orderPredicates(conds []Expr, hints *QueryHints) []Expr {
	if len(conds) <= 1 {
		return conds
	}
	type ranked struct {
		e    Expr
		rank float64
		udf  bool
	}
	rs := make([]ranked, len(conds))
	for i, c := range conds {
		sel := db.predicateSelectivity(c, hints)
		cost := db.predicateCost(c, hints)
		rs[i] = ranked{e: c, rank: (sel - 1) / cost, udf: len(db.exprUDFs(c)) > 0}
	}
	if hints != nil && hints.DelayUDFs != nil && *hints.DelayUDFs {
		// Rule 1 strategy 2 pinned: all UDF predicates strictly after
		// non-UDF predicates, each group rank-ordered.
		sort.SliceStable(rs, func(i, j int) bool {
			if rs[i].udf != rs[j].udf {
				return !rs[i].udf
			}
			return rs[i].rank < rs[j].rank
		})
	} else {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].rank < rs[j].rank })
	}
	out := make([]Expr, len(rs))
	for i, r := range rs {
		out[i] = r.e
	}
	return out
}

// relCard is what a relation's cardinality estimate reads: the base table
// whose row count is the base ("" for a derived relation, which counts
// 1000), the alias a derived relation's CardOverrides entry goes by, and
// the textbook selectivities of the filters pushed onto the relation, in
// order. With no UDF among those filters they are constants of the
// statement.
type relCard struct {
	table, alias string
	sels         []float64
}

// relCardOf describes a relation's estimate; sels is left empty.
func relCardOf(rel planRel) relCard {
	if s, ok := rel.plan.(*LScan); ok {
		return relCard{table: s.Table}
	}
	return relCard{alias: rel.alias}
}

// cardBase is a relation's estimate before its pushed filters: a base
// table counts its rows, a derived relation 1000, unless a CardOverrides
// entry under the table's name or the derived relation's alias replaces
// either.
func (db *DB) cardBase(rels Relations, c relCard, hints *QueryHints) float64 {
	if hints != nil && len(hints.CardOverrides) > 0 {
		name := c.table
		if name == "" {
			name = c.alias
		}
		if v, ok := hints.CardOverrides[strings.ToLower(name)]; ok {
			return v
		}
	}
	if c.table != "" {
		if t := db.relation(rels, c.table); t != nil {
			return float64(t.NumRows())
		}
	}
	return 1000
}

// estimate is a relation's estimated cardinality after its pushed
// filters, at least 1.
func (db *DB) estimate(rels Relations, c relCard, hints *QueryHints) float64 {
	base := db.cardBase(rels, c, hints)
	for _, s := range c.sels {
		base *= s
	}
	return max(base, 1)
}

// relEstimate estimates a relation's cardinality after pushed filters.
func (db *DB) relEstimate(rels Relations, rel planRel, pushed []Expr, hints *QueryHints) float64 {
	base := db.cardBase(rels, relCardOf(rel), hints)
	for _, f := range pushed {
		base *= db.predicateSelectivity(f, hints)
	}
	return max(base, 1)
}

// joinSelectivity estimates equi-join selectivity as 1/max(ndv_l, ndv_r),
// the System-R default. This is the component the paper observes
// "over-estimates the number of join results ... exaggerated exponentially"
// on neural-operator queries; the customized cost model bypasses it via
// CardOverrides. Each side's NDV is looked up in the relation its own
// alias names, whichever order the condition lists the two sides in.
func (db *DB) joinSelectivity(bound Relations, rels []planRel, cond *equiCond) float64 {
	ndv := func(alias string, e Expr) float64 {
		col, ok := e.(*ColRef)
		if !ok {
			return 100
		}
		for _, rel := range rels {
			if !strings.EqualFold(rel.alias, alias) {
				continue
			}
			s, ok := rel.plan.(*LScan)
			if !ok {
				return 100
			}
			if t := db.relation(bound, s.Table); t != nil {
				if d, ok := t.Distinct(col.Name); ok {
					return float64(d)
				}
			}
		}
		return 100
	}
	lN, rN := ndv(cond.lAlias, cond.lExpr), ndv(cond.rAlias, cond.rExpr)
	return 1.0 / math.Max(1, math.Max(lN, rN))
}

// equiCond is a normalized equi-join predicate between two relations.
type equiCond struct {
	lAlias, rAlias string
	lExpr, rExpr   Expr
	orig           Expr
	hasUDF         bool
}

// buildJoinTree classifies conditions, pushes single-relation filters into
// scans, picks a greedy join order, and returns the join plan plus residual
// (multi-relation non-equi) conditions.
func (pl *planner) buildJoinTree(rels []planRel, conds []Expr) (Plan, []Expr, error) {
	db, hints := pl.db, pl.hints
	pushed := map[string][]Expr{}
	var equis []*equiCond
	var residual []Expr

	for _, c := range conds {
		touching, err := relsOf(c, rels)
		if err != nil {
			return nil, nil, err
		}
		switch len(touching) {
		case 0:
			residual = append(residual, c) // constant condition
		case 1:
			for a := range touching {
				pushed[a] = append(pushed[a], c)
			}
		case 2:
			if eq := db.asEquiCond(c, rels); eq != nil {
				equis = append(equis, eq)
			} else {
				residual = append(residual, c)
			}
		default:
			residual = append(residual, c)
		}
	}

	// Attach pushed filters to scans (ordered by rank).
	for i := range rels {
		fs := pushed[strings.ToLower(rels[i].alias)]
		if len(fs) == 0 {
			continue
		}
		fs = db.orderPredicates(fs, hints)
		if scan, ok := rels[i].plan.(*LScan); ok {
			scan.Filters = fs
			scan.EstRows = db.relEstimate(pl.rels, rels[i], fs, hints)
		} else {
			rels[i].plan = &LFilter{Child: rels[i].plan, Conds: fs}
		}
	}

	if len(rels) == 1 {
		return rels[0].plan, residual, nil
	}

	// Join ordering.
	order := pl.chooseJoinOrder(rels, pushed, equis)

	type joined struct {
		plan    Plan
		aliases map[string]bool
		rows    float64
	}
	first := rels[order[0]]
	cur := &joined{
		plan:    first.plan,
		aliases: map[string]bool{strings.ToLower(first.alias): true},
		rows:    db.relEstimate(pl.rels, first, pushed[strings.ToLower(first.alias)], hints),
	}
	used := make([]bool, len(equis))
	for _, idx := range order[1:] {
		rel := rels[idx]
		ra := strings.ToLower(rel.alias)
		var eqL, eqR []Expr
		symmetric := false
		joinSel := 1.0
		for i, eq := range equis {
			if used[i] {
				continue
			}
			var myExpr, otherExpr Expr
			var otherAlias string
			switch {
			case strings.EqualFold(eq.lAlias, rel.alias):
				myExpr, otherExpr, otherAlias = eq.lExpr, eq.rExpr, eq.rAlias
			case strings.EqualFold(eq.rAlias, rel.alias):
				myExpr, otherExpr, otherAlias = eq.rExpr, eq.lExpr, eq.lAlias
			default:
				continue
			}
			if !cur.aliases[strings.ToLower(otherAlias)] {
				continue
			}
			used[i] = true
			eqL = append(eqL, otherExpr)
			eqR = append(eqR, myExpr)
			if eq.hasUDF && hints != nil && hints.SymmetricJoin {
				symmetric = true
			}
			joinSel *= db.joinSelectivity(pl.rels, rels, eq)
		}
		relRows := db.relEstimate(pl.rels, rel, pushed[ra], hints)
		join := &LJoin{L: cur.plan, R: rel.plan, EquiL: eqL, EquiR: eqR, Symmetric: symmetric}
		if len(eqL) == 0 {
			join.EstRows = cur.rows * relRows
		} else {
			join.EstRows = cur.rows * relRows * joinSel
		}
		cur.plan = join
		cur.aliases[ra] = true
		cur.rows = math.Max(1, join.EstRows)
	}

	// Any unused equi conditions (e.g. both sides landed in the same
	// subtree via transitivity) become residual filters.
	for i, eq := range equis {
		if !used[i] {
			residual = append(residual, eq.orig)
		}
	}
	return cur.plan, residual, nil
}

// asEquiCond recognizes `exprOverRelA = exprOverRelB`.
func (db *DB) asEquiCond(c Expr, rels []planRel) *equiCond {
	b, ok := c.(*BinExpr)
	if !ok || b.Op != "=" {
		return nil
	}
	lRels, err := relsOf(b.L, rels)
	if err != nil || len(lRels) != 1 {
		return nil
	}
	rRels, err := relsOf(b.R, rels)
	if err != nil || len(rRels) != 1 {
		return nil
	}
	var lA, rA string
	for a := range lRels {
		lA = a
	}
	for a := range rRels {
		rA = a
	}
	if lA == rA {
		return nil
	}
	return &equiCond{
		lAlias: lA, rAlias: rA,
		lExpr: b.L, rExpr: b.R,
		orig:   c,
		hasUDF: len(db.exprUDFs(c)) > 0,
	}
}

// chooseJoinOrder returns relation indices in join order: pinned by hints
// when provided, otherwise greedy smallest-first. The greedy order reads
// the estimates only through how they compare, which is what notes
// record of it.
func (pl *planner) chooseJoinOrder(rels []planRel, pushed map[string][]Expr, equis []*equiCond) []int {
	db, hints := pl.db, pl.hints
	if hints != nil && len(hints.JoinOrder) == len(rels) {
		order := make([]int, 0, len(rels))
		seen := map[int]bool{}
		for _, a := range hints.JoinOrder {
			for i, r := range rels {
				if strings.EqualFold(r.alias, a) && !seen[i] {
					order = append(order, i)
					seen[i] = true
					break
				}
			}
		}
		if len(order) == len(rels) {
			return order
		}
	}
	est := make([]float64, len(rels))
	for i, r := range rels {
		est[i] = db.relEstimate(pl.rels, r, pushed[strings.ToLower(r.alias)], hints)
	}
	if pl.notes != nil {
		cards := make([]relCard, len(rels))
		for i, r := range rels {
			cards[i] = relCardOf(r)
			for _, f := range pushed[strings.ToLower(r.alias)] {
				cards[i].sels = append(cards[i].sels, db.predicateSelectivity(f, hints))
			}
		}
		pl.notes.order(cards, est, !pl.inView)
	}
	order := make([]int, len(rels))
	for i := range order {
		order[i] = i
	}
	// Greedy: smallest first; prefer relations connected by an equi edge to
	// the already-joined set to avoid cross products.
	sort.SliceStable(order, func(i, j int) bool { return est[order[i]] < est[order[j]] })
	result := []int{order[0]}
	placed := map[string]bool{strings.ToLower(rels[order[0]].alias): true}
	remaining := append([]int(nil), order[1:]...)
	for len(remaining) > 0 {
		bestIdx := -1
		bestConnected := false
		bestEst := math.Inf(1)
		for pos, idx := range remaining {
			connected := false
			for _, eq := range equis {
				la, ra := strings.ToLower(eq.lAlias), strings.ToLower(eq.rAlias)
				myA := strings.ToLower(rels[idx].alias)
				if (la == myA && placed[ra]) || (ra == myA && placed[la]) {
					connected = true
					break
				}
			}
			if connected && !bestConnected || (connected == bestConnected && est[idx] < bestEst) {
				bestIdx, bestConnected, bestEst = pos, connected, est[idx]
			}
		}
		idx := remaining[bestIdx]
		result = append(result, idx)
		placed[strings.ToLower(rels[idx].alias)] = true
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return result
}

// Explain renders a plan tree for debugging and tests.
func Explain(p Plan) string { return explain(p, nil, nil) }

// explain renders a plan tree with each Param as its value among args.
// With stats, collected by EXPLAIN ANALYZE, each node also shows its actual
// rows, calls and inclusive wall time next to the optimizer's estimates,
// making estimate-vs-actual skew visible.
func explain(p Plan, stats map[Plan]*NodeStats, args []Datum) string {
	var sb strings.Builder
	explainNode(&sb, p, 0, stats, bindParams(argValue(args)))
	return sb.String()
}

// joinKind labels a join node with every algorithm property it carries:
// outer-ness and symmetry compose rather than overwrite each other, so a
// symmetric left-outer join renders as LeftOuterSymmetricHashJoin.
func joinKind(t *LJoin) string {
	kind := "HashJoin"
	if len(t.EquiL) == 0 {
		kind = "NestedLoopJoin"
	}
	if t.Symmetric {
		kind = "Symmetric" + kind
	}
	if t.LeftOuter {
		kind = "LeftOuter" + kind
	}
	return kind
}

func explainNode(sb *strings.Builder, p Plan, depth int, stats map[Plan]*NodeStats, bind func(Expr) (Expr, error)) {
	indent := strings.Repeat("  ", depth)
	// actuals appends the node's EXPLAIN ANALYZE annotation (when stats
	// were collected) and terminates the line.
	// filters prints a node's conditions with their Params' values.
	filters := func(conds []Expr) {
		for _, f := range conds {
			f, _ = Rewrite(f, bind) // bind never fails
			fmt.Fprintf(sb, " [%s]", f)
		}
	}
	actuals := func() {
		if stats != nil {
			if ns := stats[p]; ns != nil {
				fmt.Fprintf(sb, " (actual rows=%d calls=%d time=%s)",
					ns.Rows, ns.Calls, time.Duration(ns.Nanos).Round(time.Microsecond))
				if ns.Workers > 1 {
					fmt.Fprintf(sb, " (parallel workers=%d morsels=%d skew=%.2f)",
						ns.Workers, ns.Morsels, ns.ParSkew())
				}
			} else {
				sb.WriteString(" (never executed)")
			}
		}
		sb.WriteString("\n")
	}
	switch t := p.(type) {
	case *LScan:
		fmt.Fprintf(sb, "%sScan %s as %s (est %.0f rows)", indent, t.Table, t.Alias, t.EstRows)
		if len(t.Filters) > 0 {
			fmt.Fprintf(sb, " filters=%d:", len(t.Filters))
			filters(t.Filters)
		}
		actuals()
	case *LSysScan:
		fmt.Fprintf(sb, "%sSysScan %s as %s (est %.0f rows)", indent, t.SysTable.Name, t.Alias, t.EstRows)
		actuals()
	case *LFilter:
		fmt.Fprintf(sb, "%sFilter", indent)
		filters(t.Conds)
		actuals()
		explainNode(sb, t.Child, depth+1, stats, bind)
	case *LJoin:
		fmt.Fprintf(sb, "%s%s (est %.0f rows)", indent, joinKind(t), t.EstRows)
		actuals()
		explainNode(sb, t.L, depth+1, stats, bind)
		explainNode(sb, t.R, depth+1, stats, bind)
	case *LProject:
		fmt.Fprintf(sb, "%sProject %d items", indent, len(t.Items))
		actuals()
		if t.Child != nil {
			explainNode(sb, t.Child, depth+1, stats, bind)
		}
	case *LAgg:
		fmt.Fprintf(sb, "%sAggregate groupby=%d items=%d", indent, len(t.GroupBy), len(t.Items))
		actuals()
		explainNode(sb, t.Child, depth+1, stats, bind)
	case *LDistinct:
		fmt.Fprintf(sb, "%sDistinct", indent)
		actuals()
		explainNode(sb, t.Child, depth+1, stats, bind)
	case *LSort:
		fmt.Fprintf(sb, "%sSort keys=%d", indent, len(t.Keys))
		actuals()
		explainNode(sb, t.Child, depth+1, stats, bind)
	case *LLimit:
		fmt.Fprintf(sb, "%sLimit %d offset %d", indent, t.N, t.Offset)
		actuals()
		explainNode(sb, t.Child, depth+1, stats, bind)
	case *aliasPlan:
		fmt.Fprintf(sb, "%sAlias", indent)
		actuals()
		explainNode(sb, t.Child, depth+1, stats, bind)
	case *unionPlan:
		fmt.Fprintf(sb, "%sUnionAll branches=%d", indent, len(t.Branches))
		actuals()
		for _, b := range t.Branches {
			explainNode(sb, b, depth+1, stats, bind)
		}
	default:
		fmt.Fprintf(sb, "%s%T", indent, p)
		actuals()
	}
}
