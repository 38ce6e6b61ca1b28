package sqldb

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// NodeStats is the per-plan-node actual-execution record EXPLAIN ANALYZE
// reports. Times are inclusive of children (Postgres-style actuals).
// Workers/Morsels/WorkerRows describe the node's morsel-driven fan-out;
// they stay zero when every operator of the node executed serially.
type NodeStats struct {
	Calls int
	Rows  int
	Nanos int64

	Workers    int
	Morsels    int
	WorkerRows []int
}

// ParSkew is the ratio of the busiest worker's row count to the ideal even
// share (1.0 = perfectly balanced), or 0 when the node ran serially.
func (ns *NodeStats) ParSkew() float64 {
	total, max := 0, 0
	for _, v := range ns.WorkerRows {
		total += v
		if v > max {
			max = v
		}
	}
	if total == 0 || ns.Workers == 0 {
		return 0
	}
	return float64(max) / (float64(total) / float64(ns.Workers))
}

// execCtx threads the per-query execution context through the plan tree:
// the per-node stats collector (non-nil only under
// EXPLAIN ANALYZE), the parent trace span (non-nil only when the statement
// runs inside a trace), the query's parallelism degree, and the plan node
// being executed (set only while collecting per-node stats, so parallel
// operators can attribute their morsel counts). The common case — nodes
// and span both nil — costs a single branch per plan node on top of the
// uninstrumented executor.
//
// The lifecycle fields follow the same zero-cost discipline: ctx is nil
// unless the caller passed a cancellable context (checked once per plan
// node and at every morsel boundary), charged is nil unless a memory
// budget is armed, and faults is nil outside chaos tests. The budget's
// fields are only touched on the statement's own goroutine.
type execCtx struct {
	nodes map[Plan]*NodeStats
	span  *obs.Span
	par   int
	node  Plan

	ctx       context.Context
	rels      Relations // bound to the statement (relations.go)
	memBudget int64
	memUsed   int64
	charged   map[*Column]bool // the columns memUsed counts
	faults    *faults.Injector

	// acct is the statement's resource accounting, non-nil only when the
	// DB has a query history armed (see accounting.go).
	acct *queryAcct
	// args are the values of the statement's Params.
	args []Datum

	// stamp is the most recent clock reading taken at an operator boundary
	// (profAdd stores its end read here). The traced execPlan path opens and
	// closes operator spans from the stamp, so always-on tracing adds no
	// clock reads beyond the ones the baseline accounting already pays.
	// Written only on the statement's own goroutine.
	stamp time.Time
}

// execPlan evaluates a plan tree to a result, recording per-node actuals
// and emitting operator spans when the context asks for them (see node).
// The node's output is charged against the memory budget.
func (db *DB) execPlan(p Plan, ec *execCtx) (res *Result, err error) {
	err = db.node(p, ec, func() (int, error) {
		var err error
		if res, err = db.execPlanNode(p, ec); err != nil {
			return 0, err
		}
		return res.NumRows(), ec.charge(res)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// node runs plan node p's operator, run, which returns the node's output
// row count. It is the executor's per-node lifecycle gate: the query
// context is checked before the node runs, and when the statement is
// traced or analysed, run executes inside the node's span and its rows
// and time are recorded as the node's actuals.
func (db *DB) node(p Plan, ec *execCtx, run func() (int, error)) error {
	if err := ec.check(); err != nil {
		return err
	}
	if ec.nodes == nil && ec.span == nil {
		_, err := run()
		return err
	}
	// Span timestamps chain through ec.stamp: every operator's profAdd
	// accounting already reads the clock at its node boundary, so the traced
	// path opens and closes spans from those readings instead of paying two
	// more reads per node. The stamp can trail the true node start by the
	// parent's inter-child bookkeeping — microseconds, acceptable for
	// operator spans.
	spStart := ec.stamp
	if spStart.IsZero() {
		spStart = time.Now()
		ec.stamp = spStart
	}
	sp := ec.span.StartChildAt(planNodeName(p), spStart)
	// Plan children evaluate sequentially (operator-internal parallelism
	// never re-enters execPlan), so the span/node fields can be swapped in
	// place instead of heap-copying the execCtx for every node.
	prevSpan, prevNode := ec.span, ec.node
	ec.span, ec.node = sp, p
	rows, err := run()
	ec.span, ec.node = prevSpan, prevNode
	if !ec.stamp.After(spStart) {
		// The node had no accounting site (and no child that ran one): one
		// fresh read closes its span.
		ec.stamp = time.Now()
	}
	if err == nil {
		sp.SetAttr("rows", rows)
		if ec.nodes != nil {
			ns := ec.nodes[p]
			if ns == nil {
				ns = &NodeStats{}
				ec.nodes[p] = ns
			}
			ns.Calls++
			ns.Rows += rows
			// EXPLAIN ANALYZE reports the span's own interval: the node's
			// time is read once, by profAdd, whatever sink shows it.
			ns.Nanos += ec.stamp.Sub(spStart).Nanoseconds()
		}
	}
	sp.FinishAt(ec.stamp)
	return err
}

// scanLabels caches "Scan <table>" / "SysScan <name>" strings: the label
// is rebuilt for every traced execution of every scan node, and the
// distinct-table population is small. A plain map beats sync.Map here —
// the m[a+b] read avoids materializing the key, while sync.Map would box
// the key string on every lookup.
var (
	scanLabelMu sync.RWMutex
	scanLabels  = map[string]string{}
)

func scanLabel(prefix, table string) string {
	scanLabelMu.RLock()
	l, ok := scanLabels[prefix+table]
	scanLabelMu.RUnlock()
	if ok {
		return l
	}
	l = prefix + table
	scanLabelMu.Lock()
	scanLabels[l] = l
	scanLabelMu.Unlock()
	return l
}

// planNodeName labels a plan node for trace spans.
func planNodeName(p Plan) string {
	switch t := p.(type) {
	case *LScan:
		return scanLabel("Scan ", t.Table)
	case *LSysScan:
		return scanLabel("SysScan ", t.SysTable.Name)
	case *LFilter:
		return "Filter"
	case *LJoin:
		return joinKind(t)
	case *LProject:
		return "Project"
	case *LAgg:
		return "Aggregate"
	case *LDistinct:
		return "Distinct"
	case *LSort:
		return "Sort"
	case *LLimit:
		return "Limit"
	case *aliasPlan:
		return "Alias"
	case *unionPlan:
		return "UnionAll"
	}
	return fmt.Sprintf("%T", p)
}

// execPlanNode dispatches one plan node.
func (db *DB) execPlanNode(p Plan, ec *execCtx) (*Result, error) {
	switch t := p.(type) {
	case *LScan:
		return db.execScan(t, ec)
	case *LSysScan:
		return db.execSysScan(t, ec)
	case *LFilter:
		child, err := db.execPlan(t.Child, ec)
		if err != nil {
			return nil, err
		}
		return db.execFilter(child, t.Conds, ec, nil)
	case *LJoin:
		return db.execJoin(t, ec)
	case *LProject:
		return db.execProject(t, ec)
	case *LAgg:
		return db.execAgg(t, ec)
	case *LDistinct:
		child, err := db.execPlan(t.Child, ec)
		if err != nil {
			return nil, err
		}
		return db.execDistinct(child, ec)
	case *LSort:
		child, err := db.execPlan(t.Child, ec)
		if err != nil {
			return nil, err
		}
		return db.execSort(child, t.Keys, ec)
	case *LLimit:
		child, err := db.execPlan(t.Child, ec)
		if err != nil {
			return nil, err
		}
		return db.execLimit(child, t.N, t.Offset, ec)
	case *aliasPlan:
		child, err := db.execPlan(t.Child, ec)
		if err != nil {
			return nil, err
		}
		return &Result{Schema: t.schema, Cols: child.Cols, rows: child.NumRows()}, nil
	case *unionPlan:
		first, err := db.execPlan(t.Branches[0], ec)
		if err != nil {
			return nil, err
		}
		// appendBranch replaces res.Cols' entries; first.Cols may be an
		// operator's own slice (an alias passes its child's on).
		res := &Result{Schema: first.Schema, Cols: slices.Clone(first.Cols)}
		for _, b := range t.Branches[1:] {
			br, err := db.execPlan(b, ec)
			if err == nil {
				err = appendBranch(res, br)
			}
			if err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	return nil, fmt.Errorf("sqldb: cannot execute plan node %T", p)
}

func (db *DB) execScan(s *LScan, ec *execCtx) (*Result, error) {
	t := db.relation(ec.rels, s.Table)
	if t == nil {
		return nil, fmt.Errorf("sqldb: table %q disappeared during execution", s.Table)
	}
	start := time.Now()
	// Snapshot the column headers under the read lock: concurrent appends
	// then extend the table without the escaping Result observing torn
	// lengths (appends write at indices beyond every snapshot's length;
	// in-place UPDATEs still require external coordination).
	res := &Result{Schema: s.schema, Cols: t.SnapshotCols()}
	res.rows = res.NumRows()
	ec.profScan(res.rows, start)
	if len(s.Filters) > 0 {
		return db.execFilter(res, s.Filters, ec, s.used)
	}
	for i := range res.Cols {
		if i < len(s.used) && !s.used[i] {
			res.Cols[i] = nil // no ancestor reads it
		}
	}
	return res, nil
}

// execFilter applies conjuncts, producing a compacted result of the
// columns at the positions used marks (nil: every materialised column).
// The conjuncts run in the optimizer's order, each over the rows the
// earlier ones kept, so an expensive predicate sees only the survivors of
// the cheap ones; each narrows its morsel's selection directly.
func (db *DB) execFilter(in *Result, conds []Expr, ec *execCtx, used []bool) (*Result, error) {
	start := time.Now()
	xs := make([]vecExpr, len(conds))
	for i, c := range conds {
		x, err := db.compileOp(ec, c, in.Schema, false)
		if err != nil {
			return nil, err
		}
		xs[i] = x
	}
	n := in.NumRows()

	deg := ec.parDegreeFor(n)
	if deg > 1 && !db.exprsParallelSafe(conds) {
		deg = 1
	}
	// Fan the row range out as morsels; each morsel produces its
	// qualifying indices in ascending order, and concatenating the
	// per-morsel slices in morsel order reproduces the serial keep list
	// exactly. The serial case (deg 1) takes the same path: runMorsels
	// collapses to a single full-range call when no context is attached,
	// and to a morsel-by-morsel loop (one-morsel cancellation latency)
	// when one is.
	keeps := make([][]int, (n+morselRows-1)/morselRows)
	stats, err := db.runMorsels(ec, deg, n, func(_, lo, hi int) error {
		s := sel{lo: lo, hi: hi}
		for _, x := range xs {
			keep, err := x.keep(in, s)
			if err != nil {
				return err
			}
			if s = (sel{idx: keep}); len(keep) == 0 {
				break
			}
		}
		keeps[lo/morselRows] = s.idx
		return nil
	})
	if err != nil {
		return nil, err
	}
	db.notePar(ec, stats)
	total := 0
	for _, k := range keeps {
		total += len(k)
	}
	var out *Result
	if total == n {
		// Every row qualifies: the columns pass through uncopied.
		out = &Result{Schema: in.Schema, Cols: make([]*Column, len(in.Cols)), rows: n}
		for i, c := range in.Cols {
			if used == nil || used[i] {
				out.Cols[i] = c
			}
		}
	} else {
		keep := make([]int, 0, total)
		for _, k := range keeps {
			keep = append(keep, k...)
		}
		out = gatherRows(in, keep, used)
	}
	ec.profAdd(start)
	return out, nil
}

func (db *DB) execProject(p *LProject, ec *execCtx) (*Result, error) {
	var child *Result
	if p.Child != nil {
		var err error
		child, err = db.execPlan(p.Child, ec)
		if err != nil {
			return nil, err
		}
	} else {
		child = &Result{} // FROM-less: single conceptual row
	}
	start := time.Now()
	n := 1
	if p.Child != nil {
		n = child.NumRows()
	}
	out := &Result{}
	// Expand stars; bare columns pass through, computed items compile to
	// vector expressions.
	var computed []vecExpr
	var exprs []Expr
	src := make([]int, 0, len(p.Items)) // >= 0: child column; < 0: -1-index into computed
	for _, it := range p.Items {
		if it.Star {
			for ci := range child.Schema {
				out.Schema = append(out.Schema, child.Schema[ci])
				src = append(src, ci)
			}
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
		out.Schema = append(out.Schema, OutCol{Name: name})
		if cr, ok := it.Expr.(*ColRef); ok && p.Child != nil {
			if ci, err := child.ColIndex(cr.Table, cr.Name); err == nil {
				src = append(src, ci)
				continue
			}
		}
		x, err := db.compileOp(ec, it.Expr, child.Schema, false)
		if err != nil {
			return nil, err
		}
		src = append(src, -1-len(computed))
		computed = append(computed, x)
		exprs = append(exprs, it.Expr)
	}
	// Computed items are evaluated as vectors — value-by-value parts fanned
	// out as row-range morsels when the input is large and every referenced
	// UDF is parallel-safe (this is where nUDF inference calls spread across
	// cores) — and typed as a row-at-a-time build types them, so parallel
	// and serial projections build identical columns.
	deg := ec.parDegreeFor(n)
	if deg > 1 && !db.exprsParallelSafe(exprs) {
		deg = 1
	}
	vals, err := db.evalVecs(ec, computed, child, n, deg)
	if err != nil {
		return nil, err
	}
	for pi, ci := range src {
		if ci >= 0 {
			// Zero-copy column pass-through.
			out.Cols = append(out.Cols, child.Cols[ci])
			out.Schema[pi].Type = child.Schema[ci].Type
			continue
		}
		col, err := projectColumn(vals[-1-ci])
		if err != nil {
			return nil, err
		}
		out.Cols = append(out.Cols, col)
		out.Schema[pi].Type = col.Type
	}
	ec.profAdd(start)
	return out, nil
}

// projectColumn settles a computed projection's vector into its output
// column. Mixed-type values take the first non-NULL value's type and
// coerce the rest into it (a coercion that cannot hold the value fails).
func projectColumn(v vec) (*Column, error) {
	if v.col != nil {
		return settleType(v.col), nil
	}
	t := TNull
	for _, d := range v.ds {
		if !d.IsNull() {
			t = d.T
			break
		}
	}
	col := NewColumn(t)
	for _, d := range v.ds {
		if err := col.Append(d); err != nil {
			return nil, err
		}
	}
	return col, nil
}

// execDistinct keeps the FIRST occurrence of each duplicate row, in input
// order. This is a documented contract (pinned by TestOrderingContracts):
// DISTINCT output order is the input order of first occurrences, so
// upstream operators must produce deterministic row order — which the
// parallel operators guarantee by concatenating morsel outputs in morsel
// order.
func (db *DB) execDistinct(in *Result, ec *execCtx) (*Result, error) {
	start := time.Now()
	n := in.NumRows()
	keys := make([]vec, len(in.Cols))
	for i, c := range in.Cols {
		keys[i] = vec{col: c}
	}
	ids, kt := make([]int32, n), newKeyTable(keys)
	kt.number(keys, 0, n, ids)
	keep := make([]int, 0, kt.len())
	for r, id := range ids {
		if int(id) == len(keep) { // a key's first row
			keep = append(keep, r)
		}
	}
	out := gatherRows(in, keep, nil)
	ec.profAdd(start)
	return out, nil
}

// execSort is a STABLE sort: rows comparing equal on every key keep their
// input order. Combined with the parallel operators' morsel-order output
// this makes ORDER BY (and any LIMIT above it) fully deterministic at any
// parallelism degree (pinned by TestOrderingContracts). The comparison
// loop itself stays serial; only key pre-evaluation fans out.
func (db *DB) execSort(in *Result, keys []OrderItem, ec *execCtx) (*Result, error) {
	start := time.Now()
	xs := make([]vecExpr, len(keys))
	keyExprs := make([]Expr, len(keys))
	for i, k := range keys {
		x, err := db.compileOp(ec, k.Expr, in.Schema, false)
		if err != nil {
			return nil, err
		}
		xs[i] = x
		keyExprs[i] = k.Expr
	}
	n := in.NumRows()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	deg := ec.parDegreeFor(n)
	if deg > 1 && !db.exprsParallelSafe(keyExprs) {
		deg = 1
	}
	// Pre-evaluate keys to avoid O(n log n) expression evaluations.
	keyVals, err := db.evalVecs(ec, xs, in, n, deg)
	if err != nil {
		return nil, err
	}
	var sortErr error
	sort.SliceStable(idx, func(a, b int) bool {
		for ki := range keys {
			c, err := Compare(keyVals[ki].get(idx[a]), keyVals[ki].get(idx[b]))
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				if keys[ki].Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return nil, sortErr
	}
	out := gatherRows(in, idx, nil)
	ec.profAdd(start)
	return out, nil
}

// execLimit slices rows [offset, offset+limit) of the input IN INPUT
// ORDER. Like Distinct it relies on deterministic upstream order (pinned
// by TestOrderingContracts); the parallel operators provide it by
// concatenating morsel outputs in morsel order.
func (db *DB) execLimit(in *Result, limit, offset int, ec *execCtx) (*Result, error) {
	start := time.Now()
	n := in.NumRows()
	lo := offset
	if lo > n {
		lo = n
	}
	hi := lo + limit
	if hi > n || hi < 0 {
		hi = n
	}
	idx := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		idx = append(idx, i)
	}
	out := gatherRows(in, idx, nil)
	ec.profAdd(start)
	return out, nil
}
