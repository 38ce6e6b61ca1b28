package sqldb

// Hash aggregation. GROUP BY reads its input a block of at most hashBlock
// rows at a time: the child's columns sliced in place or, over a join,
// the join's match pairs as the join hands them on (join.go), gathered
// into buffers the aggregation reuses. Each block's group keys and
// arguments are evaluated into per-node buffers, its keys hashed and
// numbered in a keyTable that keeps its own copy of every group's key,
// and its values folded into per-group states. The parallel path cuts the
// input into at most deg contiguous chunks whose partial states merge by
// key in chunk order, so results are deterministic at every degree. The
// factorised shapes (fusedAgg) read no blocks: over a hash join they walk
// its chains, over a table its runs of equal keys.

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/par"
)

// aggState holds one aggregate's counters for one group: the row count of
// every kind, the sum of sum/avg and the variances, and the sum of squares
// of the variances only.
type aggState struct {
	count    int64
	sum      float64
	sumSq    float64
	intSum   int64
	sawFloat bool
}

// aggExtreme is the extra state of min/max (the extreme in best) and
// argMax/argMin (the ordering value's extreme in best, the argument there
// in arg, and in argRow the input row that set them — the tie-breaker when
// merging parallel partials, so the merged winner is the first row
// achieving the extreme, exactly what the serial scan picks).
type aggExtreme struct {
	best, arg Datum
	argRow    int
}

// aggStates is one aggregate call's state for every group of a partial,
// indexed by group id; ext is nil unless the call tracks an extreme.
type aggStates struct {
	call *aggCall
	st   []aggState
	ext  []aggExtreme
}

func newAggStates(c *aggCall, groups int) aggStates {
	s := aggStates{call: c, st: make([]aggState, groups)}
	switch c.kind {
	case "min", "max", "argmax", "argmin":
		s.ext = make([]aggExtreme, groups)
	}
	return s
}

// grow extends the states to n groups.
func (s *aggStates) grow(n int) {
	if n > len(s.st) {
		s.st = slices.Grow(s.st, n-len(s.st))[:n]
		if s.ext != nil {
			s.ext = slices.Grow(s.ext, n-len(s.ext))[:n]
		}
	}
}

// appendFrom adds group g of o as this partial's next group.
func (s *aggStates) appendFrom(o *aggStates, g int) {
	s.st = append(s.st, o.st[g])
	if s.ext != nil {
		s.ext = append(s.ext, o.ext[g])
	}
}

// addNum folds one numeric value into the state; sq folds its square too.
func (s *aggState) addNum(kind string, v Datum, sq bool) error {
	f, ok := v.AsFloat()
	if !ok {
		return fmt.Errorf("sqldb: %s of non-numeric %s", kind, v.T)
	}
	if v.T == TFloat {
		s.sawFloat = true
	} else {
		s.intSum += v.I
	}
	s.count++
	s.sum += f
	if sq {
		s.sumSq += f * f
	}
	return nil
}

// accumulate folds one block of input rows into the states of their
// groups, row by row in input order: gids are the rows' groups, args the
// call's argument vectors over the block, and row0 the block's first input
// row. skip, when non-nil, marks the rows whose value a DISTINCT aggregate
// already saw in its group.
func (s *aggStates) accumulate(gids []int32, args []vec, row0 int, skip []bool) error {
	c, n := s.call, len(gids)
	if c.star {
		for _, g := range gids {
			s.st[g].count++
		}
		return nil
	}
	v := args[0]
	// Only the variance family reads sumSq.
	numeric, sq := false, strings.HasPrefix(c.kind, "var") || strings.HasPrefix(c.kind, "stddev")
	switch c.kind {
	case "sum", "avg", "stddevsamp", "stddevpop", "varsamp", "varpop":
		numeric = true
		if col := v.col; col != nil && col.Nulls == nil && skip == nil {
			// Typed fast paths: values straight from the column vector.
			switch col.Type {
			case TFloat:
				for i, f := range col.Floats[:n] {
					st := &s.st[gids[i]]
					st.sawFloat = true
					st.count++
					st.sum += f
					if sq {
						st.sumSq += f * f
					}
				}
				return nil
			case TInt:
				for i, x := range col.Ints[:n] {
					st := &s.st[gids[i]]
					st.intSum += x
					f := float64(x)
					st.count++
					st.sum += f
					if sq {
						st.sumSq += f * f
					}
				}
				return nil
			case TNull:
				return nil
			}
		}
	case "count", "min", "max", "argmax", "argmin":
	default:
		return fmt.Errorf("sqldb: unknown aggregate %q", c.kind)
	}
	for r := 0; r < n; r++ {
		if v.isNull(r) || (skip != nil && skip[r]) {
			continue // SQL aggregates skip NULLs
		}
		g := gids[r]
		st := &s.st[g]
		switch {
		case numeric:
			if err := st.addNum(c.kind, v.get(r), sq); err != nil {
				return err
			}
		case c.kind == "count":
			st.count++
		case c.kind == "min" || c.kind == "max":
			x, d := &s.ext[g], v.get(r)
			if st.count == 0 {
				x.best = d
			} else if cmp, err := Compare(d, x.best); err != nil {
				return err
			} else if (c.kind == "min" && cmp < 0) || (c.kind == "max" && cmp > 0) {
				x.best = d
			}
			st.count++
		default: // argmax, argmin
			ord := args[1].get(r)
			if ord.IsNull() {
				continue
			}
			x := &s.ext[g]
			if st.count == 0 {
				x.arg, x.best, x.argRow = v.get(r), ord, row0+r
			} else {
				cmp, err := Compare(ord, x.best)
				if err != nil {
					return err
				}
				if (c.kind == "argmax" && cmp > 0) || (c.kind == "argmin" && cmp < 0) {
					x.arg, x.best, x.argRow = v.get(r), ord, row0+r
				}
			}
			st.count++
		}
	}
	return nil
}

// distinctSkips marks the rows whose value of v their group (gids) already
// saw: COUNT(DISTINCT) and friends dedupe (group, value) pairs through the
// same key table as GROUP BY. (Aggregates skip NULL values anyway.)
func distinctSkips(gids []int32, v vec) []bool {
	n := len(gids)
	g := make([]int64, n)
	for i, id := range gids {
		g[i] = int64(id)
	}
	keys := []vec{{col: &Column{Type: TInt, Ints: g}}, v}
	ids := make([]int32, n)
	newKeyTable(keys).number(keys, 0, n, ids)
	skip := make([]bool, n)
	seen := int32(0)
	for r, id := range ids {
		skip[r] = id < seen
		if id == seen {
			seen++
		}
	}
	return skip
}

// merge folds group og of another partial into group g. Partials are
// merged in ascending chunk order (see execAgg), so float partial sums
// accumulate deterministically and argmax/argmin ties resolve to the
// lowest contributing row via argRow — matching the serial scan. DISTINCT
// aggregates never reach merge: per-partial distinct sets would double
// count, so they force the serial path.
func (s *aggStates) merge(g int, o *aggStates, og int) error {
	st, ost := &s.st[g], &o.st[og]
	if kind := s.call.kind; s.ext != nil && ost.count > 0 {
		x, ox := &s.ext[g], &o.ext[og]
		switch {
		case st.count == 0:
			*x = *ox
		case kind == "min" || kind == "max":
			c, err := Compare(ox.best, x.best)
			if err != nil {
				return err
			}
			if (kind == "min" && c < 0) || (kind == "max" && c > 0) {
				x.best = ox.best
			}
		default:
			c, err := Compare(ox.best, x.best)
			if err != nil {
				return err
			}
			if (kind == "argmax" && c > 0) || (kind == "argmin" && c < 0) ||
				(c == 0 && ox.argRow < x.argRow) {
				*x = *ox
			}
		}
	}
	st.count += ost.count
	st.sum += ost.sum
	st.sumSq += ost.sumSq
	st.intSum += ost.intSum
	st.sawFloat = st.sawFloat || ost.sawFloat
	return nil
}

// result is the aggregate's value for group g.
func (s *aggStates) result(g int) Datum {
	st := &s.st[g]
	switch kind := s.call.kind; kind {
	case "argmax", "argmin":
		if st.count == 0 {
			return Null()
		}
		return s.ext[g].arg
	case "count":
		return Int(st.count)
	case "sum":
		if st.count == 0 {
			return Null()
		}
		if !st.sawFloat {
			return Int(st.intSum)
		}
		return Float(st.sum)
	case "avg":
		if st.count == 0 {
			return Null()
		}
		return Float(st.sum / float64(st.count))
	case "min", "max":
		if st.count == 0 {
			return Null()
		}
		return s.ext[g].best
	case "varsamp", "stddevsamp":
		if st.count < 2 {
			return Float(0)
		}
		n := float64(st.count)
		v := (st.sumSq - st.sum*st.sum/n) / (n - 1)
		if v < 0 {
			v = 0 // guard numeric noise
		}
		if kind == "stddevsamp" {
			return Float(math.Sqrt(v))
		}
		return Float(v)
	case "varpop", "stddevpop":
		if st.count == 0 {
			return Null()
		}
		n := float64(st.count)
		v := (st.sumSq - st.sum*st.sum/n) / n
		if v < 0 {
			v = 0
		}
		if kind == "stddevpop" {
			return Float(math.Sqrt(v))
		}
		return Float(v)
	}
	return Null()
}

// column is the aggregate's values for groups 0 … n-1, typed as columnOf
// types them. COUNT, SUM and AVG are written typed straight from the
// states; the other kinds go value by value through result.
func (s *aggStates) column(n int) *Column {
	kind := s.call.kind
	if n == 0 || (kind != "count" && kind != "sum" && kind != "avg") {
		return columnOf(n, s.result)
	}
	st := s.st[:n]
	if kind == "count" {
		c := &Column{Type: TInt, Ints: make([]int64, n)}
		for g := range st {
			c.Ints[g] = st[g].count
		}
		return c
	}
	// A group without values is NULL; one Float value makes the column
	// Float, and Int sums are then converted.
	t := TNull
	var nulls []bool
	for g := range st {
		switch {
		case st[g].count == 0:
			if nulls == nil {
				nulls = make([]bool, n)
			}
			nulls[g] = true
		case kind == "avg" || st[g].sawFloat:
			t = TFloat
		case t == TNull:
			t = TInt
		}
	}
	c := &Column{Type: t, Nulls: nulls}
	switch t {
	case TInt:
		c.Ints = make([]int64, n)
		for g := range st {
			c.Ints[g] = st[g].intSum
		}
	case TFloat:
		c.Floats = make([]float64, n)
		for g := range st {
			switch x := &st[g]; {
			case x.count == 0:
			case kind == "avg":
				c.Floats[g] = x.sum / float64(x.count)
			case x.sawFloat:
				c.Floats[g] = x.sum
			default:
				c.Floats[g] = float64(x.intSum)
			}
		}
	}
	return c
}

// aggCall is one distinct aggregate invocation found in the SELECT items /
// HAVING clause.
type aggCall struct {
	repr     string
	kind     string
	distinct bool
	star     bool
	args     []Expr
}

// collectAggCalls walks an expression collecting aggregate invocations,
// deduplicated by textual representation.
func collectAggCalls(e Expr, seen map[string]*aggCall, out *[]*aggCall) {
	Walk(e, func(x Expr) bool {
		fc, ok := x.(*FuncCall)
		if !ok {
			return true
		}
		name := strings.ToLower(fc.Name)
		if !isAggregateName(name) {
			return true
		}
		repr := fc.String()
		if _, dup := seen[repr]; !dup {
			call := &aggCall{repr: repr, kind: name, distinct: fc.Distinct, star: fc.Star, args: fc.Args}
			seen[repr] = call
			*out = append(*out, call)
		}
		return false // don't descend into aggregate args
	})
}

// rewriteAggRefs replaces aggregate calls with references to the synthetic
// columns "$aggN" and group-by expressions with "$grpN" references, so item
// expressions can be evaluated over the aggregated intermediate result.
func rewriteAggRefs(e Expr, aggCols map[string]string, grpCols map[string]string) Expr {
	out, _ := Rewrite(e, func(x Expr) (Expr, error) { // never fails
		if name, ok := grpCols[x.String()]; ok {
			return &ColRef{Name: name}, nil
		}
		if fc, ok := x.(*FuncCall); ok && isAggregateName(strings.ToLower(fc.Name)) {
			if name, ok := aggCols[fc.String()]; ok {
				return &ColRef{Name: name}, nil
			}
		}
		return x, nil
	})
	return out
}

// aggPartial is the grouping of one chunk of input rows: the key table
// numbering its groups in first-seen order, with its own copy of each
// group's key, and, per aggregate call, one state per group.
type aggPartial struct {
	kt     *keyTable
	states []aggStates
}

// aggInput is the rows an aggregate reads: its child's Result or, when the
// child is a join, the join's match pairs, so the join's output is never
// materialised.
type aggInput struct {
	schema []OutCol
	res    *Result    // nil when the child is a join
	m      *joinMatch // nil unless the child is a join
	n      int
}

// execAggInput runs the aggregate's child. A join child runs under its own
// plan node: the span, the actuals and the memory charge of its build
// index stay the join's.
func (db *DB) execAggInput(a *LAgg, ec *execCtx) (*aggInput, error) {
	j, ok := a.Child.(*LJoin)
	if !ok {
		res, err := db.execPlan(a.Child, ec)
		if err != nil {
			return nil, err
		}
		return &aggInput{schema: res.Schema, res: res, n: res.NumRows()}, nil
	}
	in := &aggInput{schema: j.OutSchema()}
	err := db.node(j, ec, func() (int, error) {
		m, start, err := db.matchJoin(j, ec)
		if err != nil {
			return 0, err
		}
		in.m, in.n = m, m.n
		ec.profAdd(start)
		return in.n, nil
	})
	if err != nil {
		return nil, err
	}
	return in, nil
}

// blockBytes is the memory one reader of the input's blocks holds for
// the columns at positions cols: over a join, a pair block and a gather
// buffer per column.
func (in *aggInput) blockBytes(cols []int) int64 {
	if in.m == nil {
		return 0
	}
	return pairBlockBytes + int64(8*hashBlock*len(cols))
}

// blocks calls fn with input rows [lo, hi) a block of at most hashBlock
// rows at a time, in order: start is the block's first row and b holds
// its columns at positions cols, as slices of the child's columns or
// gathered from the join's inputs at the block's pairs into column
// buffers every block reuses. The other positions of b are nil.
func (in *aggInput) blocks(lo, hi int, cols []int, fn func(start int, b *Result) error) error {
	b := &Result{Schema: in.schema, Cols: make([]*Column, len(in.schema))}
	for _, ci := range cols {
		b.Cols[ci] = &Column{}
	}
	m := in.m
	if m == nil {
		for start := lo; start < hi; start += hashBlock {
			end := min(start+hashBlock, hi)
			for _, ci := range cols {
				in.res.Cols[ci].sliceInto(b.Cols[ci], start, end)
			}
			b.rows = end - start
			if err := fn(start, b); err != nil {
				return err
			}
		}
		return nil
	}
	nl := len(m.left.Cols)
	return newPairBlock(hi-lo, func(off int, l, r []int32) error {
		for _, ci := range cols {
			if ci < nl {
				gatherInto(b.Cols[ci], m.left.Cols[ci], l)
			} else {
				gatherInto(b.Cols[ci], m.right.Cols[ci-nl], r)
			}
		}
		b.rows = len(l)
		return fn(off, b)
	}).emit(m.src, lo, hi)
}

// fusedAgg is the factorised form of an aggregate over a hash join's match
// pairs (Bakibayev, Olteanu and Závodný, "Aggregation and Ordering in
// Factorised Databases", VLDB 2013). Every GROUP BY part is a NULL-free
// Int column of one join side, so a pair's slot in a dense window over the
// parts is the sum of its two rows' partial slots, computed once per side
// row. Every aggregate is COUNT(*), or SUM of a NULL-free Float column or
// of the product of one such column per side, read straight from the side
// columns. The aggregate walks the join's hash chains itself (walk): a
// pair costs one slot lookup and an add per aggregate, and no pair is
// written anywhere. A plain input of the same shape is read a run of rows
// with equal keys at a time (runs), in a window grown as its keys arrive.
type fusedAgg struct {
	hp    *hashPairs // nil for a plain input
	parts []fusedCol // per GROUP BY part
	sums  [][2][]float64
	// Over a join: the dense window over the GROUP BY parts, the slots it
	// spans and, per left and per right row, its partial slot.
	win       []window
	size      uint64
	slots     [2]*[]uint32
	slotBytes int64
	// Over a plain input: the GROUP BY parts as key vectors and as Ints.
	keys []vec
	ints [][]int64
}

// fusedCol is a column of the join's left (side 0) or right (side 1) input.
type fusedCol struct {
	col  *Column
	side int
}

// slotBufs recycles the per-side slot arrays of factorised aggregates.
var slotBufs = sync.Pool{New: func() any { return new([]uint32) }}

// aggStateBytes is the memory one group's state of one aggregate holds.
const aggStateBytes = int64(unsafe.Sizeof(aggState{}))

// factorise returns the factorised form of aggregate a with calls over in,
// or nil when in is a padded outer join, a symmetric or a cross join, a
// GROUP BY part or an aggregate falls outside the factorised shapes, or,
// over a join, the window would pass the dense cap of the input's rows.
// sums holds per call its Float operand on each side, nil for a side
// without one; COUNT(*) has none.
func factorise(a *LAgg, calls []*aggCall, in *aggInput) *fusedAgg {
	f := &fusedAgg{parts: make([]fusedCol, len(a.GroupBy)), sums: make([][2][]float64, len(calls))}
	m := in.m
	if m == nil {
		m = &joinMatch{left: in.res, right: &Result{rows: 1}}
	} else if hp, ok := m.src.(*hashPairs); ok && !m.padded {
		f.hp = hp
	} else {
		return nil
	}
	column := func(e Expr, t Type) (fusedCol, bool) {
		c, ok := e.(*ColRef)
		if !ok {
			return fusedCol{}, false
		}
		i, err := resolveCol(c, in.schema)
		if err != nil {
			return fusedCol{}, false
		}
		f := fusedCol{}
		if nl := len(m.left.Cols); i < nl {
			f.col = m.left.Cols[i]
		} else {
			f.col, f.side = m.right.Cols[i-nl], 1
		}
		return f, f.col != nil && f.col.Type == t && f.col.Nulls == nil
	}
	for k, g := range a.GroupBy {
		p, ok := column(g, TInt)
		if !ok {
			return nil
		}
		f.parts[k] = p
	}
	for i, c := range calls {
		if c.distinct || (!c.star && c.kind != "sum") {
			return nil
		}
		if c.star {
			continue
		}
		ops := c.args
		if b, ok := ops[0].(*BinExpr); ok && b.Op == "*" {
			ops = []Expr{b.L, b.R}
		}
		for _, e := range ops {
			p, ok := column(e, TFloat)
			if !ok || f.sums[i][p.side] != nil {
				return nil
			}
			f.sums[i][p.side] = p.col.Floats
		}
	}
	if f.hp == nil {
		f.keys, f.ints = make([]vec, len(f.parts)), make([][]int64, len(f.parts))
		for k, p := range f.parts {
			f.keys[k], f.ints[k] = vec{col: p.col}, p.col.Ints
		}
		return f
	}
	limit, size := uint64(min(denseCap(in.n), math.MaxInt32)), uint64(1)
	f.win = make([]window, len(f.parts))
	for k, p := range f.parts {
		ints := p.col.Ints
		w := widen(nil, [][]int64{ints}, 0, len(ints), limit/size)
		if w == nil {
			return nil
		}
		f.win[k], size = w[0], size*w[0].span
	}
	f.size = setStrides(f.win)
	for s, res := range []*Result{m.left, m.right} {
		buf := slotBufs.Get().(*[]uint32)
		*buf = resize(*buf, res.NumRows())
		clear(*buf)
		f.slots[s], f.slotBytes = buf, f.slotBytes+int64(4*len(*buf))
	}
	for k, p := range f.parts {
		w, ps := f.win[k], *f.slots[p.side]
		for i, v := range p.col.Ints[:len(ps)] {
			ps[i] += uint32((uint64(v) - uint64(w.lo)) * w.stride)
		}
	}
	return f
}

// release returns the slot arrays to their pool.
func (f *fusedAgg) release() {
	for _, b := range f.slots {
		if b != nil {
			slotBufs.Put(b)
		}
	}
}

// groupsIn is the most groups a chunk of n pairs of a join can have.
func (f *fusedAgg) groupsIn(n int) int { return int(min(f.size, uint64(n))) }

// bytes is the memory the aggregate over a join holds with readers readers
// of chunks of up to chunk pairs: the side rows' slots and, per reader, its
// window and its groups' keys and states, sized for the most groups a
// chunk can have.
func (f *fusedAgg) bytes(readers, chunk, calls int) int64 {
	perGroup := 8*int64(len(f.parts)) + int64(calls)*aggStateBytes
	return f.slotBytes + int64(readers)*(4*int64(f.size)+int64(f.groupsIn(chunk))*perGroup)
}

// aggregate groups the pairs at output positions [lo, hi) exactly as the
// general path groups a chunk: pairs in output order, groups numbered in
// first-seen order in an owning key table that copies each new group's
// key, and each group's terms summed in pair order from +0. A term is
// rounded to float64 before it is added, so no fused multiply-add can
// change its bits.
func (f *fusedAgg) aggregate(ec *execCtx, calls []*aggCall, lo, hi int) (*aggPartial, error) {
	// Over a join, keys and states are sized for the most groups the chunk
	// can have, so neither grows; over a plain input, whose window is not
	// known yet, runs grows them a block at a time.
	g := 0
	if f.hp != nil {
		g = f.groupsIn(hi - lo)
	}
	p := &aggPartial{kt: newIntKeyTable(len(f.parts), g), states: make([]aggStates, len(calls))}
	for c, call := range calls {
		p.states[c] = newAggStates(call, g)
	}
	var err error
	if f.hp == nil {
		err = f.runs(ec, p, lo, hi)
	} else {
		p.kt.win, p.kt.slots = f.win, make([]int32, f.size)
		err = f.walk(ec, p, lo, hi)
	}
	if err != nil {
		return nil, err
	}
	kt := p.kt
	kt.ints = intKeysInto(kt.intBuf, kt.keys)
	for c, call := range calls {
		s := &p.states[c]
		s.st = s.st[:kt.len()]
		if !call.star {
			for g := range s.st {
				s.st[g].sawFloat = true
			}
		}
	}
	return p, nil
}

// walk groups the pairs at output positions [lo, hi) of the hash join
// straight from its chains, in the order hashPairs.pairs hands them on:
// probe row ascending, then build chain ascending. A probe row's partial
// slot and operand are read once, and each chain link costs one slot
// lookup and, per aggregate, one add. One SUM of a product (DL2SQL's
// convolutions and full connections) has a loop of its own. A product's
// operands are multiplied probe side first, which gives the left-first
// product's bits: IEEE multiplication is commutative, and which operand's
// NaN a product carries on is the compiled instruction's choice either
// way. The query context is checked every hashBlock pairs.
func (f *fusedAgg) walk(ec *execCtx, p *aggPartial, lo, hi int) error {
	if lo >= hi {
		return nil
	}
	hp, kt := f.hp, p.kt
	probe := 0 // the probe input's side
	if hp.buildLeft {
		probe = 1
	}
	ps, bs := *f.slots[probe], *f.slots[1-probe]
	heads, next := hp.heads, hp.next
	pv, bv := make([][]float64, len(f.sums)), make([][]float64, len(f.sums))
	for c, ops := range f.sums {
		pv[c], bv[c] = ops[probe], ops[1-probe]
	}
	var st []aggState
	var v, w []float64
	product := len(f.sums) == 1 && pv[0] != nil && bv[0] != nil
	if product {
		st, v, w = p.states[0].st, pv[0], bv[0]
	}
	row, bi := hp.seek(lo)
	for pos := lo; pos < hi; {
		if err := ec.check(); err != nil {
			return err
		}
		for end := min(pos+hashBlock, hi); pos < end; {
			for bi < 0 { // rows without a match have no pairs
				row++
				bi = heads[row]
			}
			x0 := ps[row]
			if product {
				v := v[row]
				for ; bi >= 0 && pos < end; bi = next[bi] {
					x := x0 + bs[bi]
					id := kt.slots[x]
					if id == 0 {
						id = f.newGroup(kt, x, pairRows(probe, row, bi))
					}
					s := &st[id-1]
					s.count++
					s.sum += float64(v * w[bi])
					pos++
				}
				continue
			}
			for ; bi >= 0 && pos < end; bi = next[bi] {
				x := x0 + bs[bi]
				id := kt.slots[x]
				if id == 0 {
					id = f.newGroup(kt, x, pairRows(probe, row, bi))
				}
				for c := range f.sums {
					s := &p.states[c].st[id-1]
					s.count++
					switch v, w := pv[c], bv[c]; {
					case v != nil && w != nil:
						s.sum += float64(v[row] * w[bi])
					case v != nil:
						s.sum += v[row]
					case w != nil:
						s.sum += w[bi]
					}
				}
				pos++
			}
		}
	}
	return nil
}

// pairRows is a pair's left and right row, from its probe row, its build
// row and the probe input's side.
func pairRows(probe, row int, bi int32) (rows [2]int32) {
	rows[probe], rows[1-probe] = int32(row), bi
	return rows
}

// runs groups rows [lo, hi) of a plain input as walk groups pairs, but a
// run of consecutive rows with equal keys at a time, a block of at most
// hashBlock runs (and runBlockRows rows) at a time: one compare pass finds
// the block's runs (runHeads), each run's group is looked up once, at its
// head, and its values are summed in order in a register (sumRuns). A
// table that stores each group's rows together, as DL2SQL's pre-joined
// input does, so costs one lookup per group instead of one per row. The
// window starts empty; only run heads are checked against it, and a block
// with a head outside it grows it over the block's heads, as an owning
// keyTable's fit grows its window over a block's rows, so no pass over
// whole key columns sizes it. Once the window would pass the dense cap of
// the chunk's rows, the groups move to hashed addressing for good.
func (f *fusedAgg) runs(ec *execCtx, p *aggPartial, lo, hi int) error {
	kt, limit := p.kt, uint64(min(denseCap(hi-lo), math.MaxInt32))
	var heads [hashBlock + 1]int
	var ids [hashBlock]int32
	var slot [hashBlock]uint64
	hk := make([][]int64, len(f.ints)) // per part: the block's run heads' keys
	for k := range hk {
		hk[k] = make([]int64, min(hi-lo, hashBlock))
	}
	for b := lo; b < hi; {
		if err := ec.check(); err != nil {
			return err
		}
		n, e := runHeads(f.ints, b, min(b+runBlockRows, hi), &heads)
		heads[n] = e
		if !kt.hashed {
			for k, c := range f.ints {
				for r, h := range heads[:n] {
					hk[k][r] = c[h]
				}
			}
			if kt.slots == nil || !kt.addressHeads(hk, slot[:n]) {
				kt.ints = intKeysInto(kt.intBuf, kt.keys)
				if win := widen(kt.win, hk, 0, n, limit); win != nil {
					kt.layout(win)
					kt.addressHeads(hk, slot[:n])
				} else {
					kt.toHashed()
				}
			}
		}
		for k := range kt.keys { // room for the block's new groups
			c := kt.keys[k].col
			c.Ints = slices.Grow(c.Ints, n)
		}
		for r, h := range heads[:n] {
			if kt.hashed {
				var x [1]uint64
				hashVecs(f.keys, h, x[:], nil)
				ids[r] = kt.insertFrom(x[0], f.keys, f.ints, h)
				continue
			}
			id := kt.slots[slot[r]]
			if id == 0 {
				id = f.newGroup(kt, uint32(slot[r]), [2]int32{int32(h)})
			}
			ids[r] = id - 1
		}
		for c := range p.states {
			p.states[c].grow(kt.len())
		}
		f.sumRuns(p, heads[:n+1], ids[:n])
		b = e
	}
	return nil
}

// runBlockRows is the most rows one block of runs reads, so that long
// runs still meet a cancellation check every runBlockRows rows (under a
// tenth of a millisecond of compares).
const runBlockRows = hashBlock * hashBlock

// runHeads writes to heads the first row of each run of consecutive rows
// with equal keys of ints from row b on, up to hashBlock runs and up to
// row e, and returns the runs' number and the row after the last: one
// pass that holds a run's head key and compares the rows after it.
func runHeads(ints [][]int64, b, e int, heads *[hashBlock + 1]int) (n, end int) {
	i := b
	switch len(ints) {
	case 1:
		c := ints[0][:e]
		for ; i < e && n < hashBlock; n++ {
			heads[n] = i
			for v := c[i]; i < e && c[i] == v; i++ {
			}
		}
	case 2:
		c0, c1 := ints[0][:e], ints[1][:e]
		for ; i < e && n < hashBlock; n++ {
			heads[n] = i
			v0, v1 := c0[i], c1[i]
			// Four rows at a time while the run lasts, then row by row.
			for ; i+4 <= e; i += 4 {
				x, y := c0[i:i+4:i+4], c1[i:i+4:i+4]
				if (x[0]^v0)|(x[1]^v0)|(x[2]^v0)|(x[3]^v0)|(y[0]^v1)|(y[1]^v1)|(y[2]^v1)|(y[3]^v1) != 0 {
					break
				}
			}
			for ; i < e && c0[i] == v0 && c1[i] == v1; i++ {
			}
		}
	default:
		for ; i < e && n < hashBlock; n++ {
			heads[n] = i
			for h := i; i < e && sameKey(ints, h, i); i++ {
			}
		}
	}
	return n, i
}

// sameKey reports whether rows a and b of ints carry the same key.
func sameKey(ints [][]int64, a, b int) bool {
	for _, c := range ints {
		if c[a] != c[b] {
			return false
		}
	}
	return true
}

// addressHeads writes to slot the dense slot of each of the run heads'
// keys hk and reports whether all lie inside the window.
func (t *keyTable) addressHeads(hk [][]int64, slot []uint64) bool {
	clear(slot)
	for k, w := range t.win {
		for r, v := range hk[k][:len(slot)] {
			off := uint64(v) - uint64(w.lo)
			if off >= w.span {
				return false
			}
			slot[r] += off * w.stride
		}
	}
	return true
}

// sumRuns folds runs [heads[r], heads[r+1]) of a plain input into their
// groups ids[r]: each run's row count and, per SUM, its values added in
// order to the group's sum. Four consecutive runs of distinct groups are
// summed side by side, each in its own order, so that their additions
// overlap.
func (f *fusedAgg) sumRuns(p *aggPartial, heads []int, ids []int32) {
	for c, ops := range f.sums {
		st, v := p.states[c].st, ops[0]
		for r := 0; r < len(ids); {
			if v != nil && r+4 <= len(ids) && distinct4(ids[r:r+4]) {
				sum4(st, v, heads[r:r+5], ids[r:r+4])
				r += 4
				continue
			}
			s := &st[ids[r]]
			s.count += int64(heads[r+1] - heads[r])
			if v != nil {
				acc := s.sum
				for _, y := range v[heads[r]:heads[r+1]] {
					acc += y
				}
				s.sum = acc
			}
			r++
		}
	}
}

// distinct4 reports whether the four ids differ pairwise.
func distinct4(ids []int32) bool {
	a, b, c, d := ids[0], ids[1], ids[2], ids[3]
	return a != b && a != c && a != d && b != c && b != d && c != d
}

// sum4 adds four adjacent runs [heads[i], heads[i+1]) of v to the states
// of their distinct groups ids[i], each run in order: side by side while
// all four have values left, then each run's rest on its own.
func sum4(st []aggState, v []float64, heads []int, ids []int32) {
	v0, v1, v2, v3 := v[heads[0]:heads[1]], v[heads[1]:heads[2]], v[heads[2]:heads[3]], v[heads[3]:heads[4]]
	s0, s1, s2, s3 := &st[ids[0]], &st[ids[1]], &st[ids[2]], &st[ids[3]]
	a0, a1, a2, a3 := s0.sum, s1.sum, s2.sum, s3.sum
	n := min(len(v0), len(v1), len(v2), len(v3))
	v0, v1, v2, v3 = v0[:n:n], v1[:n], v2[:n], v3[:n]
	for i, y := range v0 {
		a0 += y
		a1 += v1[i]
		a2 += v2[i]
		a3 += v3[i]
	}
	v0, v1, v2, v3 = v[heads[0]+n:heads[1]], v[heads[1]+n:heads[2]], v[heads[2]+n:heads[3]], v[heads[3]+n:heads[4]]
	for _, y := range v0 {
		a0 += y
	}
	for _, y := range v1 {
		a1 += y
	}
	for _, y := range v2 {
		a2 += y
	}
	for _, y := range v3 {
		a3 += y
	}
	s0.sum, s1.sum, s2.sum, s3.sum = a0, a1, a2, a3
	s0.count += int64(heads[1] - heads[0])
	s1.count += int64(heads[2] - heads[1])
	s2.count += int64(heads[3] - heads[2])
	s3.count += int64(heads[4] - heads[3])
}

// newGroup numbers the group in dense slot x of kt, first seen at left row
// rows[0] beside right row rows[1], copying its key into kt.
func (f *fusedAgg) newGroup(kt *keyTable, x uint32, rows [2]int32) int32 {
	for k, p := range f.parts {
		c := kt.keys[k].col
		c.Ints = append(c.Ints, p.col.Ints[rows[p.side]])
	}
	kt.n++
	kt.slots[x] = int32(kt.n)
	return int32(kt.n)
}

// execAgg performs hash aggregation and evaluates the SELECT items over the
// per-group aggregate values.
func (db *DB) execAgg(a *LAgg, ec *execCtx) (*Result, error) {
	in, err := db.execAggInput(a, ec)
	if err != nil {
		return nil, err
	}
	start := time.Now()

	// Collect distinct aggregate calls.
	seen := map[string]*aggCall{}
	var calls []*aggCall
	for _, it := range a.Items {
		if !it.Star {
			collectAggCalls(it.Expr, seen, &calls)
		}
	}
	if a.Having != nil {
		collectAggCalls(a.Having, seen, &calls)
	}
	for _, c := range calls {
		if c.star {
			continue
		}
		if len(c.args) == 0 {
			return nil, fmt.Errorf("sqldb: aggregate %s needs an argument", c.kind)
		}
		want := 1
		if c.kind == "argmax" || c.kind == "argmin" {
			want = 2
		}
		if len(c.args) != want {
			return nil, fmt.Errorf("sqldb: aggregate %s expects %d arguments, got %d", c.kind, want, len(c.args))
		}
	}

	n := in.n
	deg := ec.parDegreeFor(n)
	var argExprs []Expr
	hasDistinct := false
	for _, c := range calls {
		if c.distinct {
			hasDistinct = true
			deg = 1 // per-partial distinct sets would double count
		}
		argExprs = append(argExprs, c.args...)
	}
	if deg > 1 && !db.exprsParallelSafe(a.GroupBy, argExprs) {
		deg = 1
	}
	schema := in.schema
	var cols []int // the input columns the group keys and arguments read
	for i, read := range readBy(readBy(make([]bool, len(schema)), schema, a.GroupBy...), schema, argExprs...) {
		if read {
			cols = append(cols, i)
		}
	}
	chunk, readers := n, 1
	if deg > 1 {
		chunk = max((n+deg-1)/deg, morselRows)
		readers = min(deg, (n+chunk-1)/chunk)
	}
	fused := factorise(a, calls, in)
	charge := int64(readers) * in.blockBytes(cols)
	if fused != nil && fused.hp != nil {
		defer fused.release()
		charge = fused.bytes(readers, chunk, len(calls))
	}
	if err := ec.chargeBytes(charge); err != nil {
		return nil, err
	}

	// Group rows. The serial path scans rows in order; the parallel path
	// splits the input into at most `deg` contiguous chunks that each
	// number their groups in first-seen order and accumulate independent
	// partial states (the per-worker partial aggregates of morsel-driven
	// engines), merged at the barrier in ascending chunk order so float
	// partial sums accumulate deterministically. Chunks are ascending row
	// ranges, so numbering the merged groups chunk by chunk reproduces the
	// serial first-seen group order exactly.
	//
	// A chunk runs one block of at most hashBlock rows at a time: it loads
	// the block's key and argument columns into buffers it reuses (over a
	// join, from the block's match pairs), evaluates the keys and the
	// arguments over them into buffers of their own, numbers the block's
	// groups — a new group's key is copied into the chunk's key table —
	// and folds the values into the group states, so no key or argument
	// vector over the whole input exists. A DISTINCT argument is kept for
	// its chunk, the dedupe's representative rows. A factorised aggregate
	// runs the same chunks, straight from the join's chains or the
	// table's runs (fusedAgg.aggregate).
	aggregateRange := func(lo, hi int) (*aggPartial, error) {
		if fused != nil {
			return fused.aggregate(ec, calls, lo, hi)
		}
		p := &aggPartial{kt: newOwnedKeyTable(len(a.GroupBy)), states: make([]aggStates, len(calls))}
		keyX := make([]vecExpr, len(a.GroupBy))
		for i, g := range a.GroupBy {
			x, err := db.compileOp(ec, g, schema, true)
			if err != nil {
				return nil, err
			}
			keyX[i] = x
		}
		argX := make([][]vecExpr, len(calls))
		for i, c := range calls {
			p.states[i] = newAggStates(c, 0)
			if c.star {
				continue
			}
			argX[i] = make([]vecExpr, len(c.args))
			for j, e := range c.args {
				x, err := db.compileOp(ec, e, schema, !c.distinct)
				if err != nil {
					return nil, err
				}
				argX[i][j] = x
			}
		}
		// Group ids live for a block, but for the chunk when a DISTINCT
		// aggregate dedupes it.
		gids := make([]int32, min(hi-lo, hashBlock))
		if hasDistinct {
			gids = make([]int32, hi-lo)
		}
		keys := make([]vec, len(keyX))
		args := make([]vec, 2)
		distinct := make([][]vec, len(calls))
		if err := in.blocks(lo, hi, cols, func(start int, blk *Result) error {
			// Cancellation point: chunks can exceed morselRows (and the
			// serial path is one full-range chunk), so the row loop checks
			// the query context every block of rows.
			if err := ec.check(); err != nil {
				return err
			}
			k := blk.rows
			g := gids[:k]
			if hasDistinct {
				g = gids[start-lo:][:k]
			}
			// A global aggregate's key has no part: its one group is id 0.
			for i, x := range keyX {
				v, err := x.eval(blk, sel{hi: k})
				if err != nil {
					return err
				}
				keys[i] = v
			}
			p.kt.number(keys, 0, k, g)
			for i, c := range calls {
				args := args[:len(argX[i])]
				for j, x := range argX[i] {
					v, err := x.eval(blk, sel{hi: k})
					if err != nil {
						return err
					}
					args[j] = v
				}
				if c.distinct && !c.star {
					distinct[i] = append(distinct[i], args[0].clone())
					continue
				}
				p.states[i].grow(p.kt.len())
				if err := p.states[i].accumulate(g, args, start, nil); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		for i := range calls {
			p.states[i].grow(p.kt.len())
			if distinct[i] != nil {
				v := concatVecs(distinct[i], hi-lo)
				if err := p.states[i].accumulate(gids, []vec{v}, lo, distinctSkips(gids, v)); err != nil {
					return nil, err
				}
			}
		}
		return p, nil
	}

	partials := []*aggPartial{nil} // per chunk; one for the serial path
	if deg <= 1 {
		if partials[0], err = aggregateRange(0, n); err != nil {
			return nil, err
		}
	} else {
		partials = make([]*aggPartial, (n+chunk-1)/chunk)
		stats, err := par.RunErrCtx(ec.ctx, deg, n, chunk, func(_, lo, hi int) error {
			p, err := aggregateRange(lo, hi)
			partials[lo/chunk] = p
			return err
		})
		if err != nil {
			return nil, err
		}
		db.notePar(ec, stats)
	}
	if fused != nil && fused.hp == nil {
		// A factorised plain input's windows grow as its runs are read,
		// so they are charged once read.
		var bytes int64
		for _, p := range partials {
			bytes += p.kt.bytes()
		}
		if err := ec.chargeBytes(bytes); err != nil {
			return nil, err
		}
	}
	// The first chunk's groups are the base; later chunks' groups merge
	// into them by key or append in their first-seen order.
	groups := partials[0]
	for _, p := range partials[1:] {
		mids := make([]int32, p.kt.len())
		next := int32(groups.kt.len())
		groups.kt.number(p.kt.keys, 0, len(mids), mids)
		for id, mid := range mids {
			added := mid == next
			if added {
				next++
			}
			for i := range groups.states {
				if added {
					groups.states[i].appendFrom(&p.states[i], id)
				} else if err := groups.states[i].merge(int(mid), &p.states[i], id); err != nil {
					return nil, err
				}
			}
		}
	}
	nGroups := groups.kt.len()
	// Global aggregation over empty input still yields one group.
	if len(a.GroupBy) == 0 && nGroups == 0 {
		for i, c := range calls {
			groups.states[i] = newAggStates(c, 1)
		}
		nGroups = 1
	}

	// Build intermediate result: $grpN columns (each group's first-seen key
	// values) then $aggN columns.
	grpCols := map[string]string{}
	aggCols := map[string]string{}
	inter := &Result{}
	for i, g := range a.GroupBy {
		name := fmt.Sprintf("$grp%d", i)
		grpCols[g.String()] = name
		col := groups.kt.keyColumn(i)
		inter.Schema = append(inter.Schema, OutCol{Name: name, Type: col.Type})
		inter.Cols = append(inter.Cols, col)
	}
	for i, c := range calls {
		name := fmt.Sprintf("$agg%d", i)
		aggCols[c.repr] = name
		col := groups.states[i].column(nGroups)
		inter.Schema = append(inter.Schema, OutCol{Name: name, Type: col.Type})
		inter.Cols = append(inter.Cols, col)
	}

	// Evaluate HAVING over the intermediate result.
	if a.Having != nil {
		hav := rewriteAggRefs(a.Having, aggCols, grpCols)
		filtered, err := db.execFilter(inter, []Expr{hav}, ec, nil)
		if err != nil {
			return nil, err
		}
		inter = filtered
	}

	// Evaluate SELECT items.
	out := &Result{}
	rows := inter.NumRows()
	for _, it := range a.Items {
		if it.Star {
			return nil, fmt.Errorf("sqldb: SELECT * is not valid with GROUP BY")
		}
		name := it.Alias
		if name == "" {
			if cr, ok := it.Expr.(*ColRef); ok {
				name = cr.Name
			} else {
				name = it.Expr.String()
			}
		}
		rewritten := rewriteAggRefs(it.Expr, aggCols, grpCols)
		// A bare column that isn't a group key or aggregate is invalid SQL;
		// we resolve it against the group keys by name as a convenience
		// (matches ClickHouse's leniency for functionally-dependent keys).
		x, err := db.compileOp(ec, rewritten, inter.Schema, false)
		if err != nil {
			if cr, ok := it.Expr.(*ColRef); ok {
				// try matching a group-by expression that is a ColRef with
				// the same name
				for gi, g := range a.GroupBy {
					if gcr, ok := g.(*ColRef); ok && strings.EqualFold(gcr.Name, cr.Name) {
						x, err = db.compileOp(ec, &ColRef{Name: fmt.Sprintf("$grp%d", gi)}, inter.Schema, false)
						break
					}
				}
			}
			if err != nil {
				return nil, err
			}
		}
		v, err := x.eval(inter, sel{hi: rows})
		if err != nil {
			return nil, err
		}
		var col *Column
		if v.col != nil {
			col = settleType(v.col)
		} else {
			col = columnFromData(v.ds)
		}
		out.Cols = append(out.Cols, col)
		out.Schema = append(out.Schema, OutCol{Name: name, Type: col.Type})
	}
	ec.profAdd(start)
	return out, nil
}

// settleType returns c, or an all-NULL TNull column of c's length when c
// holds no non-NULL value: the type a row-at-a-time build of the same
// values infers (the first non-NULL value's type, NULL when there is none).
func settleType(c *Column) *Column {
	n := c.Len()
	if c.Type == TNull {
		return c
	}
	if c.Nulls == nil && n > 0 {
		return c
	}
	for i := 0; i < n; i++ {
		if !c.Nulls[i] {
			return c
		}
	}
	return &Column{Type: TNull, Nulls: trues(n)}
}

// columnFromData builds a column from a datum slice, inferring the type
// from the first non-null value.
func columnFromData(data []Datum) *Column {
	return columnOf(len(data), func(i int) Datum { return data[i] })
}

// columnOf builds a column of n values, typed by the first non-null value
// with mixed Int/Float promoted to Float.
func columnOf(n int, at func(int) Datum) *Column {
	t := TNull
	for i := 0; i < n; i++ {
		if d := at(i); !d.IsNull() {
			t = d.T
			break
		}
	}
	if t == TInt {
		for i := 0; i < n; i++ {
			if at(i).T == TFloat {
				t = TFloat
				break
			}
		}
	}
	col := NewColumn(t)
	for i := 0; i < n; i++ {
		_ = col.Append(at(i))
	}
	return col
}
