package sqldb

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/obs"
)

// Vector evaluation: the engine's one expression evaluator. compileVec
// turns an expression into a tree of kernels over a selection of input
// rows — a dense row range or a list of row indices — each producing one
// value per selected row. A column reference over a range is a zero-copy
// slice of its column; a literal is broadcast, or, as an operand of a
// kernel, one value that every position reads. Arithmetic and comparisons
// run as typed loops with arith's and Compare's rules, and so does a CASE
// of one WHEN whose THEN and ELSE are column references or literals; the
// rest (function calls, other CASEs, IN, BETWEEN, NOT, unary minus, % and
// ||) compute value by value. Conditional parts run only on the rows that
// reach them: the right operand of AND and OR on the rows the left operand
// leaves undecided, each WHEN on the rows no earlier WHEN took, each THEN
// on the rows its WHEN took (column references and literals, which cannot
// fail, excepted). A registered UDF is called once per batch of at most
// udfBatchRows of the rows that reach it, and each batch is counted where
// it is made. In filter position comparisons, AND and IS NULL narrow the
// selection directly.

// udfBatchRows bounds the calls one ScalarUDF.Fn invocation receives, and
// with them the argument and result datums alive per batch.
const udfBatchRows = 256

// sel selects the input rows an evaluation covers: the ascending row
// indices idx, or the dense range [lo, hi) when idx is nil.
type sel struct {
	lo, hi int
	idx    []int
}

func (s sel) len() int {
	if s.idx != nil {
		return len(s.idx)
	}
	return s.hi - s.lo
}

// row returns the input row at position i of the selection.
func (s sel) row(i int) int {
	if s.idx != nil {
		return s.idx[i]
	}
	return s.lo + i
}

// pick returns the rows of s at the ascending positions pos.
func (s sel) pick(pos []int) sel {
	if len(pos) == s.len() {
		return s
	}
	idx := make([]int, len(pos))
	for i, p := range pos {
		idx[i] = s.row(p)
	}
	return sel{idx: idx}
}

// keepBuf returns an empty list for the rows of s a filter keeps: s's own
// index array, which a filter may overwrite, or a fresh one.
func (s sel) keepBuf() []int {
	if s.idx != nil {
		return s.idx[:0]
	}
	return make([]int, 0, s.len()/4+1)
}

// addRow appends row to keep, a list of rows of s: a fresh list grows by
// doubling, up to the selection's size, where append would take smaller
// steps.
func (s sel) addRow(keep []int, row int) []int {
	if len(keep) == cap(keep) {
		keep = slices.Grow(keep, min(cap(keep), s.len()-len(keep)))
	}
	return append(keep, row)
}

// vec holds one expression's values over a selection: a typed column, or —
// when a value-by-value kernel yields values of more than one type — the
// datums themselves.
type vec struct {
	col *Column
	ds  []Datum
}

func (v vec) len() int {
	if v.col != nil {
		return v.col.Len()
	}
	return len(v.ds)
}

func (v vec) get(i int) Datum {
	if v.col != nil {
		return v.col.Get(i)
	}
	return v.ds[i]
}

// clone copies the vector's values into storage of its own.
func (v vec) clone() vec {
	if v.col == nil {
		return vec{ds: slices.Clone(v.ds)}
	}
	c := NewColumn(v.col.Type)
	c.appendFrom(v.col)
	return vec{col: c}
}

func (v vec) isNull(i int) bool {
	if v.col != nil {
		return v.col.Type == TNull || (v.col.Nulls != nil && v.col.Nulls[i])
	}
	return v.ds[i].IsNull()
}

// truth reads value i as a SQL boolean, as Datum.AsBool does: ok is false
// for NULL and for values that are not boolean or numeric.
func (v vec) truth(i int) (b, ok bool) {
	c := v.col
	if c == nil {
		return v.ds[i].AsBool()
	}
	if c.Type == TNull || (c.Nulls != nil && c.Nulls[i]) {
		return false, false
	}
	switch c.Type {
	case TBool:
		return c.Bools[i], true
	case TInt:
		return c.Ints[i] != 0, true
	case TFloat:
		return c.Floats[i] != 0, true
	}
	return false, false
}

// kernel is one compiled expression node.
type kernel interface {
	// eval returns the node's values at the rows s selects.
	eval(in *Result, s sel) (vec, error)
}

// narrower is a kernel with a form for filter position: keep returns the
// rows of s where the node is TRUE, in order, without building its values.
// It may overwrite s.idx.
type narrower interface {
	kernel
	keep(in *Result, s sel) ([]int, error)
}

// keepRows returns the rows of s where k is TRUE, in order: narrowed
// directly when k is a narrower, read from its values otherwise. It may
// overwrite s.idx.
func keepRows(k kernel, in *Result, s sel) ([]int, error) {
	if n, ok := k.(narrower); ok {
		return n.keep(in, s)
	}
	v, err := k.eval(in, s)
	if err != nil {
		return nil, err
	}
	return keepTrue(v, s), nil
}

// keepTrue returns the rows of s whose value in v is TRUE. It may
// overwrite s.idx.
func keepTrue(v vec, s sel) []int {
	keep := s.keepBuf()
	for i, n := 0, s.len(); i < n; i++ {
		if b, ok := v.truth(i); ok && b {
			keep = s.addRow(keep, s.row(i))
		}
	}
	return keep
}

// vecExpr is a compiled expression.
type vecExpr struct {
	k kernel
	// byMorsel reports that part of the expression computes value by value
	// (and may call UDFs), so evalVecs runs it a morsel at a time — in
	// parallel when the operator runs parallel, observing cancellation at
	// every morsel. Typed kernels take one call over the input.
	byMorsel bool
}

func (x vecExpr) eval(in *Result, s sel) (vec, error) { return x.k.eval(in, s) }

func (x vecExpr) keep(in *Result, s sel) ([]int, error) { return keepRows(x.k, in, s) }

// compileVec binds an expression to a schema; ctx is the statement's
// context, which every UDF call receives and whose accounting counts the
// calls.
func (db *DB) compileVec(ctx context.Context, e Expr, schema []OutCol) (vecExpr, error) {
	return db.compileVecBuf(ctx, nil, e, schema, false)
}

// compileOp compiles an expression that the running operator of ec
// evaluates: a UDF the expression calls gets the operator's span on its
// context, so the spans the UDF opens nest under the operator.
func (db *DB) compileOp(ec *execCtx, e Expr, schema []OutCol, reuse bool) (vecExpr, error) {
	return db.compileVecBuf(ec.ctx, ec.span, e, schema, reuse)
}

// compileVecBuf is compileVec with the UDFs' parent span (nil: the one on
// ctx); with reuse set, literal and arithmetic nodes keep their result in a
// buffer of their own that every evaluation overwrites, so the compiled
// expression serves one goroutine and a result is valid until its next
// evaluation.
func (db *DB) compileVecBuf(ctx context.Context, span *obs.Span, e Expr, schema []OutCol, reuse bool) (vecExpr, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c := vecCompiler{db: db, ctx: ctx, span: span, acct: acctFrom(ctx), schema: schema, reuse: reuse}
	k, err := c.compile(e)
	return vecExpr{k: k, byMorsel: c.byMorsel}, err
}

// vecCompiler carries what every node of one compilation shares.
type vecCompiler struct {
	db       *DB
	ctx      context.Context
	span     *obs.Span // the evaluating operator's, nil untraced
	acct     *queryAcct
	schema   []OutCol
	reuse    bool
	byMorsel bool // a node computes value by value
}

func (c *vecCompiler) compile(e Expr) (kernel, error) {
	switch t := e.(type) {
	case *ColRef:
		ci, err := resolveCol(t, c.schema)
		return colRef(ci), err
	case *Lit:
		return newLit(t.Val, c.reuse), nil
	case *Param:
		return nil, fmt.Errorf("sqldb: unbound parameter ?%d — execute through Prepare and bind arguments", t.Idx+1)
	case *SubqueryExpr:
		return nil, fmt.Errorf("sqldb: internal: scalar subquery not resolved before compilation")
	case *UnaryExpr:
		sub, err := c.compile(t.E)
		if err != nil {
			return nil, err
		}
		c.byMorsel = true
		switch t.Op {
		case "not":
			return &mapNode{sub: sub, f: notDatum}, nil
		case "-":
			return &mapNode{sub: sub, f: negDatum}, nil
		}
		return nil, fmt.Errorf("sqldb: unknown unary op %q", t.Op)
	case *BinExpr:
		if t.Op == "and" || t.Op == "or" {
			l, err := c.compile(t.L)
			if err != nil {
				return nil, err
			}
			r, err := c.compile(t.R)
			return &logicNode{or: t.Op == "or", l: l, r: r}, err
		}
		l, err := c.operand(t.L)
		if err != nil {
			return nil, err
		}
		r, err := c.operand(t.R)
		if err != nil {
			return nil, err
		}
		switch t.Op {
		case "=", "!=", "<", "<=", ">", ">=":
			return &cmpNode{mask: cmpMasks[t.Op], l: l, r: r}, nil
		case "+", "-", "*", "/":
			k := &arithNode{op: t.Op, l: l, r: r}
			if c.reuse {
				k.buf = &Column{}
			}
			return k, nil
		case "%", "||":
			c.byMorsel = true
			return &binNode{op: t.Op, l: l, r: r}, nil
		}
		return nil, fmt.Errorf("sqldb: unknown binary op %q", t.Op)
	case *FuncCall:
		return c.call(t)
	case *CaseExpr:
		k := &caseNode{}
		for _, w := range t.Whens {
			cond, err := c.compile(w.Cond)
			if err != nil {
				return nil, err
			}
			then, err := c.compile(w.Then)
			if err != nil {
				return nil, err
			}
			k.whens = append(k.whens, [2]kernel{cond, then})
		}
		if t.Else != nil {
			var err error
			if k.els, err = c.compile(t.Else); err != nil {
				return nil, err
			}
		}
		// One WHEN over leaves runs as a typed kernel, in one call unless
		// its WHEN computes value by value.
		if len(k.whens) == 1 && isLeaf(k.whens[0][1]) && (k.els == nil || isLeaf(k.els)) {
			els := k.els
			if els == nil {
				els = newLit(Null(), false)
			}
			k.pick = []operand{operandOf(k.whens[0][1]), operandOf(els)}
		} else {
			c.byMorsel = true
		}
		return k, nil
	case *InExpr:
		sub, err := c.compile(t.E)
		if err != nil {
			return nil, err
		}
		items, err := c.operands(t.List)
		c.byMorsel = true
		return &inNode{sub: sub, items: items, not: t.Not}, err
	case *BetweenExpr:
		sub, err := c.compile(t.E)
		if err != nil {
			return nil, err
		}
		bounds, err := c.operands([]Expr{t.Lo, t.Hi})
		if err != nil {
			return nil, err
		}
		c.byMorsel = true
		return &betweenNode{sub: sub, lo: bounds[0], hi: bounds[1], not: t.Not}, nil
	case *IsNullExpr:
		sub, err := c.compile(t.E)
		return &isNullNode{sub: sub, not: t.Not}, err
	}
	return nil, fmt.Errorf("sqldb: cannot compile expression %T", e)
}

// operand is a kernel's compiled operand: a literal is one value that every
// position reads (stride 0), anything else is evaluated over the selection.
type operand struct {
	k   kernel
	lit *Column
}

func (c *vecCompiler) operand(e Expr) (operand, error) {
	k, err := c.compile(e)
	return operandOf(k), err
}

func operandOf(k kernel) operand {
	if l, ok := k.(*lit); ok {
		return operand{k: k, lit: &l.one}
	}
	return operand{k: k}
}

func (c *vecCompiler) operands(es []Expr) ([]operand, error) {
	out := make([]operand, len(es))
	for i, e := range es {
		o, err := c.operand(e)
		if err != nil {
			return nil, err
		}
		out[i] = o
	}
	return out, nil
}

// at returns the operand's values over s and the stride to read them with.
func (o operand) at(in *Result, s sel) (vec, int, error) {
	if o.lit != nil {
		return vec{col: o.lit}, 0, nil
	}
	v, err := o.k.eval(in, s)
	return v, 1, err
}

// colRef is a column reference: the input column's position.
type colRef int

func (k colRef) eval(in *Result, s sel) (vec, error) {
	if s.idx != nil {
		return vec{col: in.Cols[k].Gather(s.idx)}, nil
	}
	return vec{col: in.Cols[k].slice(s.lo, s.hi)}, nil
}

// lit is a literal. one is its value as a one-row column over the arrays
// below, so that a literal takes one allocation.
type lit struct {
	one   Column
	buf   *Column // with reuse, the last broadcast, kept for the next
	reuse bool
	i     [1]int64
	f     [1]float64
	s     [1]string
	b     [1]bool
	bl    [1][]byte
}

func newLit(v Datum, reuse bool) *lit {
	k := &lit{reuse: reuse}
	k.one.Type = v.T
	switch v.T {
	case TNull:
		k.b[0] = true
		k.one.Nulls = k.b[:]
	case TInt:
		k.i[0], k.one.Ints = v.I, k.i[:]
	case TFloat:
		k.f[0], k.one.Floats = v.F, k.f[:]
	case TString:
		k.s[0], k.one.Strs = v.S, k.s[:]
	case TBool:
		k.b[0], k.one.Bools = v.I != 0, k.b[:]
	case TBlob:
		k.bl[0], k.one.Blobs = v.B, k.bl[:]
	}
	return k
}

func (k *lit) eval(_ *Result, s sel) (vec, error) {
	n := s.len()
	if !k.reuse {
		return vec{col: broadcast(k.one.Get(0), n)}, nil
	}
	if k.buf == nil || k.buf.Len() != n {
		k.buf = broadcast(k.one.Get(0), n)
	}
	return vec{col: k.buf}, nil
}

func boolColumn(n int) *Column { return &Column{Type: TBool, Bools: make([]bool, n)} }

// setNull marks row i of a column built by a kernel NULL.
func (c *Column) setNull(i int) {
	c.ensureNulls()
	c.Nulls[i] = true
}

// isNullNode is IS [NOT] NULL.
type isNullNode struct {
	sub kernel
	not bool
}

func (k *isNullNode) eval(in *Result, s sel) (vec, error) {
	v, err := k.sub.eval(in, s)
	if err != nil {
		return vec{}, err
	}
	out := boolColumn(s.len())
	for i := range out.Bools {
		out.Bools[i] = v.isNull(i) != k.not
	}
	return vec{col: out}, nil
}

func (k *isNullNode) keep(in *Result, s sel) ([]int, error) {
	v, err := k.sub.eval(in, s)
	if err != nil {
		return nil, err
	}
	keep := s.keepBuf()
	for i, n := 0, s.len(); i < n; i++ {
		if v.isNull(i) != k.not {
			keep = s.addRow(keep, s.row(i))
		}
	}
	return keep, nil
}

// mapNode applies a function of one value to each value of its operand:
// NOT and unary minus.
type mapNode struct {
	sub kernel
	f   func(Datum) (Datum, error)
}

func (k *mapNode) eval(in *Result, s sel) (vec, error) {
	v, err := k.sub.eval(in, s)
	if err != nil {
		return vec{}, err
	}
	out := make([]Datum, v.len())
	for i := range out {
		if out[i], err = k.f(v.get(i)); err != nil {
			return vec{}, err
		}
	}
	return vecOf(out), nil
}

func notDatum(d Datum) (Datum, error) {
	if d.IsNull() {
		return Null(), nil
	}
	b, ok := d.AsBool()
	if !ok {
		return Null(), fmt.Errorf("sqldb: NOT applied to %s", d.T)
	}
	return Bool(!b), nil
}

func negDatum(d Datum) (Datum, error) {
	switch d.T {
	case TNull:
		return d, nil
	case TInt:
		return Int(-d.I), nil
	case TFloat:
		return Float(-d.F), nil
	}
	return Null(), fmt.Errorf("sqldb: unary minus applied to %s", d.T)
}

// binNode is % or ||, value by value.
type binNode struct {
	op   string
	l, r operand
}

func (k *binNode) eval(in *Result, s sel) (vec, error) {
	lv, ls, err := k.l.at(in, s)
	if err != nil {
		return vec{}, err
	}
	rv, rs, err := k.r.at(in, s)
	if err != nil {
		return vec{}, err
	}
	out := make([]Datum, s.len())
	for i := range out {
		a, b := lv.get(i*ls), rv.get(i*rs)
		switch {
		case k.op == "%":
			out[i], err = arith("%", a, b)
		case !a.IsNull() && !b.IsNull():
			out[i] = Str(a.String() + b.String())
		}
		if err != nil {
			return vec{}, err
		}
	}
	return vecOf(out), nil
}

// arithNode is + - * / over typed vectors (see arithVec).
type arithNode struct {
	op   string
	l, r operand
	buf  *Column // with reuse, the result buffer; nil: a fresh column per evaluation
}

func (k *arithNode) eval(in *Result, s sel) (vec, error) {
	lv, ls, err := k.l.at(in, s)
	if err != nil {
		return vec{}, err
	}
	rv, rs, err := k.r.at(in, s)
	if err != nil {
		return vec{}, err
	}
	return arithVec(k.op, lv, ls, rv, rs, s.len(), k.buf)
}

// logicNode is AND or OR. The right operand runs only on the rows the left
// one leaves undecided: not FALSE for AND, not TRUE for OR. On those rows a
// deciding right value (FALSE for AND, TRUE for OR) decides, as SQL's
// three-valued logic says; otherwise a NULL or non-boolean value on either
// side makes the row NULL.
type logicNode struct {
	or   bool
	l, r kernel
}

func (k *logicNode) eval(in *Result, s sel) (vec, error) {
	lv, err := k.l.eval(in, s)
	if err != nil {
		return vec{}, err
	}
	n := s.len()
	out := boolColumn(n)
	pos := make([]int, 0, n) // the positions the left operand leaves undecided
	for i := 0; i < n; i++ {
		if b, ok := lv.truth(i); ok && b == k.or {
			out.Bools[i] = k.or
		} else {
			pos = append(pos, i)
		}
	}
	if len(pos) == 0 {
		return vec{col: out}, nil
	}
	rv, err := k.r.eval(in, s.pick(pos))
	if err != nil {
		return vec{}, err
	}
	for j, i := range pos {
		_, lok := lv.truth(i)
		if rb, rok := rv.truth(j); rok && (lok || rb == k.or) {
			out.Bools[i] = rb
		} else {
			out.setNull(i)
		}
	}
	return vec{col: out}, nil
}

// keep passes a row through AND when both operands are TRUE: the right
// operand filters the rows the left one kept. OR keeps by its values.
func (k *logicNode) keep(in *Result, s sel) ([]int, error) {
	if k.or {
		v, err := k.eval(in, s)
		if err != nil {
			return nil, err
		}
		return keepTrue(v, s), nil
	}
	keep, err := keepRows(k.l, in, s)
	if err != nil || len(keep) == 0 {
		return keep, err
	}
	return keepRows(k.r, in, sel{idx: keep})
}

func (c *vecCompiler) call(t *FuncCall) (kernel, error) {
	name := strings.ToLower(t.Name)
	if isAggregateName(name) {
		return nil, fmt.Errorf("sqldb: aggregate %s used outside aggregation context", name)
	}
	udf := c.db.lookupUDF(name)
	if udf != nil && udf.Arity >= 0 && len(t.Args) != udf.Arity {
		return nil, fmt.Errorf("sqldb: %s expects %d arguments, got %d", name, udf.Arity, len(t.Args))
	}
	args, err := c.operands(t.Args)
	if err != nil {
		return nil, err
	}
	c.byMorsel = true
	if udf != nil {
		ctx := c.ctx
		if c.span != nil {
			ctx = obs.ContextWithSpan(ctx, c.span)
		}
		return &udfNode{ctx: ctx, acct: c.acct, name: name, fn: udf.Fn, args: args}, nil
	}
	fn, ok := builtinScalars[name]
	if !ok {
		return nil, fmt.Errorf("sqldb: unknown function %q", name)
	}
	return &builtinNode{fn: fn, args: args}, nil
}

// evalArgs evaluates call arguments over s; value i of argument j is then
// vals[j].get(i * strides[j]).
func evalArgs(args []operand, in *Result, s sel) (vals []vec, strides []int, err error) {
	vals, strides = make([]vec, len(args)), make([]int, len(args))
	for j, a := range args {
		if vals[j], strides[j], err = a.at(in, s); err != nil {
			return nil, nil, err
		}
	}
	return vals, strides, nil
}

// builtinNode calls a builtin scalar function value by value.
type builtinNode struct {
	fn   func([]Datum) (Datum, error)
	args []operand
}

func (k *builtinNode) eval(in *Result, s sel) (vec, error) {
	vals, strides, err := evalArgs(k.args, in, s)
	if err != nil {
		return vec{}, err
	}
	out, row := make([]Datum, s.len()), make([]Datum, len(vals))
	for i := range out {
		for j, v := range vals {
			row[j] = v.get(i * strides[j])
		}
		if out[i], err = k.fn(row); err != nil {
			return vec{}, err
		}
	}
	return vecOf(out), nil
}

// udfNode calls a registered UDF on the selected rows, one Fn call per
// batch of at most udfBatchRows, and counts each batch's calls in the
// statement's accounting.
type udfNode struct {
	ctx  context.Context
	acct *queryAcct
	name string
	fn   UDFFunc
	args []operand
}

func (k *udfNode) eval(in *Result, s sel) (vec, error) {
	vals, strides, err := evalArgs(k.args, in, s)
	if err != nil {
		return vec{}, err
	}
	n, width := s.len(), len(vals)
	out := make([]Datum, n)
	for lo := 0; lo < n; lo += udfBatchRows {
		hi := min(lo+udfBatchRows, n)
		flat, calls := make([]Datum, (hi-lo)*width), make([][]Datum, hi-lo)
		for i := range calls {
			call := flat[i*width : (i+1)*width : (i+1)*width]
			for j, v := range vals {
				call[j] = v.get((lo + i) * strides[j])
			}
			calls[i] = call
		}
		if k.acct != nil {
			k.acct.udfCalls.Add(int64(hi - lo))
		}
		res, err := safeUDFCall(k.ctx, k.name, k.fn, calls)
		if err != nil {
			return vec{}, err
		}
		copy(out[lo:hi], res)
	}
	return vecOf(out), nil
}

// caseNode is CASE: each WHEN runs on the rows no earlier WHEN took, each
// THEN on the rows its WHEN took, ELSE (nil when absent) on the rest.
type caseNode struct {
	whens [][2]kernel // condition, result
	els   kernel
	// pick is set when the CASE has one WHEN and its THEN and ELSE are
	// column references or literals: THEN and ELSE (NULL when absent) as
	// operands, which eval runs through choose.
	pick []operand
}

// isLeaf reports whether k is a column reference or a literal: a value
// that cannot fail or call a UDF, whichever rows it runs on.
func isLeaf(k kernel) bool {
	switch k.(type) {
	case colRef, *lit:
		return true
	}
	return false
}

func (k *caseNode) eval(in *Result, s sel) (vec, error) {
	if k.pick != nil {
		return k.choose(in, s)
	}
	n := s.len()
	rest := make([]int, n) // the positions no WHEN has taken yet
	for i := range rest {
		rest[i] = i
	}
	// parts[i] holds the values of the rows at positions pos[i].
	var parts []vec
	var pos [][]int
	part := func(x kernel, at []int) error {
		v, err := x.eval(in, s.pick(at))
		parts, pos = append(parts, v), append(pos, at)
		return err
	}
	for _, w := range k.whens {
		if len(rest) == 0 {
			break
		}
		cond, err := w[0].eval(in, s.pick(rest))
		if err != nil {
			return vec{}, err
		}
		var took []int
		left := rest[:0]
		for j, p := range rest {
			if b, ok := cond.truth(j); ok && b {
				took = append(took, p)
			} else {
				left = append(left, p)
			}
		}
		rest = left
		if len(took) > 0 {
			if err := part(w[1], took); err != nil {
				return vec{}, err
			}
		}
	}
	if k.els != nil && len(rest) > 0 {
		if err := part(k.els, rest); err != nil {
			return vec{}, err
		}
	}
	if c := scatterTyped(parts, pos, n); c != nil {
		return vec{col: c}, nil
	}
	out := make([]Datum, n)
	for i, v := range parts {
		for j, p := range pos[i] {
			out[p] = v.get(j)
		}
	}
	return vecOf(out), nil
}

// choose is eval for a CASE with pick set. Its one WHEN runs on the whole
// selection, as it would anyway, and so do THEN and ELSE: being leaves,
// they give the same values on the rows that do not take them and nothing
// else. Each row then takes THEN's value where the WHEN is TRUE and ELSE's
// otherwise, in one pass, with no lists of the rows each part took and no
// broadcast literal.
func (k *caseNode) choose(in *Result, s sel) (vec, error) {
	cond, err := k.whens[0][0].eval(in, s)
	if err != nil {
		return vec{}, err
	}
	a, as, _ := k.pick[0].at(in, s) // a leaf cannot fail
	b, bs, _ := k.pick[1].at(in, s)
	n := s.len()
	if c := chooseTyped(cond.col, a.col, as, b.col, bs, n); c != nil {
		return vec{col: c}, nil
	}
	out := make([]Datum, n)
	for i := range out {
		if t, ok := cond.truth(i); ok && t {
			out[i] = a.get(i * as)
		} else {
			out[i] = b.get(i * bs)
		}
	}
	return vecOf(out), nil
}

// chooseTyped builds choose's n rows as one column when cond is a Bool
// column and a and b (read with strides as and bs) are NULL-free Int or
// Float columns of one type, which is then the type vecOf would give the
// chosen values: a's value where cond is TRUE, b's where it is FALSE or
// NULL. Otherwise it returns nil.
func chooseTyped(cond, a *Column, as int, b *Column, bs, n int) *Column {
	if n == 0 || cond == nil || cond.Type != TBool || a.Type != b.Type || a.Nulls != nil || b.Nulls != nil {
		return nil
	}
	out := &Column{Type: a.Type}
	switch a.Type {
	case TInt:
		out.Ints = make([]int64, n)
		chooseVals(out.Ints, cond, a.Ints, as, b.Ints, bs)
	case TFloat:
		out.Floats = make([]float64, n)
		chooseVals(out.Floats, cond, a.Floats, as, b.Floats, bs)
	default:
		return nil
	}
	return out
}

// chooseVals sets dst[i] to a[i·as] where cond is TRUE at i and to b[i·bs]
// otherwise. The condition picks a source by index, not by a branch, so
// that rows taking THEN and ELSE at random cost no mispredictions.
func chooseVals[T int64 | float64](dst []T, cond *Column, a []T, as int, b []T, bs int) {
	src, stride := [2][]T{b, a}, [2]int{bs, as}
	for i, t := range cond.Bools[:len(dst)] {
		k := 0
		if t {
			k = 1
		}
		dst[i] = src[k][i*stride[k]]
	}
	for i, null := range cond.Nulls {
		if null {
			dst[i] = b[i*bs]
		}
	}
}

// scatterTyped assembles n rows from parts — parts[i] holds the rows at
// positions pos[i] — into one column when they are NULL-free Int or Float
// columns of one type that cover every row, as vecOf would type their
// datums; otherwise it returns nil.
func scatterTyped(parts []vec, pos [][]int, n int) *Column {
	covered := 0
	for _, v := range parts {
		if v.col == nil || v.col.Nulls != nil || v.col.Type != parts[0].col.Type {
			return nil
		}
		covered += v.col.Len()
	}
	if covered != n || n == 0 {
		return nil
	}
	out := newGatherColumn(parts[0].col, n, false)
	for i, v := range parts {
		switch v.col.Type {
		case TInt:
			scatterVals(out.Ints, v.col.Ints, pos[i])
		case TFloat:
			scatterVals(out.Floats, v.col.Floats, pos[i])
		default:
			return nil
		}
	}
	return out
}

// scatterVals sets dst[pos[j]] to src[j].
func scatterVals[T any](dst, src []T, pos []int) {
	for j, p := range pos {
		dst[p] = src[j]
	}
}

// nonNull starts a Bool result for the values of v: NULL where v is NULL.
// It returns the column and the positions where v is not NULL.
func nonNull(v vec, n int) (*Column, []int) {
	out := boolColumn(n)
	pos := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if v.isNull(i) {
			out.setNull(i)
		} else {
			pos = append(pos, i)
		}
	}
	return out, pos
}

// inNode is [NOT] IN over a list: a NULL operand is NULL, NULL items match
// nothing, and an item runs only on the rows no earlier item matched.
type inNode struct {
	sub   kernel
	items []operand
	not   bool
}

func (k *inNode) eval(in *Result, s sel) (vec, error) {
	v, err := k.sub.eval(in, s)
	if err != nil {
		return vec{}, err
	}
	out, pos := nonNull(v, s.len()) // pos: the positions no item has matched yet
	for _, i := range pos {
		out.Bools[i] = k.not
	}
	for _, it := range k.items {
		if len(pos) == 0 {
			break
		}
		iv, st, err := it.at(in, s.pick(pos))
		if err != nil {
			return vec{}, err
		}
		left := pos[:0]
		for j, i := range pos {
			if Equal(v.get(i), iv.get(j*st)) {
				out.Bools[i] = !k.not
			} else {
				left = append(left, i)
			}
		}
		pos = left
	}
	return vec{col: out}, nil
}

// betweenNode is [NOT] BETWEEN: a NULL operand is NULL; the bounds run on
// the other rows and compare as Compare orders them, a NULL bound below
// every value.
type betweenNode struct {
	sub    kernel
	lo, hi operand
	not    bool
}

func (k *betweenNode) eval(in *Result, s sel) (vec, error) {
	v, err := k.sub.eval(in, s)
	if err != nil {
		return vec{}, err
	}
	out, pos := nonNull(v, s.len())
	ps := s.pick(pos)
	lo, ls, err := k.lo.at(in, ps)
	if err != nil {
		return vec{}, err
	}
	hi, hs, err := k.hi.at(in, ps)
	if err != nil {
		return vec{}, err
	}
	for j, i := range pos {
		x := v.get(i)
		c1, err := Compare(x, lo.get(j*ls))
		if err != nil {
			return vec{}, err
		}
		c2, err := Compare(x, hi.get(j*hs))
		if err != nil {
			return vec{}, err
		}
		out.Bools[i] = (c1 >= 0 && c2 <= 0) != k.not
	}
	return vec{col: out}, nil
}

// cmpMasks lists, per comparison operator, whether it holds when Compare
// returns -1, 0 and 1.
var cmpMasks = map[string][3]bool{
	"=":  {false, true, false},
	"!=": {true, false, true},
	"<":  {true, false, false},
	"<=": {true, true, false},
	">":  {false, false, true},
	">=": {false, true, true},
}

// cmpNode is a comparison, by Compare's rules: NULL on either side is
// NULL, Int, Float and Bool compare as numbers, String and Blob as bytes,
// and other pairs fail. Int/Float and String columns run typed loops.
type cmpNode struct {
	mask [3]bool
	l, r operand
}

func (k *cmpNode) eval(in *Result, s sel) (vec, error) {
	out := cmpOut{col: boolColumn(s.len())}
	err := k.run(&out, in, s)
	return vec{col: out.col}, err
}

func (k *cmpNode) keep(in *Result, s sel) ([]int, error) {
	out := cmpOut{s: s, keep: s.keepBuf()}
	err := k.run(&out, in, s)
	return out.keep, err
}

// cmpOut receives a comparison's outcome at each position: in filter
// position it keeps the selected rows where the comparison holds, in value
// position it fills a Bool column.
type cmpOut struct {
	s    sel
	keep []int
	col  *Column // nil in filter position
}

func (o *cmpOut) put(i int, holds, null bool) {
	switch {
	case o.col == nil:
		if holds && !null {
			o.keep = o.s.addRow(o.keep, o.s.row(i))
		}
	case null:
		o.col.setNull(i)
	default:
		o.col.Bools[i] = holds
	}
}

func (k *cmpNode) run(out *cmpOut, in *Result, s sel) error {
	l, ls, err := k.l.at(in, s)
	if err != nil {
		return err
	}
	r, rs, err := k.r.at(in, s)
	if err != nil {
		return err
	}
	n, mask := s.len(), k.mask
	if lc, rc := l.col, r.col; lc != nil && rc != nil {
		switch {
		case lc.Type == TNull || rc.Type == TNull:
			for i := 0; i < n; i++ {
				out.put(i, false, true)
			}
			return nil
		case lc.Type == TInt && rc.Type == TInt:
			cmpNums(out, mask, lc.Ints, ls, lc.Nulls, rc.Ints, rs, rc.Nulls, n)
			return nil
		case lc.Type == TInt && rc.Type == TFloat:
			cmpNums(out, mask, lc.Ints, ls, lc.Nulls, rc.Floats, rs, rc.Nulls, n)
			return nil
		case lc.Type == TFloat && rc.Type == TInt:
			cmpNums(out, mask, lc.Floats, ls, lc.Nulls, rc.Ints, rs, rc.Nulls, n)
			return nil
		case lc.Type == TFloat && rc.Type == TFloat:
			cmpNums(out, mask, lc.Floats, ls, lc.Nulls, rc.Floats, rs, rc.Nulls, n)
			return nil
		case lc.Type == TString && rc.Type == TString:
			for i := 0; i < n; i++ {
				null := (lc.Nulls != nil && lc.Nulls[i*ls]) || (rc.Nulls != nil && rc.Nulls[i*rs])
				out.put(i, mask[strings.Compare(lc.Strs[i*ls], rc.Strs[i*rs])+1], null)
			}
			return nil
		}
	}
	for i := 0; i < n; i++ {
		a, b := l.get(i*ls), r.get(i*rs)
		if a.IsNull() || b.IsNull() {
			out.put(i, false, true)
			continue
		}
		c, err := Compare(a, b)
		if err != nil {
			return err
		}
		out.put(i, mask[c+1], false)
	}
	return nil
}

func cmpNums[A, B int64 | float64](out *cmpOut, mask [3]bool, a []A, as int, an []bool, b []B, bs int, bn []bool, n int) {
	if out.col == nil && an == nil && bn == nil {
		// A filter over NULL-free operands counts its rows first, so its
		// keep list grows once, to its size, and is written in a local.
		kept := 0
		for i := 0; i < n; i++ {
			if mask[cmpFloat(float64(a[i*as]), float64(b[i*bs]))+1] {
				kept++
			}
		}
		keep := slices.Grow(out.keep, kept)
		for i := 0; i < n; i++ {
			if mask[cmpFloat(float64(a[i*as]), float64(b[i*bs]))+1] {
				keep = append(keep, out.s.row(i))
			}
		}
		out.keep = keep
		return
	}
	for i := 0; i < n; i++ {
		null := (an != nil && an[i*as]) || (bn != nil && bn[i*bs])
		out.put(i, mask[cmpFloat(float64(a[i*as]), float64(b[i*bs]))+1], null)
	}
}

// resolveCol finds a possibly-qualified column reference in a schema.
func resolveCol(c *ColRef, schema []OutCol) (int, error) {
	idx := -1
	for i, sc := range schema {
		if !strings.EqualFold(sc.Name, c.Name) {
			continue
		}
		if c.Table != "" && !strings.EqualFold(sc.Table, c.Table) {
			continue
		}
		if idx >= 0 {
			return 0, fmt.Errorf("sqldb: ambiguous column %q", c.String())
		}
		idx = i
	}
	if idx < 0 {
		return 0, fmt.Errorf("sqldb: unknown column %q", c.String())
	}
	return idx, nil
}

// evalVecs evaluates compiled vector expressions over every row of in.
// Expressions with a value-by-value part fan out as morsels (parallel when
// deg > 1) whose vectors are concatenated in morsel order.
func (db *DB) evalVecs(ec *execCtx, exprs []vecExpr, in *Result, n, deg int) ([]vec, error) {
	out := make([]vec, len(exprs))
	for i, x := range exprs {
		if !x.byMorsel {
			v, err := x.eval(in, sel{hi: n})
			if err != nil {
				return nil, err
			}
			out[i] = v
			continue
		}
		parts := make([]vec, (n+morselRows-1)/morselRows)
		stats, err := db.runMorsels(ec, deg, n, func(_, lo, hi int) error {
			v, err := x.eval(in, sel{lo: lo, hi: hi})
			parts[lo/morselRows] = v
			return err
		})
		if err != nil {
			return nil, err
		}
		db.notePar(ec, stats)
		out[i] = concatVecs(parts, n)
	}
	return out, nil
}

// slice returns rows [lo, hi) of the column, sharing its backing arrays.
func (c *Column) slice(lo, hi int) *Column {
	if lo == 0 && hi == c.Len() {
		return c
	}
	out := &Column{}
	c.sliceInto(out, lo, hi)
	return out
}

// sliceInto points the column header out at rows [lo, hi) of c.
func (c *Column) sliceInto(out *Column, lo, hi int) {
	*out = Column{Type: c.Type}
	switch c.Type {
	case TInt:
		out.Ints = c.Ints[lo:hi:hi]
	case TFloat:
		out.Floats = c.Floats[lo:hi:hi]
	case TString:
		out.Strs = c.Strs[lo:hi:hi]
	case TBool:
		out.Bools = c.Bools[lo:hi:hi]
	case TBlob:
		out.Blobs = c.Blobs[lo:hi:hi]
	}
	if c.Nulls != nil {
		out.Nulls = c.Nulls[lo:hi:hi]
	}
}

// broadcast repeats one value n times.
func broadcast(v Datum, n int) *Column {
	c := &Column{Type: v.T}
	switch v.T {
	case TNull:
		c.Nulls = trues(n)
	case TInt:
		c.Ints = make([]int64, n)
		for i := range c.Ints {
			c.Ints[i] = v.I
		}
	case TFloat:
		c.Floats = make([]float64, n)
		for i := range c.Floats {
			c.Floats[i] = v.F
		}
	case TString:
		c.Strs = make([]string, n)
		for i := range c.Strs {
			c.Strs[i] = v.S
		}
	case TBool:
		c.Bools = make([]bool, n)
		for i := range c.Bools {
			c.Bools[i] = v.I != 0
		}
	case TBlob:
		c.Blobs = make([][]byte, n)
		for i := range c.Blobs {
			c.Blobs[i] = v.B
		}
	}
	return c
}

func trues(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}

// vecOf turns value-by-value results into a typed vector when every
// non-NULL value has one type (an all-NULL range is a TNull column), and
// keeps the datums otherwise.
func vecOf(ds []Datum) vec {
	t := TNull
	for _, d := range ds {
		if d.IsNull() {
			continue
		}
		if t == TNull {
			t = d.T
		} else if d.T != t {
			return vec{ds: ds}
		}
	}
	c := NewColumn(t)
	for _, d := range ds {
		_ = c.Append(d) // same type or NULL: cannot fail
	}
	return vec{col: c}
}

// concatVecs joins per-morsel vectors in order. Parts of one type (NULL-only
// parts fit any) concatenate typed; otherwise the datums are re-typed as a
// whole. A single part is returned as is.
func concatVecs(parts []vec, n int) vec {
	var nonEmpty []vec
	for _, p := range parts {
		if p.col != nil || p.ds != nil {
			nonEmpty = append(nonEmpty, p)
		}
	}
	if len(nonEmpty) == 1 {
		return nonEmpty[0]
	}
	t, mixed := TNull, false
	for _, p := range nonEmpty {
		switch {
		case p.col == nil:
			mixed = true
		case p.col.Type == TNull || p.col.Type == t:
		case t == TNull:
			t = p.col.Type
		default:
			mixed = true
		}
	}
	if mixed {
		ds := make([]Datum, 0, n)
		for _, p := range nonEmpty {
			for i, m := 0, p.len(); i < m; i++ {
				ds = append(ds, p.get(i))
			}
		}
		return vecOf(ds)
	}
	out := NewColumn(t)
	for _, p := range nonEmpty {
		out.appendFrom(p.col)
	}
	return vec{col: out}
}

// appendFrom appends src's rows to c. src has c's type or is all-NULL
// (TNull).
func (c *Column) appendFrom(src *Column) {
	n := src.Len()
	if src.Type == TNull {
		if c.Type == TNull {
			c.Nulls = append(c.Nulls, src.Nulls...)
			return
		}
		c.ensureNulls()
		switch c.Type {
		case TInt:
			c.Ints = append(c.Ints, make([]int64, n)...)
		case TFloat:
			c.Floats = append(c.Floats, make([]float64, n)...)
		case TString:
			c.Strs = append(c.Strs, make([]string, n)...)
		case TBool:
			c.Bools = append(c.Bools, make([]bool, n)...)
		case TBlob:
			c.Blobs = append(c.Blobs, make([][]byte, n)...)
		}
		c.Nulls = append(c.Nulls, trues(n)...)
		return
	}
	switch c.Type {
	case TInt:
		c.Ints = append(c.Ints, src.Ints...)
	case TFloat:
		c.Floats = append(c.Floats, src.Floats...)
	case TString:
		c.Strs = append(c.Strs, src.Strs...)
	case TBool:
		c.Bools = append(c.Bools, src.Bools...)
	case TBlob:
		c.Blobs = append(c.Blobs, src.Blobs...)
	}
	switch {
	case src.Nulls != nil:
		if c.Nulls == nil {
			c.Nulls = make([]bool, c.Len()-n, c.Len())
		}
		c.Nulls = append(c.Nulls, src.Nulls...)
	case c.Nulls != nil:
		c.Nulls = append(c.Nulls, make([]bool, n)...)
	}
}

// arithVec applies + - * / % at n positions of l and r, read with strides
// ls and rs (0 for a literal). Int/Float (and all-NULL) operands of + - * /
// run typed: Int op Int stays Int except for /, anything with a Float is
// Float, x/0 is NULL, and a NULL operand yields NULL — arith's rules. %
// and other operand types go through arith value by value. A typed result
// goes into out, reusing its buffers, when out is non-nil.
func arithVec(op string, l vec, ls int, r vec, rs int, n int, out *Column) (vec, error) {
	lc, rc := l.col, r.col
	if op == "%" || lc == nil || rc == nil || !numericVec(lc.Type) || !numericVec(rc.Type) {
		ds := make([]Datum, n)
		for i := range ds {
			v, err := arith(op, l.get(i*ls), r.get(i*rs))
			if err != nil {
				return vec{}, err
			}
			ds[i] = v
		}
		return vecOf(ds), nil
	}
	if lc.Type == TNull || rc.Type == TNull {
		return vec{col: &Column{Type: TNull, Nulls: trues(n)}}, nil
	}
	var nulls []bool
	if lc.Nulls != nil || rc.Nulls != nil {
		nulls = make([]bool, n)
		for i := range nulls {
			nulls[i] = (lc.Nulls != nil && lc.Nulls[i*ls]) || (rc.Nulls != nil && rc.Nulls[i*rs])
		}
	}
	if out == nil {
		out = &Column{}
	}
	if lc.Type == TInt && rc.Type == TInt && op != "/" {
		ints := resize(out.Ints, n)
		a, b := lc.Ints, rc.Ints
		switch op {
		case "+":
			for i := range ints {
				ints[i] = a[i*ls] + b[i*rs]
			}
		case "-":
			for i := range ints {
				ints[i] = a[i*ls] - b[i*rs]
			}
		case "*":
			for i := range ints {
				ints[i] = a[i*ls] * b[i*rs]
			}
		}
		for i, null := range nulls {
			if null {
				ints[i] = 0
			}
		}
		*out = Column{Type: TInt, Ints: ints, Floats: out.Floats[:0], Nulls: nulls}
		return vec{col: out}, nil
	}
	fs := resize(out.Floats, n)
	switch {
	case lc.Type == TInt && rc.Type == TInt:
		nulls = floatArith(op, fs, lc.Ints, ls, rc.Ints, rs, nulls)
	case lc.Type == TInt:
		nulls = floatArith(op, fs, lc.Ints, ls, rc.Floats, rs, nulls)
	case rc.Type == TInt:
		nulls = floatArith(op, fs, lc.Floats, ls, rc.Ints, rs, nulls)
	default:
		nulls = floatArith(op, fs, lc.Floats, ls, rc.Floats, rs, nulls)
	}
	for i, null := range nulls {
		if null {
			fs[i] = 0
		}
	}
	*out = Column{Type: TFloat, Ints: out.Ints[:0], Floats: fs, Nulls: nulls}
	return vec{col: out}, nil
}

// floatArith computes fs[i] = a[i*as] op b[i*bs] in float64, marking x/0
// NULL in nulls (allocated when needed), which it returns.
func floatArith[A, B int64 | float64](op string, fs []float64, a []A, as int, b []B, bs int, nulls []bool) []bool {
	switch op {
	case "+":
		for i := range fs {
			fs[i] = float64(a[i*as]) + float64(b[i*bs])
		}
	case "-":
		for i := range fs {
			fs[i] = float64(a[i*as]) - float64(b[i*bs])
		}
	case "*":
		for i := range fs {
			fs[i] = float64(a[i*as]) * float64(b[i*bs])
		}
	case "/":
		for i := range fs {
			d := float64(b[i*bs])
			if d == 0 {
				if nulls == nil {
					nulls = make([]bool, len(fs))
				}
				nulls[i] = true
				continue
			}
			fs[i] = float64(a[i*as]) / d
		}
	}
	return nulls
}

func numericVec(t Type) bool { return t == TInt || t == TFloat || t == TNull }
