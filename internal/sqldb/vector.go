package sqldb

import (
	"context"
	"fmt"
	"slices"
	"strings"
)

// Vector evaluation. The hash operators' key, GROUP BY, aggregate-argument
// and computed-projection expressions are evaluated into typed vectors
// instead of one Datum per row: a column reference is a zero-copy slice of
// its column, a literal is broadcast, and + - * / over Int/Float vectors
// run as typed loops with arith's promotion and NULL rules. Every other
// expression is a leaf the existing row evaluator computes over the range,
// with its UDF calls batched (see batchExpr), and its datums become a typed
// vector again when they share one type.

// vec holds one expression's values over a row range: a typed column, or —
// when a row-evaluated leaf yields values of more than one type — the
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

func (v vec) slice(lo, hi int) vec {
	if v.col != nil {
		return vec{col: v.col.slice(lo, hi)}
	}
	return vec{ds: v.ds[lo:hi]}
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

// vecFn evaluates an expression over rows [lo, hi) of a result.
type vecFn func(in *Result, lo, hi int) (vec, error)

// vecExpr is a compiled vector expression. rowLeaf reports that part of
// it runs through the row evaluator (and may call UDFs), so it is
// evaluated a morsel at a time — in parallel when the operator runs
// parallel, observing cancellation at every morsel. Pure vector
// expressions are tight typed loops and take one call over the input.
type vecExpr struct {
	eval    vecFn
	rowLeaf bool
}

// compileVec binds an expression to a schema for vector evaluation; ctx is
// the statement's context, passed to UDFs in row-evaluated leaves. When
// counted is non-nil, row-evaluated leaves charge its statement's UDF-call
// tally exactly as a row-compiled expression would.
func (db *DB) compileVec(ctx context.Context, e Expr, schema []OutCol, counted *execCtx) (vecExpr, error) {
	return db.compileVecBuf(ctx, e, schema, counted, false)
}

// compileVecBuf is compileVec; with reuse set, literal and arithmetic
// nodes keep their result in a buffer of their own that every evaluation
// overwrites, so the compiled expression serves one goroutine and a result
// is valid until its next evaluation.
func (db *DB) compileVecBuf(ctx context.Context, e Expr, schema []OutCol, counted *execCtx, reuse bool) (vecExpr, error) {
	switch t := e.(type) {
	case *ColRef:
		ci, err := resolveCol(t, schema)
		if err != nil {
			return vecExpr{}, err
		}
		return vecExpr{eval: func(in *Result, lo, hi int) (vec, error) {
			return vec{col: in.Cols[ci].slice(lo, hi)}, nil
		}}, nil
	case *Lit:
		v := t.Val
		if reuse {
			var c *Column
			return vecExpr{eval: func(_ *Result, lo, hi int) (vec, error) {
				if c == nil || c.Len() != hi-lo {
					c = broadcast(v, hi-lo)
				}
				return vec{col: c}, nil
			}}, nil
		}
		return vecExpr{eval: func(_ *Result, lo, hi int) (vec, error) {
			return vec{col: broadcast(v, hi-lo)}, nil
		}}, nil
	case *BinExpr:
		switch t.Op {
		case "+", "-", "*", "/":
			l, err := db.compileVecBuf(ctx, t.L, schema, counted, reuse)
			if err != nil {
				return vecExpr{}, err
			}
			r, err := db.compileVecBuf(ctx, t.R, schema, counted, reuse)
			if err != nil {
				return vecExpr{}, err
			}
			op := t.Op
			var out *Column // nil: a fresh column per evaluation
			if reuse {
				out = &Column{}
			}
			return vecExpr{rowLeaf: l.rowLeaf || r.rowLeaf, eval: func(in *Result, lo, hi int) (vec, error) {
				lv, err := l.eval(in, lo, hi)
				if err != nil {
					return vec{}, err
				}
				rv, err := r.eval(in, lo, hi)
				if err != nil {
					return vec{}, err
				}
				return arithVec(op, lv, rv, out)
			}}, nil
		}
	}
	x, err := db.compileBatch(ctx, e, schema)
	if err != nil {
		return vecExpr{}, err
	}
	udfs := 0
	if counted != nil {
		udfs = len(db.exprUDFs(e))
	}
	return vecExpr{rowLeaf: true, eval: func(in *Result, lo, hi int) (vec, error) {
		if udfs > 0 {
			counted.countUDFs(udfs, hi-lo)
		}
		ds := make([]Datum, hi-lo)
		if err := x.evalRange(in, lo, hi, ds); err != nil {
			return vec{}, err
		}
		return vecOf(ds), nil
	}}, nil
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
// Expressions with a row-evaluated leaf fan out as morsels (parallel when
// deg > 1) whose vectors are concatenated in morsel order.
func (db *DB) evalVecs(ec *execCtx, exprs []vecExpr, in *Result, n, deg int) ([]vec, error) {
	out := make([]vec, len(exprs))
	for i, x := range exprs {
		if !x.rowLeaf {
			v, err := x.eval(in, 0, n)
			if err != nil {
				return nil, err
			}
			out[i] = v
			continue
		}
		parts := make([]vec, (n+morselRows-1)/morselRows)
		stats, err := db.runMorsels(ec, deg, n, func(_, lo, hi int) error {
			v, err := x.eval(in, lo, hi)
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

// vecOf turns row-evaluated datums into a typed vector when every non-NULL
// value has one type (an all-NULL range is a TNull column), and keeps the
// datums otherwise.
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

// arithVec applies + - * / to two vectors. Int/Float (and all-NULL)
// operands run typed: Int op Int stays Int except for /, anything with a
// Float is Float, x/0 is NULL, and a NULL operand yields NULL — arith's
// rules. Other operand types go through arith value by value. A typed
// result goes into out, reusing its buffers, when out is non-nil.
func arithVec(op string, l, r vec, out *Column) (vec, error) {
	lc, rc := l.col, r.col
	if lc == nil || rc == nil || !numericVec(lc.Type) || !numericVec(rc.Type) {
		n := l.len()
		ds := make([]Datum, n)
		for i := range ds {
			v, err := arith(op, l.get(i), r.get(i))
			if err != nil {
				return vec{}, err
			}
			ds[i] = v
		}
		return vecOf(ds), nil
	}
	n := lc.Len()
	if lc.Type == TNull || rc.Type == TNull {
		return vec{col: &Column{Type: TNull, Nulls: trues(n)}}, nil
	}
	nulls := orNulls(lc.Nulls, rc.Nulls, n)
	if out == nil {
		out = &Column{}
	}
	if lc.Type == TInt && rc.Type == TInt && op != "/" {
		a, b := lc.Ints[:n], rc.Ints[:n]
		ints := resize(out.Ints, n)
		*out = Column{Type: TInt, Ints: ints, Floats: out.Floats[:0], Nulls: nulls}
		switch op {
		case "+":
			for i := range ints {
				ints[i] = a[i] + b[i]
			}
		case "-":
			for i := range ints {
				ints[i] = a[i] - b[i]
			}
		case "*":
			for i := range ints {
				ints[i] = a[i] * b[i]
			}
		}
		if nulls != nil {
			for i, null := range nulls {
				if null {
					ints[i] = 0
				}
			}
		}
		return vec{col: out}, nil
	}
	a, b := floatsOf(lc), floatsOf(rc)
	fs := resize(out.Floats, n)
	switch op {
	case "+":
		for i := range fs {
			fs[i] = a[i] + b[i]
		}
	case "-":
		for i := range fs {
			fs[i] = a[i] - b[i]
		}
	case "*":
		for i := range fs {
			fs[i] = a[i] * b[i]
		}
	case "/":
		for i := range fs {
			if b[i] == 0 {
				if nulls == nil {
					nulls = make([]bool, n)
				}
				nulls[i] = true
				continue
			}
			fs[i] = a[i] / b[i]
		}
	}
	if nulls != nil {
		for i, null := range nulls {
			if null {
				fs[i] = 0
			}
		}
	}
	*out = Column{Type: TFloat, Ints: out.Ints[:0], Floats: fs, Nulls: nulls}
	return vec{col: out}, nil
}

func numericVec(t Type) bool { return t == TInt || t == TFloat || t == TNull }

// floatsOf views an Int or Float column as float64 values.
func floatsOf(c *Column) []float64 {
	if c.Type == TFloat {
		return c.Floats
	}
	out := make([]float64, len(c.Ints))
	for i, v := range c.Ints {
		out[i] = float64(v)
	}
	return out
}

// orNulls is the row-wise OR of two NULL masks (nil = no NULLs), freshly
// allocated so callers may write to it.
func orNulls(a, b []bool, n int) []bool {
	if a == nil && b == nil {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = (a != nil && a[i]) || (b != nil && b[i])
	}
	return out
}
