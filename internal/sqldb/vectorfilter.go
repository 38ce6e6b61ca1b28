package sqldb

// Vectorized filter fast paths. The generic filter evaluates a compiled
// expression tree per row; for the overwhelmingly common shape
// `column <op> literal` on a typed column this file provides specialized
// kernels that stream directly over the column vector — the columnar
// engine's analogue of ClickHouse's compiled filter primitives. The
// planner-visible semantics are identical; only the inner loop changes.

// vectorPred appends the indices of qualifying rows in [lo, hi) to keep,
// in ascending order. The row range makes the kernels morsel-addressable:
// the parallel filter hands each worker a disjoint range of the same
// column vectors.
type vectorPred func(in *Result, lo, hi int, keep []int) []int

// compileVectorPred recognizes `ColRef op Lit` (or the mirrored
// literal-first form) over a concretely-typed column and returns a
// vectorized kernel, or nil when the shape doesn't match — the generic
// row-at-a-time path then handles it.
func compileVectorPred(e Expr, schema []OutCol) vectorPred {
	b, ok := e.(*BinExpr)
	if !ok {
		return nil
	}
	op := b.Op
	col, lit := b.L, b.R
	if _, isLit := col.(*Lit); isLit {
		col, lit = b.R, b.L
		op = mirrorOp(op)
	}
	cr, ok := col.(*ColRef)
	if !ok {
		return nil
	}
	lv, ok := lit.(*Lit)
	if !ok || lv.Val.IsNull() {
		return nil
	}
	switch op {
	case "=", "!=", "<", "<=", ">", ">=":
	default:
		return nil
	}
	ci, err := resolveCol(cr, schema)
	if err != nil {
		return nil // unknown or ambiguous: let the generic path raise the error
	}
	val := lv.Val
	switch schema[ci].Type {
	case TInt:
		want, ok := val.AsFloat()
		if !ok {
			return nil
		}
		return func(in *Result, lo, hi int, keep []int) []int {
			c := in.Cols[ci]
			nulls := c.Nulls
			for i := lo; i < hi; i++ {
				if nulls != nil && nulls[i] {
					continue
				}
				if cmpFloat(op, float64(c.Ints[i]), want) {
					keep = append(keep, i)
				}
			}
			return keep
		}
	case TFloat:
		want, ok := val.AsFloat()
		if !ok {
			return nil
		}
		return func(in *Result, lo, hi int, keep []int) []int {
			c := in.Cols[ci]
			nulls := c.Nulls
			for i := lo; i < hi; i++ {
				if nulls != nil && nulls[i] {
					continue
				}
				if cmpFloat(op, c.Floats[i], want) {
					keep = append(keep, i)
				}
			}
			return keep
		}
	case TString:
		if val.T != TString {
			return nil
		}
		want := val.S
		return func(in *Result, lo, hi int, keep []int) []int {
			c := in.Cols[ci]
			nulls := c.Nulls
			for i := lo; i < hi; i++ {
				if nulls != nil && nulls[i] {
					continue
				}
				if cmpString(op, c.Strs[i], want) {
					keep = append(keep, i)
				}
			}
			return keep
		}
	case TBool:
		want, ok := val.AsBool()
		if !ok {
			return nil
		}
		wf := 0.0
		if want {
			wf = 1
		}
		return func(in *Result, lo, hi int, keep []int) []int {
			c := in.Cols[ci]
			nulls := c.Nulls
			for i := lo; i < hi; i++ {
				if nulls != nil && nulls[i] {
					continue
				}
				vf := 0.0
				if c.Bools[i] {
					vf = 1
				}
				if cmpFloat(op, vf, wf) {
					keep = append(keep, i)
				}
			}
			return keep
		}
	}
	return nil
}

func mirrorOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // = and != are symmetric
}

func cmpFloat(op string, a, b float64) bool {
	switch op {
	case "=":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

func cmpString(op, a, b string) bool {
	switch op {
	case "=":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

// intersectSorted keeps the values present in both ascending-sorted slices,
// writing into a's backing array.
func intersectSorted(a, b []int) []int {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
