package sqldb

import (
	"context"
	"strings"
)

// Batched UDF evaluation. Filter conjuncts, row-evaluated vector leaves
// and sort keys are compiled as batchExprs: every call to a registered UDF
// in a position that each evaluation of the expression reaches is hoisted
// out of the row evaluator. For each chunk of at most udfBatchRows rows,
// the hoisted calls' arguments are evaluated row by row, the UDF is called
// once on the whole chunk, and the row evaluator then reads each row's
// result. Calls in conditional positions — the right operand of AND/OR,
// every CASE part but the first condition, IN lists, BETWEEN bounds — stay
// in the row evaluator as batches of one, so a UDF is called on exactly the
// rows it was called on one at a time.

// udfBatchRows bounds the calls one ScalarUDF.Fn invocation receives from
// a batchExpr, and with them the argument and result datums alive per
// chunk.
const udfBatchRows = 256

// batchExpr is an expression compiled for evaluation over many rows.
type batchExpr struct {
	row evalFn // the expression, when no call is hoisted

	// With hoisted calls, each chunk compiles the expression afresh, its
	// hoisted calls reading that chunk's results.
	db     *DB
	ctx    context.Context
	e      Expr
	schema []OutCol
	calls  []*FuncCall // hoisted calls in evaluation order; arguments may read earlier ones
	cols   []int       // the columns the expression reads, gathered per chunk
}

// compileBatch compiles e over schema for evaluation in batches. Every
// compile error surfaces here, before any row is evaluated.
func (db *DB) compileBatch(ctx context.Context, e Expr, schema []OutCol) (batchExpr, error) {
	calls := db.hoistable(e, nil)
	if len(calls) == 0 {
		row, err := db.compile(ctx, e, schema, nil)
		return batchExpr{row: row}, err
	}
	x := batchExpr{db: db, ctx: ctx, e: e, schema: schema, calls: calls}
	if _, err := x.compileChunk(nil, 0); err != nil {
		return x, err
	}
	seen := map[int]bool{}
	for _, cr := range colRefs(e) {
		if i, err := resolveCol(cr, schema); err == nil && !seen[i] {
			seen[i] = true
			x.cols = append(x.cols, i)
		}
	}
	return x, nil
}

// hoistable appends to out, in evaluation order, the registered-UDF calls
// of e that every evaluation of e reaches; a call's own arguments come
// before it.
func (db *DB) hoistable(e Expr, out []*FuncCall) []*FuncCall {
	switch t := e.(type) {
	case *UnaryExpr:
		return db.hoistable(t.E, out)
	case *BinExpr:
		out = db.hoistable(t.L, out)
		if t.Op == "and" || t.Op == "or" {
			return out // the left operand can decide alone
		}
		return db.hoistable(t.R, out)
	case *FuncCall:
		for _, a := range t.Args {
			out = db.hoistable(a, out)
		}
		if db.lookupUDF(strings.ToLower(t.Name)) != nil {
			out = append(out, t)
		}
	case *CaseExpr:
		if len(t.Whens) > 0 {
			return db.hoistable(t.Whens[0].Cond, out)
		}
	case *InExpr:
		return db.hoistable(t.E, out)
	case *BetweenExpr:
		return db.hoistable(t.E, out)
	case *IsNullExpr:
		return db.hoistable(t.E, out)
	}
	return out
}

// compileChunk calls the hoisted UDFs on the n rows of chunk, a Result
// holding one chunk's rows of the columns read, and returns the expression
// compiled to read their results. A nil chunk compiles without calling.
func (x *batchExpr) compileChunk(chunk *Result, n int) (evalFn, error) {
	hoisted := make(map[*FuncCall][]Datum, len(x.calls))
	for _, fc := range x.calls {
		c, err := x.db.compileUDFCall(x.ctx, fc, x.db.lookupUDF(strings.ToLower(fc.Name)), x.schema, hoisted)
		if err != nil {
			return nil, err
		}
		var vals []Datum
		if chunk != nil {
			if vals, err = c.eval(chunk, 0, n); err != nil {
				return nil, err
			}
		}
		hoisted[fc] = vals
	}
	return x.db.compile(x.ctx, x.e, x.schema, hoisted)
}

// evalChunks evaluates an expression with hoisted calls at each of rows of
// in, into out, one chunk of udfBatchRows at a time: the chunk's rows of
// the columns read are gathered into a Result of their own, each hoisted
// UDF is called once on the chunk, and the row evaluator runs over it.
func (x *batchExpr) evalChunks(in *Result, rows []int, out []Datum) error {
	for lo := 0; lo < len(rows); lo += udfBatchRows {
		idx := rows[lo:min(lo+udfBatchRows, len(rows))]
		chunk := &Result{Cols: make([]*Column, len(in.Cols))}
		for _, ci := range x.cols {
			chunk.Cols[ci] = in.Cols[ci].Gather(idx)
		}
		row, err := x.compileChunk(chunk, len(idx))
		if err != nil {
			return err
		}
		for i := range idx {
			v, err := row(chunk, i)
			if err != nil {
				return err
			}
			out[lo+i] = v
		}
	}
	return nil
}

// evalRange evaluates the expression at rows [lo, hi) of in, into out.
func (x *batchExpr) evalRange(in *Result, lo, hi int, out []Datum) error {
	if len(x.calls) > 0 {
		rows := make([]int, hi-lo)
		for i := range rows {
			rows[i] = lo + i
		}
		return x.evalChunks(in, rows, out)
	}
	for i := lo; i < hi; i++ {
		v, err := x.row(in, i)
		if err != nil {
			return err
		}
		out[i-lo] = v
	}
	return nil
}

// filter keeps the rows of in, listed in rows, where the expression is
// TRUE, compacting rows in place.
func (x *batchExpr) filter(in *Result, rows []int) ([]int, error) {
	kept := rows[:0]
	if len(x.calls) == 0 {
		for _, r := range rows {
			v, err := x.row(in, r)
			if err != nil {
				return nil, err
			}
			if b, ok := v.AsBool(); ok && b {
				kept = append(kept, r)
			}
		}
		return kept, nil
	}
	vals := make([]Datum, len(rows))
	if err := x.evalChunks(in, rows, vals); err != nil {
		return nil, err
	}
	for i, v := range vals {
		if b, ok := v.AsBool(); ok && b {
			kept = append(kept, rows[i])
		}
	}
	return kept, nil
}
