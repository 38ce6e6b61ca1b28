package sqldb

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/qerr"
)

// safeUDFCall invokes a user-defined scalar function on a batch of calls
// with a panic fence: a UDF that panics (shape mismatch in a tensor
// kernel, malformed artifact, out-of-range index) fails just the query
// with a typed qerr.ErrInternal instead of killing the worker goroutine —
// and with it, the process. A UDF must answer every call of the batch.
func safeUDFCall(ctx context.Context, name string, fn UDFFunc, calls [][]Datum) (out []Datum, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, qerr.Recovered("udf "+name, r)
		}
	}()
	out, err = fn(ctx, calls)
	if err == nil && len(out) != len(calls) {
		return nil, fmt.Errorf("sqldb: udf %s returned %d values for %d calls", name, len(out), len(calls))
	}
	return out, err
}

// OutCol names one column of an intermediate result: the producing
// relation's alias (possibly empty) plus the column name.
type OutCol struct {
	Table string
	Name  string
	Type  Type
}

// Result is a materialized relation: the unit of data flow between physical
// operators (analogous to a ClickHouse block pipeline that has been fully
// drained).
type Result struct {
	Schema []OutCol
	Cols   []*Column
	// rows counts the rows when no column is materialised: inside a query,
	// operators leave nil the columns no ancestor reads (see prune.go).
	rows int
}

// NumRows returns the row count of the result.
func (r *Result) NumRows() int {
	for _, c := range r.Cols {
		if c != nil {
			return c.Len()
		}
	}
	return r.rows
}

// gatherRows returns rows idx of in, gathering its materialised columns at
// the positions used marks (nil: every position).
func gatherRows(in *Result, idx []int, used []bool) *Result {
	out := &Result{Schema: in.Schema, Cols: make([]*Column, len(in.Cols)), rows: len(idx)}
	for i, c := range in.Cols {
		if c != nil && (used == nil || used[i]) {
			out.Cols[i] = c.Gather(idx)
		}
	}
	return out
}

// ColIndex resolves a possibly-qualified column name against the result
// schema. It returns an error if the name is missing or ambiguous.
func (r *Result) ColIndex(table, name string) (int, error) {
	found := -1
	for i, c := range r.Schema {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if found >= 0 {
			if table == "" {
				return 0, fmt.Errorf("sqldb: ambiguous column %q", name)
			}
			return 0, fmt.Errorf("sqldb: ambiguous column %s.%s", table, name)
		}
		found = i
	}
	if found < 0 {
		qual := name
		if table != "" {
			qual = table + "." + name
		}
		return 0, fmt.Errorf("sqldb: unknown column %q", qual)
	}
	return found, nil
}

// GetRow materializes row i of the result.
func (r *Result) GetRow(i int) []Datum {
	row := make([]Datum, len(r.Cols))
	for j, c := range r.Cols {
		row[j] = c.Get(i)
	}
	return row
}

// evalFn evaluates an expression against one row of a result.
type evalFn func(r *Result, row int) (Datum, error)

// UDFFunc evaluates a batch of calls to a scalar UDF: calls[i] holds the
// arguments of call i, and the function returns one value per call, in
// order. ctx is the calling statement's context.
type UDFFunc func(ctx context.Context, calls [][]Datum) ([]Datum, error)

// RowUDF adapts a function of one call's arguments to a UDFFunc that
// answers a batch call by call, stopping at the first error.
func RowUDF(f func(ctx context.Context, args []Datum) (Datum, error)) UDFFunc {
	return func(ctx context.Context, calls [][]Datum) ([]Datum, error) {
		out := make([]Datum, len(calls))
		for i, args := range calls {
			v, err := f(ctx, args)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
}

// ScalarUDF is a user-registered scalar function — the engine's nUDF
// extension point. The executor calls Fn on batches of the rows that reach
// the call: one Fn call per chunk of rows where every evaluation of the
// expression reaches it, a batch of one where only some do (see
// batchExpr); wrap a per-row function with RowUDF. Cost is the optimizer's
// per-call cost estimate in abstract cost units; EstimateSelectivity
// (optional) reports the fraction of rows expected to satisfy
// `udf(x) = value` predicates, per Eq. (10).
type ScalarUDF struct {
	Name                string
	Arity               int
	Fn                  UDFFunc
	Cost                float64
	EstimateSelectivity func(equalsTo Datum) float64

	// ParallelSafe declares that Fn may be invoked concurrently from
	// multiple executor workers. It defaults to false: expressions calling
	// a non-parallel-safe UDF are evaluated serially even when the rest of
	// the query runs parallel, so closures with unsynchronized state stay
	// correct by default.
	ParallelSafe bool
}

// compileExpr binds an AST expression to a result schema, producing an
// evaluator closure. Scalar subqueries must already have been replaced by
// literals (the planner executes them up front — only uncorrelated
// subqueries are supported, which covers the paper's Q4 batch-norm pattern).
// Every UDF the expression calls gets ctx (nil means context.Background()).
func (db *DB) compileExpr(ctx context.Context, e Expr, schema []OutCol) (evalFn, error) {
	return db.compile(ctx, e, schema, nil)
}

// compile is compileExpr for a batchExpr's chunk: each UDF call in hoisted
// reads its result for row i of the chunk from hoisted instead of calling
// the UDF.
func (db *DB) compile(ctx context.Context, e Expr, schema []OutCol, hoisted map[*FuncCall][]Datum) (evalFn, error) {
	switch t := e.(type) {
	case *Lit:
		v := t.Val
		return func(*Result, int) (Datum, error) { return v, nil }, nil
	case *Param:
		return nil, fmt.Errorf("sqldb: unbound parameter ?%d — execute through Prepare and bind arguments", t.Idx+1)
	case *ColRef:
		i, err := resolveCol(t, schema)
		if err != nil {
			return nil, err
		}
		return func(r *Result, row int) (Datum, error) { return r.Cols[i].Get(row), nil }, nil
	case *UnaryExpr:
		sub, err := db.compile(ctx, t.E, schema, hoisted)
		if err != nil {
			return nil, err
		}
		switch t.Op {
		case "not":
			return func(r *Result, row int) (Datum, error) {
				v, err := sub(r, row)
				if err != nil {
					return Null(), err
				}
				if v.IsNull() {
					return Null(), nil
				}
				b, ok := v.AsBool()
				if !ok {
					return Null(), fmt.Errorf("sqldb: NOT applied to %s", v.T)
				}
				return Bool(!b), nil
			}, nil
		case "-":
			return func(r *Result, row int) (Datum, error) {
				v, err := sub(r, row)
				if err != nil || v.IsNull() {
					return v, err
				}
				switch v.T {
				case TInt:
					return Int(-v.I), nil
				case TFloat:
					return Float(-v.F), nil
				}
				return Null(), fmt.Errorf("sqldb: unary minus applied to %s", v.T)
			}, nil
		}
		return nil, fmt.Errorf("sqldb: unknown unary op %q", t.Op)
	case *BinExpr:
		return db.compileBin(ctx, t, schema, hoisted)
	case *FuncCall:
		return db.compileFunc(ctx, t, schema, hoisted)
	case *CaseExpr:
		whens := make([]struct{ cond, then evalFn }, len(t.Whens))
		for i, w := range t.Whens {
			c, err := db.compile(ctx, w.Cond, schema, hoisted)
			if err != nil {
				return nil, err
			}
			th, err := db.compile(ctx, w.Then, schema, hoisted)
			if err != nil {
				return nil, err
			}
			whens[i] = struct{ cond, then evalFn }{c, th}
		}
		var els evalFn
		if t.Else != nil {
			var err error
			if els, err = db.compile(ctx, t.Else, schema, hoisted); err != nil {
				return nil, err
			}
		}
		return func(r *Result, row int) (Datum, error) {
			for _, w := range whens {
				c, err := w.cond(r, row)
				if err != nil {
					return Null(), err
				}
				if b, ok := c.AsBool(); ok && b {
					return w.then(r, row)
				}
			}
			if els != nil {
				return els(r, row)
			}
			return Null(), nil
		}, nil
	case *InExpr:
		sub, err := db.compile(ctx, t.E, schema, hoisted)
		if err != nil {
			return nil, err
		}
		items := make([]evalFn, len(t.List))
		for i, x := range t.List {
			if items[i], err = db.compile(ctx, x, schema, hoisted); err != nil {
				return nil, err
			}
		}
		not := t.Not
		return func(r *Result, row int) (Datum, error) {
			v, err := sub(r, row)
			if err != nil {
				return Null(), err
			}
			if v.IsNull() {
				return Null(), nil
			}
			for _, item := range items {
				iv, err := item(r, row)
				if err != nil {
					return Null(), err
				}
				if Equal(v, iv) {
					return Bool(!not), nil
				}
			}
			return Bool(not), nil
		}, nil
	case *BetweenExpr:
		sub, err := db.compile(ctx, t.E, schema, hoisted)
		if err != nil {
			return nil, err
		}
		lo, err := db.compile(ctx, t.Lo, schema, hoisted)
		if err != nil {
			return nil, err
		}
		hi, err := db.compile(ctx, t.Hi, schema, hoisted)
		if err != nil {
			return nil, err
		}
		not := t.Not
		return func(r *Result, row int) (Datum, error) {
			v, err := sub(r, row)
			if err != nil || v.IsNull() {
				return Null(), err
			}
			lv, err := lo(r, row)
			if err != nil {
				return Null(), err
			}
			hv, err := hi(r, row)
			if err != nil {
				return Null(), err
			}
			c1, err := Compare(v, lv)
			if err != nil {
				return Null(), err
			}
			c2, err := Compare(v, hv)
			if err != nil {
				return Null(), err
			}
			in := c1 >= 0 && c2 <= 0
			return Bool(in != not), nil
		}, nil
	case *IsNullExpr:
		sub, err := db.compile(ctx, t.E, schema, hoisted)
		if err != nil {
			return nil, err
		}
		not := t.Not
		return func(r *Result, row int) (Datum, error) {
			v, err := sub(r, row)
			if err != nil {
				return Null(), err
			}
			return Bool(v.IsNull() != not), nil
		}, nil
	case *SubqueryExpr:
		return nil, fmt.Errorf("sqldb: internal: scalar subquery not resolved before compilation")
	}
	return nil, fmt.Errorf("sqldb: cannot compile expression %T", e)
}

func (db *DB) compileBin(ctx context.Context, t *BinExpr, schema []OutCol, hoisted map[*FuncCall][]Datum) (evalFn, error) {
	l, err := db.compile(ctx, t.L, schema, hoisted)
	if err != nil {
		return nil, err
	}
	r, err := db.compile(ctx, t.R, schema, hoisted)
	if err != nil {
		return nil, err
	}
	op := t.Op
	switch op {
	case "and":
		return func(res *Result, row int) (Datum, error) {
			lv, err := l(res, row)
			if err != nil {
				return Null(), err
			}
			if b, ok := lv.AsBool(); ok && !b {
				return Bool(false), nil
			}
			rv, err := r(res, row)
			if err != nil {
				return Null(), err
			}
			lb, lok := lv.AsBool()
			rb, rok := rv.AsBool()
			if lok && rok {
				return Bool(lb && rb), nil
			}
			return Null(), nil
		}, nil
	case "or":
		return func(res *Result, row int) (Datum, error) {
			lv, err := l(res, row)
			if err != nil {
				return Null(), err
			}
			if b, ok := lv.AsBool(); ok && b {
				return Bool(true), nil
			}
			rv, err := r(res, row)
			if err != nil {
				return Null(), err
			}
			lb, lok := lv.AsBool()
			rb, rok := rv.AsBool()
			if lok && rok {
				return Bool(lb || rb), nil
			}
			return Null(), nil
		}, nil
	case "=", "!=", "<", "<=", ">", ">=":
		return func(res *Result, row int) (Datum, error) {
			lv, err := l(res, row)
			if err != nil {
				return Null(), err
			}
			rv, err := r(res, row)
			if err != nil {
				return Null(), err
			}
			if lv.IsNull() || rv.IsNull() {
				return Null(), nil
			}
			c, err := Compare(lv, rv)
			if err != nil {
				return Null(), err
			}
			switch op {
			case "=":
				return Bool(c == 0), nil
			case "!=":
				return Bool(c != 0), nil
			case "<":
				return Bool(c < 0), nil
			case "<=":
				return Bool(c <= 0), nil
			case ">":
				return Bool(c > 0), nil
			default:
				return Bool(c >= 0), nil
			}
		}, nil
	case "+", "-", "*", "/", "%":
		return func(res *Result, row int) (Datum, error) {
			lv, err := l(res, row)
			if err != nil {
				return Null(), err
			}
			rv, err := r(res, row)
			if err != nil {
				return Null(), err
			}
			return arith(op, lv, rv)
		}, nil
	case "||":
		return func(res *Result, row int) (Datum, error) {
			lv, err := l(res, row)
			if err != nil {
				return Null(), err
			}
			rv, err := r(res, row)
			if err != nil {
				return Null(), err
			}
			if lv.IsNull() || rv.IsNull() {
				return Null(), nil
			}
			return Str(lv.String() + rv.String()), nil
		}, nil
	}
	return nil, fmt.Errorf("sqldb: unknown binary op %q", op)
}

// arith applies a numeric binary operator with int/float promotion.
func arith(op string, a, b Datum) (Datum, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if a.T == TInt && b.T == TInt && op != "/" {
		switch op {
		case "+":
			return Int(a.I + b.I), nil
		case "-":
			return Int(a.I - b.I), nil
		case "*":
			return Int(a.I * b.I), nil
		case "%":
			if b.I == 0 {
				return Null(), fmt.Errorf("sqldb: modulo by zero")
			}
			return Int(a.I % b.I), nil
		}
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if !aok || !bok {
		return Null(), fmt.Errorf("sqldb: arithmetic on %s and %s", a.T, b.T)
	}
	switch op {
	case "+":
		return Float(af + bf), nil
	case "-":
		return Float(af - bf), nil
	case "*":
		return Float(af * bf), nil
	case "/":
		if bf == 0 {
			return Null(), nil // SQL semantics: x/0 yields NULL rather than aborting
		}
		return Float(af / bf), nil
	case "%":
		if bf == 0 {
			return Null(), fmt.Errorf("sqldb: modulo by zero")
		}
		return Float(math.Mod(af, bf)), nil
	}
	return Null(), fmt.Errorf("sqldb: unknown arithmetic op %q", op)
}

func (db *DB) compileFunc(ctx context.Context, t *FuncCall, schema []OutCol, hoisted map[*FuncCall][]Datum) (evalFn, error) {
	name := strings.ToLower(t.Name)
	if isAggregateName(name) {
		return nil, fmt.Errorf("sqldb: aggregate %s used outside aggregation context", name)
	}
	if vals, ok := hoisted[t]; ok {
		return func(_ *Result, row int) (Datum, error) { return vals[row], nil }, nil
	}
	if udf := db.lookupUDF(name); udf != nil {
		c, err := db.compileUDFCall(ctx, t, udf, schema, hoisted)
		if err != nil {
			return nil, err
		}
		return func(r *Result, row int) (Datum, error) {
			out, err := c.eval(r, row, row+1)
			if err != nil {
				return Null(), err
			}
			return out[0], nil
		}, nil
	}
	args := make([]evalFn, len(t.Args))
	for i, a := range t.Args {
		f, err := db.compile(ctx, a, schema, hoisted)
		if err != nil {
			return nil, err
		}
		args[i] = f
	}
	fn, ok := builtinScalars[name]
	if !ok {
		return nil, fmt.Errorf("sqldb: unknown function %q", name)
	}
	return func(r *Result, row int) (Datum, error) {
		vals := make([]Datum, len(args))
		for i, f := range args {
			v, err := f(r, row)
			if err != nil {
				return Null(), err
			}
			vals[i] = v
		}
		return fn(vals)
	}, nil
}

// udfCall is one compiled call site of a registered UDF.
type udfCall struct {
	db   *DB
	ctx  context.Context
	name string
	fn   UDFFunc
	args []evalFn
}

// compileUDFCall compiles a call of udf; hoisted is as for compile.
func (db *DB) compileUDFCall(ctx context.Context, t *FuncCall, udf *ScalarUDF, schema []OutCol, hoisted map[*FuncCall][]Datum) (*udfCall, error) {
	name := strings.ToLower(t.Name)
	if udf.Arity >= 0 && len(t.Args) != udf.Arity {
		return nil, fmt.Errorf("sqldb: %s expects %d arguments, got %d", name, udf.Arity, len(t.Args))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	c := &udfCall{db: db, ctx: ctx, name: name, fn: udf.Fn, args: make([]evalFn, len(t.Args))}
	for i, a := range t.Args {
		f, err := db.compile(ctx, a, schema, hoisted)
		if err != nil {
			return nil, err
		}
		c.args[i] = f
	}
	return c, nil
}

// eval evaluates the arguments at rows [lo, hi) of r and calls the UDF
// once on that batch.
func (c *udfCall) eval(r *Result, lo, hi int) ([]Datum, error) {
	n, width := hi-lo, len(c.args)
	vals := make([]Datum, n*width)
	calls := make([][]Datum, n)
	for i := range calls {
		args := vals[i*width : (i+1)*width : (i+1)*width]
		for j, f := range c.args {
			v, err := f(r, lo+i)
			if err != nil {
				return nil, err
			}
			args[j] = v
		}
		calls[i] = args
	}
	c.db.Profile.noteUDF(c.name, n)
	return safeUDFCall(c.ctx, c.name, c.fn, calls)
}

// builtinScalars is the scalar function library (ClickHouse-flavoured
// names).
var builtinScalars = map[string]func([]Datum) (Datum, error){
	"abs":   numUnary("abs", math.Abs),
	"sqrt":  numUnary("sqrt", math.Sqrt),
	"exp":   numUnary("exp", math.Exp),
	"ln":    numUnary("ln", math.Log),
	"log":   numUnary("log", math.Log),
	"floor": numUnary("floor", math.Floor),
	"ceil":  numUnary("ceil", math.Ceil),
	"round": numUnary("round", math.Round),
	"sign": numUnary("sign", func(x float64) float64 {
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		}
		return 0
	}),
	"pow":   numBinary("pow", math.Pow),
	"power": numBinary("power", math.Pow),
	"greatest": func(args []Datum) (Datum, error) {
		return extreme("greatest", args, func(c int) bool { return c > 0 })
	},
	"least": func(args []Datum) (Datum, error) {
		return extreme("least", args, func(c int) bool { return c < 0 })
	},
	"if": func(args []Datum) (Datum, error) {
		if len(args) != 3 {
			return Null(), fmt.Errorf("sqldb: if expects 3 arguments")
		}
		b, _ := args[0].AsBool()
		if b {
			return args[1], nil
		}
		return args[2], nil
	},
	"coalesce": func(args []Datum) (Datum, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null(), nil
	},
	"tofloat64": func(args []Datum) (Datum, error) {
		if len(args) != 1 {
			return Null(), fmt.Errorf("sqldb: toFloat64 expects 1 argument")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		if f, ok := args[0].AsFloat(); ok {
			return Float(f), nil
		}
		return Null(), fmt.Errorf("sqldb: cannot convert %s to Float64", args[0].T)
	},
	"toint64": func(args []Datum) (Datum, error) {
		if len(args) != 1 {
			return Null(), fmt.Errorf("sqldb: toInt64 expects 1 argument")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		if v, ok := args[0].AsInt(); ok {
			return Int(v), nil
		}
		return Null(), fmt.Errorf("sqldb: cannot convert %s to Int64", args[0].T)
	},
	"tostring": func(args []Datum) (Datum, error) {
		if len(args) != 1 {
			return Null(), fmt.Errorf("sqldb: toString expects 1 argument")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Str(args[0].String()), nil
	},
	"length": func(args []Datum) (Datum, error) {
		if len(args) != 1 {
			return Null(), fmt.Errorf("sqldb: length expects 1 argument")
		}
		switch args[0].T {
		case TString:
			return Int(int64(len(args[0].S))), nil
		case TBlob:
			return Int(int64(len(args[0].B))), nil
		}
		return Null(), fmt.Errorf("sqldb: length of %s", args[0].T)
	},
	"concat": func(args []Datum) (Datum, error) {
		var sb strings.Builder
		for _, a := range args {
			if a.IsNull() {
				return Null(), nil
			}
			sb.WriteString(a.String())
		}
		return Str(sb.String()), nil
	},
	"lower": strUnary("lower", strings.ToLower),
	"upper": strUnary("upper", strings.ToUpper),
}

func numUnary(name string, f func(float64) float64) func([]Datum) (Datum, error) {
	return func(args []Datum) (Datum, error) {
		if len(args) != 1 {
			return Null(), fmt.Errorf("sqldb: %s expects 1 argument", name)
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		v, ok := args[0].AsFloat()
		if !ok {
			return Null(), fmt.Errorf("sqldb: %s of %s", name, args[0].T)
		}
		return Float(f(v)), nil
	}
}

func numBinary(name string, f func(a, b float64) float64) func([]Datum) (Datum, error) {
	return func(args []Datum) (Datum, error) {
		if len(args) != 2 {
			return Null(), fmt.Errorf("sqldb: %s expects 2 arguments", name)
		}
		if args[0].IsNull() || args[1].IsNull() {
			return Null(), nil
		}
		a, aok := args[0].AsFloat()
		b, bok := args[1].AsFloat()
		if !aok || !bok {
			return Null(), fmt.Errorf("sqldb: %s of %s, %s", name, args[0].T, args[1].T)
		}
		return Float(f(a, b)), nil
	}
}

func strUnary(name string, f func(string) string) func([]Datum) (Datum, error) {
	return func(args []Datum) (Datum, error) {
		if len(args) != 1 {
			return Null(), fmt.Errorf("sqldb: %s expects 1 argument", name)
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		if args[0].T != TString {
			return Null(), fmt.Errorf("sqldb: %s of %s", name, args[0].T)
		}
		return Str(f(args[0].S)), nil
	}
}

func extreme(name string, args []Datum, pick func(int) bool) (Datum, error) {
	if len(args) == 0 {
		return Null(), fmt.Errorf("sqldb: %s expects at least 1 argument", name)
	}
	best := args[0]
	for _, a := range args[1:] {
		if a.IsNull() {
			return Null(), nil
		}
		c, err := Compare(a, best)
		if err != nil {
			return Null(), err
		}
		if pick(c) {
			best = a
		}
	}
	return best, nil
}

// isAggregateName reports whether a function name denotes an aggregate.
func isAggregateName(name string) bool {
	switch name {
	case "count", "sum", "avg", "min", "max", "stddevsamp", "stddevpop", "varsamp", "varpop", "argmax", "argmin":
		return true
	}
	return false
}

// exprHasAggregate reports whether an expression calls an aggregate.
func exprHasAggregate(e Expr) bool {
	found := false
	Walk(e, func(x Expr) bool {
		if fc, ok := x.(*FuncCall); ok && isAggregateName(strings.ToLower(fc.Name)) {
			found = true
		}
		return !found
	})
	return found
}
