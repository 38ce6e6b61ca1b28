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
// extension point. The executor calls Fn on batches of exactly the rows
// that reach the call — past the filters before it, the AND/OR operands
// that decide without it and the CASE branches that do not lead to it —
// at most udfBatchRows calls per batch (see vector.go); wrap a per-row
// function with RowUDF. Cost is the optimizer's per-call cost estimate in
// abstract cost units; EstimateSelectivity (optional) reports the fraction
// of rows expected to satisfy `udf(x) = value` predicates, per Eq. (10).
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
