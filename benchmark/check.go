package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/colquery"
	"repro/internal/qerr"
	"repro/internal/sqldb"
	"repro/internal/strategies"
)

// answer is a result in a form that compares rows in any order: every
// value with its type, column names left out because strategies alias
// differently.
type answer struct {
	exact  string    // the sorted rows, floats by their bits
	shape  string    // the same rows with every float elided
	floats []float64 // the elided floats, in order
}

// floatTolerance is the relative difference allowed between two floats of
// otherwise equal answers. Strategies join in different orders, so a float
// sum is reassociated and its last bits differ (a few ULPs observed); a
// missing or extra row moves a sum by many orders of magnitude more.
// Everything but floats, and every float whose bits agree, is compared
// exactly.
const floatTolerance = 1e-12

func canon(res *sqldb.Result) answer {
	if res == nil {
		return answer{exact: "<none>", shape: "<none>"}
	}
	type row struct {
		key, exact, shape string // key sorts rows; floats coarse so that near-equal rows sort alike
		floats            []float64
	}
	rows := make([]row, res.NumRows())
	var key, exact, shape []byte
	for i := range rows {
		key, exact, shape = key[:0], exact[:0], shape[:0]
		var floats []float64
		for _, c := range res.Cols {
			d := c.Get(i)
			var v []byte
			switch d.T {
			case sqldb.TNull:
				v = append(v, 'N')
			case sqldb.TInt:
				v = strconv.AppendInt(append(v, 'i'), d.I, 10)
			case sqldb.TBool:
				v = strconv.AppendInt(append(v, 'b'), d.I, 10)
			case sqldb.TString:
				v = strconv.AppendQuote(append(v, 's'), d.S)
			case sqldb.TBlob:
				v = strconv.AppendQuote(append(v, 'x'), string(d.B))
			case sqldb.TFloat:
				floats = append(floats, d.F)
				key = strconv.AppendFloat(append(key, 'f'), d.F, 'e', 8, 64)
				exact = strconv.AppendUint(append(exact, 'f'), math.Float64bits(d.F), 16)
				shape = append(shape, 'f')
			}
			key, exact, shape = append(append(key, v...), ','), append(append(exact, v...), ','), append(append(shape, v...), ',')
		}
		rows[i] = row{string(key), string(exact), string(shape), floats}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	a := answer{}
	var eb, sb strings.Builder
	eb.WriteString(strconv.Itoa(len(res.Cols)))
	sb.WriteString(strconv.Itoa(len(res.Cols)))
	for _, r := range rows {
		eb.WriteString("|" + r.exact)
		sb.WriteString("|" + r.shape)
		a.floats = append(a.floats, r.floats...)
	}
	a.exact, a.shape = eb.String(), sb.String()
	return a
}

// same reports whether two answers hold the same rows.
func (a answer) same(b answer) bool {
	if a.exact == b.exact {
		return true
	}
	if a.shape != b.shape || len(a.floats) != len(b.floats) {
		return false
	}
	for i, x := range a.floats {
		y := b.floats[i]
		if x != y && !(math.Abs(x-y) <= floatTolerance*math.Max(math.Abs(x), math.Abs(y))) {
			return false
		}
	}
	return true
}

// checker holds the reference answers; sessions share it read-only.
type checker struct {
	refs map[string]answer // refKey -> the reference answer
}

// refStrategyFor names the strategy an operation is checked against: a
// different one from the one that ran it.
func refStrategyFor(o op) string {
	switch {
	case o.Kind != kindColQuery:
		return ""
	case o.Strategy == "DB-UDF":
		return "DB-PyTorch"
	}
	return "DB-UDF"
}

func refKey(o op) string {
	return refStrategyFor(o) + "\x00" + o.SQL + "\x00" + strconv.FormatInt(o.Arg, 10)
}

// outcome classifies one finished operation. A wrong answer, a typed
// error, a refusal (429) and a timeout are all failures.
func (c *checker) outcome(o op, res *sqldb.Result, err error) (ok bool, why string) {
	switch {
	case err != nil:
		return false, qerr.Class(err) + ": " + err.Error()
	case o.Kind == kindWrite:
		return true, ""
	}
	want, known := c.refs[refKey(o)]
	if !known {
		return false, "no reference answer"
	}
	if got := canon(res); !got.same(want) {
		return false, fmt.Sprintf("wrong answer: got %.80q, want %.80q", got.exact, want.exact)
	}
	return true, ""
}

// buildRefs computes the reference answer of every distinct operation on a
// twin of the fixture — same data, embedded, every cache and the scheduler
// off — with the strategy refStrategyFor names, or directly on the twin's
// engine for plain SQL.
func buildRefs(ctx context.Context, sp spec, scripts [][]op) (map[string]answer, error) {
	twin := sp
	twin.Served, twin.PlanCache, twin.InferCache, twin.Scheduler = false, 0, false, false
	f, err := newFixture(ctx, twin)
	if err != nil {
		return nil, err
	}
	defer f.close()
	strats := strategyTable()
	refs := map[string]answer{}
	for _, script := range scripts {
		for _, o := range script {
			key := refKey(o)
			if _, done := refs[key]; done || o.Kind == kindWrite {
				continue
			}
			var res *sqldb.Result
			switch o.Kind {
			case kindColQuery:
				q, err := colquery.Analyze(o.SQL)
				if err != nil {
					return nil, fmt.Errorf("reference for %s: %w", o.Cell, err)
				}
				res, _, err = strats[refStrategyFor(o)].Execute(ctx, f.env, q)
				if err != nil {
					return nil, fmt.Errorf("reference for %s: %w", o.Cell, err)
				}
			case kindPoint:
				st, err := f.ds.DB.Prepare(o.SQL)
				if err != nil {
					return nil, err
				}
				if res, err = st.QueryContext(ctx, sqldb.Int(o.Arg)); err != nil {
					return nil, fmt.Errorf("reference for %s: %w", o.Cell, err)
				}
			default:
				if res, err = f.ds.DB.QueryContext(ctx, o.SQL); err != nil {
					return nil, fmt.Errorf("reference for %s: %w", o.Cell, err)
				}
			}
			refs[key] = canon(res)
		}
	}
	return refs, nil
}

// strategyTable maps the paper's names onto fresh strategy values.
func strategyTable() map[string]strategies.Strategy {
	out := map[string]strategies.Strategy{}
	for _, s := range strategies.All() {
		out[s.Name()] = s
	}
	return out
}
