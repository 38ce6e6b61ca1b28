package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/colquery"
	"repro/internal/obs"
	"repro/internal/sqldb"
	"repro/internal/strategies"
)

// Ablation experiments for the design choices DESIGN.md calls out. These
// go beyond the paper's reported figures: they isolate individual
// mechanisms the paper describes but does not measure separately.

// AblationBatching compares per-sample SQL inference against the batched
// (SampleID-keyed) pipeline on the same workload — quantifying the
// statement-amortization the paper attributes to batch-mode nUDF
// execution.
func (s *Suite) AblationBatching() (*Table, error) {
	t := &Table{
		ID:      "Ablation A1",
		Title:   "Per-sample vs batched DL2SQL inference (Type 3 workload)",
		Columns: []string{"Mode", "SQL statements", "Inference(s)", "Total(s)"},
		Notes: []string{
			"shape check: batching cuts the SQL statement count by ~the batch size; wall-clock totals are comparable at laptop scale (per-statement overhead is small in this engine)",
		},
	}
	q, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.5})
	if err != nil {
		return nil, err
	}
	for _, batched := range []bool{false, true} {
		strat := &strategies.DL2SQL{Optimized: false, Batched: batched}
		// Each mode runs under its own keep-all trace; its statements are
		// the step spans, the children of its model:* spans.
		traces := obs.NewTraceStore(obs.TraceStoreConfig{SampleEvery: 1, MaxSpansPerTrace: 1 << 20})
		start := time.Now()
		ctx, scope := traces.Enter(context.Background(), "ablation", "ablation", start)
		_, bd, err := strat.Execute(ctx, s.Ctx, q)
		end := time.Now()
		scope.Exit(end, "")
		if err != nil {
			return nil, err
		}
		mode := "per-sample"
		if batched {
			mode = "batched"
		}
		t.AddRow(mode, fmt.Sprintf("%d", stepSpans(traces)), f4(bd.Inference), f4(end.Sub(start).Seconds()))
	}
	return t, nil
}

// stepSpans counts the DL2SQL step spans a store retained: the children of
// its model:* spans.
func stepSpans(traces *obs.TraceStore) int {
	n := 0
	for _, st := range traces.Snapshot() {
		model := map[int]bool{}
		for _, sp := range st.Spans {
			if strings.HasPrefix(sp.Name, "model:") {
				model[sp.SpanID] = true
			} else if model[sp.ParentID] {
				n++
			}
		}
	}
	return n
}

// AblationSymmetricJoin compares the standard build/probe hash join against
// the symmetric hash join (hint rule 3) on an nUDF-keyed join, reporting
// plan choice and execution time.
func (s *Suite) AblationSymmetricJoin() (*Table, error) {
	t := &Table{
		ID:      "Ablation A2",
		Title:   "Standard vs symmetric hash join on an nUDF join key",
		Columns: []string{"Join", "Plan operator", "Time(s)", "Rows"},
		Notes: []string{
			"both algorithms return identical results; the symmetric variant produces matches incrementally (hint rule 3)",
		},
	}
	db := s.Ctx.Dataset.DB
	// A cheap deterministic stand-in UDF so the join condition carries an
	// nUDF without dominating the timing.
	db.RegisterUDF(&sqldb.ScalarUDF{
		Name: "nudf_keyid", Arity: 1,
		Fn: sqldb.RowUDF(func(_ context.Context, args []sqldb.Datum) (sqldb.Datum, error) {
			v, _ := args[0].AsInt()
			return sqldb.Int(v % 6), nil
		}),
		Cost: 10,
	})
	defer db.UnregisterUDF("nudf_keyid")
	query := `SELECT count(*) c FROM fabric F, video V WHERE nudf_keyid(V.videoID) = F.patternID`
	var rows int64
	for _, symmetric := range []bool{false, true} {
		h := &sqldb.QueryHints{SymmetricJoin: symmetric}
		plan, err := db.PlanSelect(query, h)
		if err != nil {
			return nil, err
		}
		op := "HashJoin"
		if strings.Contains(sqldb.Explain(plan), "SymmetricHashJoin") {
			op = "SymmetricHashJoin"
		}
		start := time.Now()
		res, err := db.ExecHinted(query, h)
		if err != nil {
			return nil, err
		}
		d := time.Since(start).Seconds()
		got, _ := res.Cols[0].Get(0).AsInt()
		if rows == 0 {
			rows = got
		} else if rows != got {
			return nil, fmt.Errorf("bench: join variants disagree: %d vs %d", rows, got)
		}
		name := "standard"
		if symmetric {
			name = "symmetric"
		}
		t.AddRow(name, op, f6(d), fmt.Sprintf("%d", got))
	}
	return t, nil
}

// AblationPredicateOrdering measures the engine's expensive-predicate
// ordering (rank = (selectivity−1)/cost): an expensive UDF predicate
// combined with a selective cheap predicate, with the orderer ON (default)
// vs pinned adversarially via hints.
func (s *Suite) AblationPredicateOrdering() (*Table, error) {
	t := &Table{
		ID:      "Ablation A3",
		Title:   "Expensive-predicate ordering (rank order vs forced-early UDF)",
		Columns: []string{"Ordering", "UDF calls", "Time(s)"},
		Notes: []string{
			"shape check: rank ordering evaluates the expensive UDF only on rows surviving the cheap selective predicate",
		},
	}
	db := s.Ctx.Dataset.DB
	calls := 0
	db.RegisterUDF(&sqldb.ScalarUDF{
		Name: "nudf_slowcheck", Arity: 1,
		Fn: sqldb.RowUDF(func(_ context.Context, args []sqldb.Datum) (sqldb.Datum, error) {
			calls++
			time.Sleep(50 * time.Microsecond) // simulated expensive model call
			return sqldb.Bool(true), nil
		}),
		Cost: 1e6,
	})
	defer db.UnregisterUDF("nudf_slowcheck")
	// The cheap predicate is written as `humidity > 95 + 0` so it does not
	// qualify for the vectorized column-vs-literal fast path (which always
	// runs before generic predicates); this isolates the generic
	// rank-ordering decision the ablation measures.
	query := `SELECT count(*) c FROM fabric F WHERE nudf_slowcheck(F.transID) AND F.humidity > 95 + 0`

	// Rank ordering (default): cheap selective predicate first.
	calls = 0
	start := time.Now()
	if _, err := db.Exec(query); err != nil {
		return nil, err
	}
	t.AddRow("rank (default)", fmt.Sprintf("%d", calls), f6(time.Since(start).Seconds()))

	// Adversarial: tell the optimizer the UDF is free and perfectly
	// selective, so it runs first on every row.
	calls = 0
	h := &sqldb.QueryHints{
		UDFCost:        map[string]float64{"nudf_slowcheck": 0.0001},
		UDFSelectivity: map[string]float64{"nudf_slowcheck": 0.0001},
	}
	start = time.Now()
	if _, err := db.ExecHinted(query, h); err != nil {
		return nil, err
	}
	t.AddRow("udf-first (forced)", fmt.Sprintf("%d", calls), f6(time.Since(start).Seconds()))
	return t, nil
}
