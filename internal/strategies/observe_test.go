package strategies

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// obsContext arms the full observability stack on a test Context: a shared
// metrics registry and query-history ring wired into both the strategy
// layer and the engine, plus the sys.* catalog with live strategy state.
func obsContext(t *testing.T) *Context {
	t.Helper()
	env := testContext(t)
	env.Metrics = obs.NewRegistry()
	env.History = obs.NewQueryHistory(64)
	db := env.Dataset.DB
	db.Metrics = env.Metrics
	db.History = env.History
	db.EnableSysCatalog()
	env.AttachObservability(db)
	return env
}

// TestFallbackObservedEndToEnd is the fallback-ladder observability test:
// a chaos-injected serving failure degrades DB-PyTorch -> DB-UDF, and the
// degradation must be visible relationally — the FallbackPath in the
// recorded history, the per-node actuals in EXPLAIN ANALYZE over the very
// table holding that record.
func TestFallbackObservedEndToEnd(t *testing.T) {
	env := obsContext(t)
	env.Retry = RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, JitterSeed: 3}
	env.Faults = faults.New(1, faults.Rule{Point: faults.PointServingError})
	q := fallbackQuery(t)

	res, bd, err := ExecuteWithFallback(context.Background(), env, &DBPyTorch{}, q)
	if err != nil {
		t.Fatalf("fallback execution failed: %v", err)
	}
	if res == nil || res.NumRows() == 0 {
		t.Fatal("degraded execution returned no rows")
	}
	if want := []string{"DB-PyTorch", "DB-UDF"}; len(bd.FallbackPath) != 2 ||
		bd.FallbackPath[0] != want[0] || bd.FallbackPath[1] != want[1] {
		t.Fatalf("FallbackPath = %v, want %v", bd.FallbackPath, want)
	}

	// The strategy-level record carries what the engine recorder cannot
	// see: final strategy, fallback path, serving retries, forward passes.
	var rec *obs.QueryRecord
	for _, r := range env.History.Snapshot() {
		if r.Fallback != "" {
			r := r
			rec = &r
		}
	}
	if rec == nil {
		t.Fatal("no fallback record in history")
	}
	if rec.Strategy != "DB-UDF" || rec.Fallback != "DB-PyTorch->DB-UDF" {
		t.Fatalf("record strategy=%q fallback=%q, want DB-UDF / DB-PyTorch->DB-UDF", rec.Strategy, rec.Fallback)
	}
	if rec.Retries < 1 {
		t.Errorf("record retries = %d, want >= 1 (serving retry before degradation)", rec.Retries)
	}
	if rec.InferCalls == 0 {
		t.Errorf("record infer_calls = 0, want > 0 (DB-UDF forward passes)")
	}
	if rec.ErrClass != "" || rec.RowsOut != int64(res.NumRows()) {
		t.Errorf("record err_class=%q rows_out=%d, want clean record with %d rows", rec.ErrClass, rec.RowsOut, res.NumRows())
	}

	// The same record is queryable through the engine, and EXPLAIN ANALYZE
	// over the sys table still carries per-node actuals post-degradation.
	db := env.Dataset.DB
	sel, err := db.Query(`SELECT strategy, fallback, retries, infer_calls FROM sys.queries WHERE fallback <> ''`)
	if err != nil {
		t.Fatal(err)
	}
	if sel.NumRows() != 1 || sel.Cols[0].Get(0).S != "DB-UDF" {
		t.Fatalf("sys.queries fallback rows = %d", sel.NumRows())
	}
	ea, err := db.Exec(`EXPLAIN ANALYZE SELECT strategy FROM sys.queries WHERE fallback <> ''`)
	if err != nil {
		t.Fatal(err)
	}
	var plan strings.Builder
	for i := 0; i < ea.NumRows(); i++ {
		plan.WriteString(ea.Cols[0].Get(i).S + "\n")
	}
	if !strings.Contains(plan.String(), "SysScan sys.queries") ||
		!strings.Contains(plan.String(), "actual rows=") {
		t.Fatalf("EXPLAIN ANALYZE lost per-node actuals after degradation:\n%s", plan.String())
	}

	// The fallback hop counters use the canonical names.
	if got := env.Metrics.Counter(obs.FallbackMetric("DB-PyTorch", "DB-UDF")).Value(); got != 1 {
		t.Errorf("fallback hop counter = %d, want 1", got)
	}
	if got := env.Metrics.Counter(obs.MetricServingRetries).Value(); got < 1 {
		t.Errorf("serving retries counter = %d, want >= 1", got)
	}
}

func TestStrategyHistoryRecordsErrors(t *testing.T) {
	env := obsContext(t)
	env.Retry = RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, JitterSeed: 3}
	env.Faults = faults.New(1,
		faults.Rule{Point: faults.PointServingError},
		faults.Rule{Point: faults.PointUDFDecode},
		faults.Rule{Point: faults.PointDL2SQLTranslate})
	if _, _, err := ExecuteWithFallback(context.Background(), env, &DBPyTorch{}, fallbackQuery(t)); err == nil {
		t.Fatal("exhausted ladder unexpectedly succeeded")
	}
	recs := env.History.Snapshot()
	rec := recs[len(recs)-1]
	if rec.Strategy != "DL2SQL" || rec.ErrClass != "serving_unavailable" || rec.Err == "" {
		t.Fatalf("error record = strategy %q class %q, want DL2SQL / serving_unavailable", rec.Strategy, rec.ErrClass)
	}
}

func TestSysBreakerLiveRows(t *testing.T) {
	env := obsContext(t)
	env.Breaker = &Breaker{FailThreshold: 2, Cooldown: time.Minute}
	db := env.Dataset.DB

	res, err := db.Query(`SELECT component, state, trips FROM sys.breaker`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Cols[1].Get(0).S != "closed" {
		t.Fatalf("initial breaker row: %d rows, state %v", res.NumRows(), res.Cols[1].Get(0))
	}

	env.Breaker.Record(false)
	env.Breaker.Record(false)
	res, err = db.Query(`SELECT state, trips, fail_threshold FROM sys.breaker WHERE state = 'open'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Cols[1].Get(0).I != 1 || res.Cols[2].Get(0).I != 2 {
		t.Fatalf("tripped breaker row missing: %d rows", res.NumRows())
	}
}

func TestSysCacheInferenceRow(t *testing.T) {
	env := obsContext(t)
	env.EnableInferCache(32)
	env.InferCache.Put(InferKey{Model: 1, Input: 2}, 3)
	env.InferCache.Get(InferKey{Model: 1, Input: 2})

	res, err := env.Dataset.DB.Query(`SELECT cache, hits, len FROM sys.cache WHERE cache = 'inference'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Cols[1].Get(0).I != 1 || res.Cols[2].Get(0).I != 1 {
		t.Fatalf("inference cache row = %d rows", res.NumRows())
	}
}

func TestStrategyMetricNamesWellFormed(t *testing.T) {
	env := obsContext(t)
	if _, _, err := ExecuteWithFallback(context.Background(), env, &DBUDF{}, fallbackQuery(t)); err != nil {
		t.Fatal(err)
	}
	if err := env.Metrics.Check(); err != nil {
		t.Fatalf("registry self-check after strategy run: %v", err)
	}
	// Engine-level records from the inner relational queries interleave
	// with the strategy-level record in the shared ring.
	var sawSQL, sawStrategy bool
	for _, r := range env.History.Snapshot() {
		switch r.Strategy {
		case "sql":
			sawSQL = true
		case "DB-UDF":
			sawStrategy = true
		}
	}
	if !sawSQL || !sawStrategy {
		t.Fatalf("shared ring missing layers: engine=%v strategy=%v", sawSQL, sawStrategy)
	}
}

// TestDL2SQLInferCalls: a DL2SQL record's infer_calls counts the keyframes
// it inferred in SQL, and a rerun answered wholly from the prediction cache
// reads 0.
func TestDL2SQLInferCalls(t *testing.T) {
	env := obsContext(t)
	env.EnableInferCache(4096)
	var calls []int64
	for pass := 0; pass < 2; pass++ {
		if _, _, err := ExecuteWithFallback(context.Background(), env, &DL2SQL{}, fallbackQuery(t)); err != nil {
			t.Fatal(err)
		}
		recs := env.History.Snapshot()
		rec := recs[len(recs)-1]
		if rec.Strategy != "DL2SQL" {
			t.Fatalf("last record is %q's, want DL2SQL's", rec.Strategy)
		}
		calls = append(calls, rec.InferCalls)
	}
	if calls[0] == 0 || calls[1] != 0 {
		t.Fatalf("infer_calls = %v, want > 0 then 0 for the cached rerun", calls)
	}
}

// TestStrategySlowQueriesCounted: a strategy record over the slow
// threshold is counted in sqldb.query.slow as an engine record is, so the
// counter matches the slow ring.
func TestStrategySlowQueriesCounted(t *testing.T) {
	env := obsContext(t)
	env.History.SetSlowThreshold(time.Nanosecond)
	if _, _, err := ExecuteWithFallback(context.Background(), env, &DBUDF{}, fallbackQuery(t)); err != nil {
		t.Fatal(err)
	}
	slow := env.History.SlowSnapshot()
	if len(slow) == 0 || slow[len(slow)-1].Strategy != "DB-UDF" {
		t.Fatalf("slow ring %v, want the DB-UDF record last", slow)
	}
	if got := env.Metrics.Counter(obs.MetricSlowQueries).Value(); got != int64(len(slow)) {
		t.Fatalf("%s = %d, slow ring holds %d records", obs.MetricSlowQueries, got, len(slow))
	}
}
