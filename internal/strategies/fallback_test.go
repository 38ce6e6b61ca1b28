package strategies

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/colquery"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/schedule"
	"repro/internal/sqldb"
)

func fallbackQuery(t *testing.T) *colquery.Query {
	t.Helper()
	q, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestFallbackTwoHops(t *testing.T) {
	env := testContext(t)
	env.Metrics = obs.NewRegistry()
	env.Retry = RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, JitterSeed: 3}
	q := fallbackQuery(t)

	want, _, err := (&DL2SQL{}).Execute(context.Background(), env, q)
	if err != nil {
		t.Fatal(err)
	}

	// Serving pipe dead AND model decode broken: only DL2SQL can answer.
	env.Faults = faults.New(1,
		faults.Rule{Point: faults.PointServingError},
		faults.Rule{Point: faults.PointUDFDecode})
	res, bd, err := ExecuteWithFallback(context.Background(), env, &DBPyTorch{}, q)
	if err != nil {
		t.Fatalf("two-hop fallback failed: %v", err)
	}
	if resultKey(res) != resultKey(want) {
		t.Fatal("fallback result differs from direct DL2SQL result")
	}
	wantPath := []string{"DB-PyTorch", "DB-UDF", "DL2SQL"}
	if len(bd.FallbackPath) != 3 {
		t.Fatalf("FallbackPath = %v, want %v", bd.FallbackPath, wantPath)
	}
	for i, name := range wantPath {
		if bd.FallbackPath[i] != name {
			t.Fatalf("FallbackPath = %v, want %v", bd.FallbackPath, wantPath)
		}
	}
	for _, ctr := range []string{
		"strategy.fallback.DB-PyTorch->DB-UDF",
		"strategy.fallback.DB-UDF->DL2SQL",
	} {
		if got := env.Metrics.Counter(ctr).Value(); got != 1 {
			t.Errorf("counter %s = %d, want 1", ctr, got)
		}
	}
	if got := env.Metrics.Counter("strategy.fallback.total").Value(); got != 2 {
		t.Errorf("fallback.total = %d, want 2", got)
	}
}

// TestDL2SQLNeverWaitsOnScheduler: DL2SQL is the fallback ladder's last
// rung, so the draining scheduler that fails DB-UDF must not fail it too.
// With a drained scheduler armed, DB-UDF falls back to DL2SQL, which
// answers as a plain DL2SQL run does and submits nothing: the fallback run
// submits exactly what DB-UDF alone submits. Serial execution keeps
// DB-UDF's submissions the same from run to run.
func TestDL2SQLNeverWaitsOnScheduler(t *testing.T) {
	env := testContext(t)
	q := fallbackQuery(t)
	want, _, err := (&DL2SQL{}).Execute(context.Background(), env, q)
	if err != nil {
		t.Fatal(err)
	}
	sched := env.EnableScheduler(schedule.Config{})
	sched.Drain()
	ctx := sqldb.WithParallelism(context.Background(), 1)

	before := sched.Stats().Submitted
	if _, _, err := (&DBUDF{}).Execute(ctx, env, q); !errors.Is(err, qerr.ErrServingUnavailable) {
		t.Fatalf("DB-UDF on a drained scheduler: err = %v, want ErrServingUnavailable", err)
	}
	udfOnly := sched.Stats().Submitted - before
	if udfOnly == 0 {
		t.Fatal("DB-UDF submitted nothing to the scheduler")
	}

	before = sched.Stats().Submitted
	res, bd, err := ExecuteWithFallback(ctx, env, &DBUDF{}, q)
	if err != nil {
		t.Fatalf("fallback from DB-UDF on a drained scheduler: %v", err)
	}
	if want := []string{"DB-UDF", "DL2SQL"}; !slices.Equal(bd.FallbackPath, want) {
		t.Fatalf("FallbackPath = %v, want %v", bd.FallbackPath, want)
	}
	if resultKey(res) != resultKey(want) {
		t.Fatal("fallback result differs from a plain DL2SQL run")
	}
	if n := sched.Stats().Submitted - before; n != udfOnly {
		t.Fatalf("the fallback run submitted %d keyframes, DB-UDF alone %d: the DL2SQL rung used the scheduler", n, udfOnly)
	}
}

func TestFallbackExhaustedReturnsTypedError(t *testing.T) {
	env := testContext(t)
	env.Retry = RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, JitterSeed: 3}
	env.Faults = faults.New(1,
		faults.Rule{Point: faults.PointServingError},
		faults.Rule{Point: faults.PointUDFDecode},
		faults.Rule{Point: faults.PointDL2SQLTranslate})
	res, bd, err := ExecuteWithFallback(context.Background(), env, &DBPyTorch{}, fallbackQuery(t))
	if res != nil || err == nil {
		t.Fatalf("exhausted ladder returned res=%v err=%v", res != nil, err)
	}
	if !errors.Is(err, qerr.ErrServingUnavailable) {
		t.Fatalf("err = %v, want ErrServingUnavailable", err)
	}
	// The path records the rungs that were tried and failed.
	if len(bd.FallbackPath) != 2 {
		t.Fatalf("FallbackPath = %v, want the two failed upper rungs", bd.FallbackPath)
	}
}

func TestFallbackDoesNotEngageOnCancellation(t *testing.T) {
	env := testContext(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, bd, err := ExecuteWithFallback(ctx, env, &DBPyTorch{}, fallbackQuery(t))
	if !errors.Is(err, qerr.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if len(bd.FallbackPath) != 0 {
		t.Fatalf("cancellation triggered fallback: %v", bd.FallbackPath)
	}
}

func TestPerQueryTimeoutKnob(t *testing.T) {
	env := testContext(t)
	// Every strategy opens with at least one filtered SQL scan, so a 50ms
	// stall per morsel guarantees a 5ms deadline expires mid-query on all
	// of them (the stall itself is context-interruptible).
	env.Dataset.DB.Faults = faults.New(1,
		faults.Rule{Point: faults.PointMorselDelay, Delay: 50 * time.Millisecond})
	defer func() { env.Dataset.DB.Faults = nil }()
	for _, s := range All() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, _, err := s.Execute(ctx, env, fallbackQuery(t))
		cancel()
		if !errors.Is(err, qerr.ErrTimeout) {
			t.Fatalf("%s with 5ms budget: err = %v, want ErrTimeout", s.Name(), err)
		}
	}
}

func TestCancelledQueryDoesNotPopulateInferCaches(t *testing.T) {
	env := testContext(t)
	env.EnableInferCache(256)
	env.Dataset.DB.EnableCache(16)
	q := fallbackQuery(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range All() {
		if _, _, err := s.Execute(ctx, env, q); !errors.Is(err, qerr.ErrCancelled) {
			t.Fatalf("%s: err = %v, want ErrCancelled", s.Name(), err)
		}
	}
	if n := env.InferCache.Len(); n != 0 {
		t.Fatalf("cancelled queries left %d InferCache entries", n)
	}
	if st := env.Dataset.DB.CacheStats(); st.Plan.Len != 0 {
		t.Fatalf("cancelled queries left %d plan cache entries", st.Plan.Len)
	}

	// Same queries succeed and populate once the context is live again —
	// proving the emptiness above came from the guards, not from the
	// workload never reaching the caches.
	for _, s := range All() {
		before := env.InferCache.Len()
		if _, _, err := s.Execute(context.Background(), env, q); err != nil {
			t.Fatalf("%s live run: %v", s.Name(), err)
		}
		if s.Name() == "DL2SQL" && env.InferCache.Len() == before {
			t.Fatal("live DL2SQL run did not populate InferCache")
		}
	}
	if env.InferCache.Len() == 0 {
		t.Fatal("live run did not populate InferCache")
	}
}

// TestMidQueryTimeoutLeavesResultCachesEmpty expires the deadline in the
// middle of SQL inference (slow-morsel injection) and checks that the
// prediction cache and the plan cache stay unpopulated: results are
// only published after the unit of work completes on a live context.
func TestMidQueryTimeoutLeavesResultCachesEmpty(t *testing.T) {
	env := testContext(t)
	env.EnableInferCache(256)
	env.Dataset.DB.EnableCache(16)
	env.Dataset.DB.Faults = faults.New(1,
		faults.Rule{Point: faults.PointMorselDelay, Delay: 2 * time.Millisecond})
	defer func() { env.Dataset.DB.Faults = nil }()
	q := fallbackQuery(t)

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	_, _, err := (&DL2SQL{}).Execute(ctx, env, q)
	if !errors.Is(err, qerr.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if n := env.InferCache.Len(); n != 0 {
		t.Fatalf("timed-out query memoized %d inferences", n)
	}
}
