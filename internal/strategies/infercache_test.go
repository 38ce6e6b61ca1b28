package strategies

import (
	"context"
	"testing"

	"repro/internal/colquery"
	"repro/internal/obs"
)

// TestCachedResultsMatchUncachedAllStrategies is the differential
// correctness gate for inference memoization: for every strategy and
// every template type, a cache-enabled context run twice must return
// exactly the rows an uncached context returns.
func TestCachedResultsMatchUncachedAllStrategies(t *testing.T) {
	for _, typ := range []colquery.QueryType{colquery.Type1, colquery.Type2, colquery.Type3, colquery.Type4} {
		q, err := colquery.GenerateAnalyzed(typ, colquery.TemplateParams{Selectivity: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range All() {
			cold := testContext(t)
			res, _, err := s.Execute(context.Background(), cold, q)
			if err != nil {
				t.Fatalf("%s uncached on %v: %v", s.Name(), typ, err)
			}
			want := resultKey(res)

			warm := testContext(t)
			warm.EnableInferCache(4096)
			for pass := 0; pass < 2; pass++ {
				res, _, err := s.Execute(context.Background(), warm, q)
				if err != nil {
					t.Fatalf("%s cached pass %d on %v: %v", s.Name(), pass, typ, err)
				}
				if got := resultKey(res); got != want {
					t.Fatalf("%s on %v pass %d: cached result differs from uncached:\n--- want ---\n%s\n--- got ---\n%s",
						s.Name(), typ, pass, want, got)
				}
			}
		}
	}
}

func TestInferCacheHitsOnRepeat(t *testing.T) {
	ctx := testContext(t)
	ctx.Metrics = obs.NewRegistry()
	ctx.EnableInferCache(4096)
	q, err := colquery.GenerateAnalyzed(colquery.Type1, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	s := &DBUDF{}
	if _, _, err := s.Execute(context.Background(), ctx, q); err != nil {
		t.Fatal(err)
	}
	st := ctx.InferCacheStats()
	if st.Misses == 0 || st.Len == 0 {
		t.Fatalf("first run should populate the cache: %+v", st)
	}
	_, bd, err := s.Execute(context.Background(), ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	st2 := ctx.InferCacheStats()
	if st2.Hits < st.Misses {
		t.Fatalf("second run should hit for every first-run miss: first %+v, second %+v", st, st2)
	}
	// Memoized calls skip the forward pass, so inference cost collapses.
	if bd.Inference > bd.Total()*0.5 && bd.Inference > 1e-3 {
		t.Logf("note: inference bucket still %v of %v after warm run", bd.Inference, bd.Total())
	}
	if got := ctx.Metrics.Counter("strategies.infercache.hits").Value(); got != st2.Hits {
		t.Fatalf("metrics hits %d != stats hits %d", got, st2.Hits)
	}
}

func TestInferCacheSharedAcrossStrategies(t *testing.T) {
	ctx := testContext(t)
	ctx.EnableInferCache(4096)
	q, err := colquery.GenerateAnalyzed(colquery.Type1, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// DB-UDF populates; DB-PyTorch should then serve (mostly) from cache:
	// both key on (artifact hash, blob hash).
	udf := &DBUDF{}
	if _, _, err := udf.Execute(context.Background(), ctx, q); err != nil {
		t.Fatal(err)
	}
	before := ctx.InferCacheStats()
	pt := &DBPyTorch{}
	if _, _, err := pt.Execute(context.Background(), ctx, q); err != nil {
		t.Fatal(err)
	}
	after := ctx.InferCacheStats()
	if after.Hits == before.Hits {
		t.Fatalf("DB-PyTorch did not reuse DB-UDF predictions: before %+v, after %+v", before, after)
	}
}

// TestSQLCacheReusesPipeline checks the DL2SQL pipeline cache: a repeated
// query must hit the whole-inference memo, and results stay identical.
func TestSQLCacheReusesPipeline(t *testing.T) {
	ctx := testContext(t)
	ctx.Metrics = obs.NewRegistry()
	ctx.EnableInferCache(4096)
	q, err := colquery.GenerateAnalyzed(colquery.Type1, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	s := &DL2SQL{}
	res1, _, err := s.Execute(context.Background(), ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	results := ctx.SQLCache.Stats()
	if results.Len == 0 {
		t.Fatalf("first DL2SQL run should populate the result memo: %+v", results)
	}
	res2, _, err := s.Execute(context.Background(), ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(res1) != resultKey(res2) {
		t.Fatal("cached DL2SQL run returned different rows")
	}
	results2 := ctx.SQLCache.Stats()
	if results2.Hits == 0 {
		t.Fatalf("second DL2SQL run should hit the result memo: %+v", results2)
	}
	if got := ctx.Metrics.Counter("dl2sql.cache.results.hits").Value(); got != results2.Hits {
		t.Fatalf("metrics hits %d != stats hits %d", got, results2.Hits)
	}
}

// TestInferCacheDisabledByDefault pins that memoization stays off unless
// explicitly enabled (determinism of the measured baselines).
func TestInferCacheDisabledByDefault(t *testing.T) {
	ctx := testContext(t)
	if ctx.InferCache != nil || ctx.SQLCache != nil {
		t.Fatal("caches must be nil on a fresh context")
	}
	if st := ctx.InferCacheStats(); st.Hits+st.Misses != 0 {
		t.Fatalf("nil cache reported activity: %+v", st)
	}
	ctx.EnableInferCache(16)
	if ctx.InferCache == nil || ctx.SQLCache == nil {
		t.Fatal("EnableInferCache did not enable")
	}
	ctx.EnableInferCache(0)
	if ctx.InferCache != nil || ctx.SQLCache != nil {
		t.Fatal("EnableInferCache(0) must disable")
	}
}
