package strategies

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/colquery"
	"repro/internal/dl2sql"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/tensor"
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

// TestSQLCacheReusesPipeline checks DL2SQL's memoisation: a repeated
// query hits the prediction cache, results stay identical, and the
// strategies.infercache.hits counter mirrors the LRU's Hits.
func TestSQLCacheReusesPipeline(t *testing.T) {
	ctx := testContext(t)
	ctx.Metrics = obs.NewRegistry()
	ctx.EnableInferCache(4096)
	q := cacheQuery(t)
	s := &DL2SQL{}
	res1, _, err := s.Execute(context.Background(), ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if st := ctx.InferCacheStats(); st.Len == 0 {
		t.Fatalf("first DL2SQL run should populate the cache: %+v", st)
	}
	res2, _, err := s.Execute(context.Background(), ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(res1) != resultKey(res2) {
		t.Fatal("cached DL2SQL run returned different rows")
	}
	st := ctx.InferCacheStats()
	if st.Hits == 0 {
		t.Fatalf("second DL2SQL run should hit the cache: %+v", st)
	}
	if got := ctx.Metrics.Counter("strategies.infercache.hits").Value(); got != st.Hits {
		t.Fatalf("metrics hits %d != stats hits %d", got, st.Hits)
	}
}

// TestInferCacheDisabledByDefault pins that memoization stays off unless
// explicitly enabled (determinism of the measured baselines).
func TestInferCacheDisabledByDefault(t *testing.T) {
	ctx := testContext(t)
	if ctx.InferCache != nil {
		t.Fatal("the cache must be nil on a fresh context")
	}
	if st := ctx.InferCacheStats(); st.Hits+st.Misses != 0 {
		t.Fatalf("nil cache reported activity: %+v", st)
	}
	ctx.EnableInferCache(16)
	if ctx.InferCache == nil {
		t.Fatal("EnableInferCache did not enable")
	}
	ctx.EnableInferCache(0)
	if ctx.InferCache != nil {
		t.Fatal("EnableInferCache(0) must disable")
	}
}

// cacheQuery is the Type 1 template the DL2SQL memoisation tests run.
func cacheQuery(t *testing.T) *colquery.Query {
	t.Helper()
	q, err := colquery.GenerateAnalyzed(colquery.Type1, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestPipelineCacheResultMemo: a DL2SQL rerun answers every candidate from
// the prediction cache and runs no SQL step.
func TestPipelineCacheResultMemo(t *testing.T) {
	env := tracedContext(t)
	env.EnableInferCache(4096)
	q := cacheQuery(t)
	st1, _ := tracedExecute(t, env, &DL2SQL{}, q)
	first := env.InferCacheStats()
	if first.Len == 0 || stepSpans(st1) == 0 {
		t.Fatalf("first run: cache %+v, %d step spans", first, stepSpans(st1))
	}
	st2, _ := tracedExecute(t, env, &DL2SQL{}, q)
	second := env.InferCacheStats()
	if second.Misses != first.Misses || second.Hits-first.Hits != first.Misses {
		t.Fatalf("second run should hit for every first-run miss: first %+v, second %+v", first, second)
	}
	if n := stepSpans(st2); n != 0 {
		t.Fatalf("a fully cached run ran %d SQL steps", n)
	}
}

// TestPipelineCacheSharedAcrossTranslators pins the semantic key: the same
// model stored under another table prefix has the same stamp, so its
// predictions are the ones already cached.
func TestPipelineCacheSharedAcrossTranslators(t *testing.T) {
	env := testContext(t)
	env.EnableInferCache(4096)
	q := cacheQuery(t)
	s := &DL2SQL{}
	res1, _, err := s.Execute(context.Background(), env, q)
	if err != nil {
		t.Fatal(err)
	}
	// Swap every stored model for a copy under another prefix.
	for _, name := range q.UDFNames {
		e := env.models.entry(env.Bindings[name].artifactHash)
		other, err := dl2sql.NewTranslator(env.Dataset.DB, "other_prefix").StoreModel(e.sm.Model)
		if err != nil {
			t.Fatal(err)
		}
		if other.Stamp() != e.sm.Stamp() {
			t.Fatal("the same model stored under two prefixes has two stamps")
		}
		defer other.Drop()
		e.sm = other
	}
	before := env.InferCacheStats()
	res2, _, err := s.Execute(context.Background(), env, q)
	if err != nil {
		t.Fatal(err)
	}
	if after := env.InferCacheStats(); after.Misses != before.Misses || after.Hits == before.Hits {
		t.Fatalf("the copy should hit the shared entries: before %+v, after %+v", before, after)
	}
	if resultKey(res1) != resultKey(res2) {
		t.Fatal("the copy's run returned different rows")
	}
}

// TestPipelineCacheInvalidatedByKernelMutation: the stamp mixes the
// backing tables' live versions, so mutating a kernel table directly must
// change it and force a recompute.
func TestPipelineCacheInvalidatedByKernelMutation(t *testing.T) {
	env := testContext(t)
	env.EnableInferCache(4096)
	q := cacheQuery(t)
	s := &DL2SQL{}
	if _, _, err := s.Execute(context.Background(), env, q); err != nil {
		t.Fatal(err)
	}
	sm := env.models.entry(env.Bindings[q.UDFNames[0]].artifactHash).sm
	stampBefore := sm.Stamp()

	// Zero out a kernel table: the stored model now computes something else.
	var kernel string
	for _, name := range sm.TableNames() {
		if strings.Contains(name, "kernel") {
			kernel = name
			break
		}
	}
	if kernel == "" {
		t.Fatalf("no kernel table among %v", sm.TableNames())
	}
	if _, err := env.Dataset.DB.Exec(fmt.Sprintf("UPDATE %s SET Value = 0", kernel)); err != nil {
		t.Fatal(err)
	}
	if sm.Stamp() == stampBefore {
		t.Fatal("model stamp unchanged after kernel mutation")
	}
	hitsBefore := env.InferCacheStats().Hits
	if _, _, err := s.Execute(context.Background(), env, q); err != nil {
		t.Fatal(err)
	}
	if env.InferCacheStats().Hits != hitsBefore {
		t.Fatal("mutated model served a stale memoised result")
	}
}

// TestPipelineCacheTempTablesCleanedUp: cached DL2SQL runs, the misses
// after a purge included, leave the catalog exactly as it was after the
// models were stored — no step relation reaches it.
func TestPipelineCacheTempTablesCleanedUp(t *testing.T) {
	env := testContext(t)
	env.EnableInferCache(4096)
	q := cacheQuery(t)
	s := &DL2SQL{}
	if _, _, err := s.Execute(context.Background(), env, q); err != nil {
		t.Fatal(err)
	}
	db := env.Dataset.DB
	before := db.TableNames()
	slices.Sort(before)
	for pass := 0; pass < 2; pass++ {
		if _, _, err := s.Execute(context.Background(), env, q); err != nil {
			t.Fatal(err)
		}
		env.InferCache.Purge()
	}
	got := db.TableNames()
	slices.Sort(got)
	if !slices.Equal(got, before) {
		t.Fatalf("catalog after the cached runs %v, want %v", got, before)
	}
}

// TestMemoScheduledPyTorchOneMissPerKeyframe: with a scheduler armed, the
// strategy's lookup is the only counted one — a cold DB-PyTorch run adds
// exactly one LRU miss per distinct (model, keyframe) key, not a second
// one when the scheduler reads the same LRU.
func TestMemoScheduledPyTorchOneMissPerKeyframe(t *testing.T) {
	env := testContext(t)
	env.EnableInferCache(4096)
	defer env.EnableScheduler(schedule.Config{}).Drain()
	q := cacheQuery(t)
	cands, err := videoSideCandidates(context.Background(), env, q)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[InferKey]bool{}
	for _, name := range q.UDFNames {
		for _, c := range cands {
			keys[env.Bindings[name].inferKey(c.blob)] = true
		}
	}
	if _, _, err := (&DBPyTorch{}).Execute(context.Background(), env, q); err != nil {
		t.Fatal(err)
	}
	if st := env.InferCacheStats(); st.Misses != int64(len(keys)) {
		t.Fatalf("cold scheduled run: %d LRU misses for %d distinct keyframes (%+v)", st.Misses, len(keys), st)
	}
}

// TestMemoScheduledUDFWarmRerunSubmitsNothing: a scheduled DB-UDF run
// sends only its prediction-memo misses to the scheduler, so a warm rerun
// submits nothing.
func TestMemoScheduledUDFWarmRerunSubmitsNothing(t *testing.T) {
	env := testContext(t)
	env.EnableInferCache(4096)
	sched := env.EnableScheduler(schedule.Config{})
	defer sched.Drain()
	q := cacheQuery(t)
	res1, _, err := (&DBUDF{}).Execute(context.Background(), env, q)
	if err != nil {
		t.Fatal(err)
	}
	cold := sched.Stats().Submitted
	if cold == 0 {
		t.Fatal("the cold scheduled run submitted nothing")
	}
	res2, _, err := (&DBUDF{}).Execute(context.Background(), env, q)
	if err != nil {
		t.Fatal(err)
	}
	if warm := sched.Stats().Submitted; warm != cold {
		t.Fatalf("warm rerun submitted %d requests", warm-cold)
	}
	if resultKey(res1) != resultKey(res2) {
		t.Fatal("warm rerun returned different rows")
	}
}

// inferKey is the prediction key DB-UDF and DB-PyTorch give one keyframe
// under b's model.
func (b *UDFBinding) inferKey(blob []byte) InferKey {
	return InferKey{Model: b.artifactHash, Input: tensor.HashBytes(blob)}
}

// TestMemoInferRule pins the prediction memo's rule, which Context.infer
// keeps, on a stub backend: with the memo off every position runs and no
// model identity is asked for; armed, each distinct missing key is inferred
// once, and the answers are published only on a live context and only
// when the scheduler did not infer them — it publishes them itself.
func TestMemoInferRule(t *testing.T) {
	blobs := [][]byte{{1}, {2}, {1}}
	var ran [][]byte
	be := &schedule.Backend{ID: "stub", Run: func(_ context.Context, _ uint64, _ []byte, batch [][]byte) ([]int, schedule.BackendStats, error) {
		ran = append(ran, batch...)
		out := make([]int, len(batch))
		for j, blob := range batch {
			out[j] = int(blob[0]) * 10
		}
		return out, schedule.BackendStats{}, nil
	}}
	b := &UDFBinding{Artifact: []byte("stub"), artifactHash: 1}
	wrap := func(_ [][]byte, run inferRun) ([]int, error) {
		classes, _, err := run(context.Background())
		return classes, err
	}
	run := func(ctx context.Context, env *Context, sched *schedule.Scheduler, model func() uint64) {
		t.Helper()
		ran = nil
		got, err := env.infer(ctx, sched, be, b, model, blobs, wrap)
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{10, 20, 10}; !slices.Equal(got, want) {
			t.Fatalf("classes %v, want %v", got, want)
		}
	}
	model := func() uint64 { return 1 }

	env := &Context{}
	run(context.Background(), env, nil, func() uint64 {
		t.Fatal("memo off, but the model identity was asked for")
		return 0
	})
	if !slices.EqualFunc(ran, blobs, bytes.Equal) {
		t.Fatalf("memo off inferred %v, want every position once", ran)
	}

	env.EnableInferCache(16)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	run(done, env, nil, model)
	if !slices.EqualFunc(ran, blobs[:2], bytes.Equal) {
		t.Fatalf("inferred %v, want each distinct key once", ran)
	}
	if st := env.InferCacheStats(); st.Len != 0 || st.Misses != 3 {
		t.Fatalf("done context: cache %+v, want 3 misses and nothing published", st)
	}
	run(context.Background(), env, nil, model)
	run(context.Background(), env, nil, model)
	if st := env.InferCacheStats(); len(ran) != 0 || st.Len != 2 || st.Hits != 3 {
		t.Fatalf("warm rerun inferred %v with cache %+v, want 3 hits", ran, st)
	}

	env.EnableInferCache(16)
	shared := cache.New[InferKey, int](16)
	sched := schedule.New(schedule.Config{Cache: shared})
	defer sched.Drain()
	run(context.Background(), env, sched, model)
	if st := env.InferCacheStats(); st.Len != 0 {
		t.Fatalf("scheduled answers published by the memo: %+v", st)
	}
	if n := shared.Len(); n != 2 {
		t.Fatalf("the scheduler published %d answers, want 2", n)
	}
}
