package strategies

// Cross-query inference scheduling for the UDF-shaped strategies.
//
// With a scheduler enabled, DB-UDF and DB-PyTorch stop running forward
// passes strategy-locally and submit every (artifact, keyframe) request to
// the shared schedule.Scheduler instead. Concurrent queries' requests
// coalesce into large batched forward passes, identical in-flight requests
// single-flight onto one computation, and the scheduler's shared cache is
// the same LRU as Context.InferCache — so memoization keeps working across
// both layers and both strategies.
//
// Two backends are wired: the native one (in-process nn.PredictBatch, used
// by DB-UDF) and a serving one that routes coalesced batches through the
// existing DB-PyTorch serving pipe — breaker, retry loop, and fault points
// included, so the fallback ladder sees exactly the error classes it
// would without the scheduler.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/qerr"
	"repro/internal/schedule"
)

// EnableScheduler wires a cross-query inference scheduler into the
// strategies layer and returns it (callers hand it to the server and to
// schedule.RegisterSysTable). Zero-value cfg fields inherit the Context's
// own wiring: the shared prediction cache defaults to env.InferCache (set
// Metrics / EnableInferCache first so instruments and memoization are
// shared), the metrics registry to env.Metrics, and the fault injector to
// env.Faults. Call with env.Scheduler = nil semantics in mind: strategies
// only route through the scheduler while the field is non-nil, so tests
// flip it off by clearing the field.
func (env *Context) EnableScheduler(cfg schedule.Config) *schedule.Scheduler {
	if cfg.Cache == nil {
		cfg.Cache = env.InferCache
	}
	if cfg.Metrics == nil {
		cfg.Metrics = env.Metrics
	}
	if cfg.Faults == nil {
		cfg.Faults = env.Faults
	}
	env.Scheduler = schedule.New(cfg)
	env.schedNative = schedule.NewNativeBackend(env.loadModel)
	env.schedServing = &schedule.Backend{ID: "serving", Run: env.runServingBatch}
	return env.Scheduler
}

// runServingBatch adapts the DB-PyTorch serving pipe to the scheduler's
// Backend contract: one coalesced batch becomes one serveWithRetry call
// (breaker, retry policy, and serving fault points all apply), with the
// batch positions standing in for video IDs on the wire.
func (env *Context) runServingBatch(ctx context.Context, model uint64, artifact []byte, blobs [][]byte) ([]int, schedule.BackendStats, error) {
	cands := make([]candidate, len(blobs))
	for i, b := range blobs {
		cands[i] = candidate{videoID: int64(i), blob: b}
	}
	results, stats, err := env.serveWithRetry(ctx, model, artifact, cands, nil)
	if err != nil {
		return nil, schedule.BackendStats{}, err
	}
	out := make([]int, len(blobs))
	for i := range blobs {
		idx, ok := results[int64(i)]
		if !ok {
			return nil, schedule.BackendStats{}, fmt.Errorf("%w: serving batch lost prediction %d of %d",
				qerr.ErrServingUnavailable, i, len(blobs))
		}
		out[i] = idx
	}
	return out, *stats, nil
}

// schedServeCandidates routes one model's cache-missing candidates, with
// their prediction keys, through the scheduler's serving backend (see
// schedInferAll). It returns videoID→class predictions plus this query's
// cost shares: serving stats (decode/infer share), total batch-wall share,
// and the number of physical forward passes charged to this query.
func (env *Context) schedServeCandidates(ctx context.Context, b *UDFBinding, cands []candidate, keys []InferKey) (map[int64]int, *schedule.BackendStats, float64, int, error) {
	blobs := make([][]byte, len(cands))
	for i, c := range cands {
		blobs[i] = c.blob
	}
	rs, err := env.schedInferAll(ctx, env.schedServing, b, blobs, keys)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	results := make(map[int64]int, len(cands))
	var stats schedule.BackendStats
	var wallShare float64
	var executed int
	for i, r := range rs {
		results[cands[i].videoID] = r.Class
		if r.Source == schedule.SourceBatch {
			stats.InferSeconds += r.InferSeconds
			stats.DecodeSeconds += r.DecodeSeconds
			wallShare += r.WallSeconds
			executed++
		}
	}
	return results, &stats, wallShare, executed, nil
}

// schedInferAll submits one inference per blob, keyed by keys[i], all in
// flight at once so they coalesce — with each other and with concurrent
// queries' submissions — into large batches, and returns the results in
// blob order. The first failed submission's error wins; the others still
// drain, and their batches complete under the scheduler's own context.
// Only a SourceBatch result was a physical forward pass (this waiter's
// share of it) and charges the per-query accounting; dedup followers and
// cache hits paid no compute.
func (env *Context) schedInferAll(ctx context.Context, be *schedule.Backend, b *UDFBinding, blobs [][]byte, keys []InferKey) ([]schedule.Result, error) {
	rs := make([]schedule.Result, len(blobs))
	errs := make([]error, len(blobs))
	var wg sync.WaitGroup
	for i, blob := range blobs {
		wg.Add(1)
		go func(i int, blob []byte) {
			defer wg.Done()
			rs[i], errs[i] = env.Scheduler.Infer(ctx, be, keys[i], b.Artifact, blob)
			if errs[i] == nil && rs[i].Source == schedule.SourceBatch {
				stratAcctFrom(ctx).noteInfer(1)
			}
		}(i, blob)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rs, nil
}
