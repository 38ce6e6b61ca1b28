package strategies

// Cross-query inference scheduling for the UDF-shaped strategies.
//
// With a scheduler enabled, DB-UDF and DB-PyTorch stop running forward
// passes strategy-locally and submit every (artifact, keyframe) request
// their prediction memo misses to the shared schedule.Scheduler instead. Concurrent queries' requests
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
	"sync"

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
	// The serving backend runs one coalesced batch as one serveWithRetry
	// call: breaker, retry policy, and serving fault points all apply.
	env.schedServing = &schedule.Backend{ID: "serving", Run: func(ctx context.Context, model uint64, artifact []byte, blobs [][]byte) ([]int, schedule.BackendStats, error) {
		return env.serveWithRetry(ctx, model, artifact, blobs, nil)
	}}
	return env.Scheduler
}

// batchShare is one set of inferences' share of the batches that answered
// it: the blobs whose forward pass physically ran for it and their summed
// timing shares. Scheduled, those are the SourceBatch results; dedup
// followers and cache hits paid no compute.
type batchShare struct {
	ran   [][]byte
	stats schedule.BackendStats
	wall  float64
}

// schedInferAll submits one inference per blob, keyed by keys[i], all in
// flight at once so they coalesce — with each other and with concurrent
// queries' submissions — into large batches, and returns the classes in
// blob order with this query's share of the batches. The first failed
// submission's error wins; the others still drain, and their batches
// complete under the scheduler's own context.
func (env *Context) schedInferAll(ctx context.Context, be *schedule.Backend, b *UDFBinding, blobs [][]byte, keys []InferKey) ([]int, batchShare, error) {
	rs := make([]schedule.Result, len(blobs))
	errs := make([]error, len(blobs))
	var wg sync.WaitGroup
	for i, blob := range blobs {
		wg.Add(1)
		go func(i int, blob []byte) {
			defer wg.Done()
			rs[i], errs[i] = env.Scheduler.Infer(ctx, be, keys[i], b.Artifact, blob)
		}(i, blob)
	}
	wg.Wait()
	classes := make([]int, len(blobs))
	var share batchShare
	for i, r := range rs {
		classes[i] = r.Class
		if errs[i] == nil && r.Source == schedule.SourceBatch {
			share.ran = append(share.ran, blobs[i])
			share.stats.InferSeconds += r.InferSeconds
			share.stats.DecodeSeconds += r.DecodeSeconds
			share.wall += r.WallSeconds
		}
	}
	stratAcctFrom(ctx).noteInfer(int64(len(share.ran)))
	for _, err := range errs {
		if err != nil {
			return nil, batchShare{}, err
		}
	}
	return classes, share, nil
}
