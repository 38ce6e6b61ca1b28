package strategies

// The one inference call of the UDF-shaped strategies.
//
// DB-UDF and DB-PyTorch differ only in where the forward pass runs: in the
// engine (the native backend, in-process nn.PredictBatch) or across the
// serving pipe (the serving backend: breaker, retry loop and fault points
// included). Both backends are built once per Context, and infer is the one
// place that runs them. The prediction memo answers what it can; the misses
// run as one batch, either submitted whole to the cross-query
// schedule.Scheduler, where they coalesce with concurrent queries' batches
// and single-flight onto identical in-flight requests, or handed to
// Backend.Run once when no scheduler is armed. The scheduler's shared cache
// is the same LRU as Context.InferCache, so memoization keeps working across
// both layers and both strategies.

import (
	"context"
	"time"

	"repro/internal/schedule"
)

// EnableScheduler wires a cross-query inference scheduler into the
// strategies layer and returns it (callers hand it to the server and to
// schedule.RegisterSysTable). Zero-value cfg fields inherit the Context's
// own wiring: the shared prediction cache defaults to env.InferCache (set
// Metrics / EnableInferCache first so instruments and memoization are
// shared), the metrics registry to env.Metrics, and the fault injector to
// env.Faults. Strategies only route through the scheduler while
// env.Scheduler is non-nil, so tests turn it off by clearing the field.
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
	return env.Scheduler
}

// inferRun runs one batch of misses on its backend under ctx, whose span
// the backend traces under, and returns the classes in batch order with
// the batch's share of the compute.
type inferRun func(ctx context.Context) ([]int, schedule.Share, error)

// infer returns b's class for each blob, and is the one place that
// branches on env.Scheduler. memoInfer answers what it can; the misses run
// on be as one batch: one scheduler submission when a scheduler is armed,
// else one Backend.Run. wrap brackets that run with the strategy's own span
// and cost accounting: it gets the batch and calls run once. The keyframes
// whose forward pass ran are charged to the query's accounting here.
func (env *Context) infer(ctx context.Context, be *schedule.Backend, b *UDFBinding, blobs [][]byte,
	wrap func(batch [][]byte, run inferRun) ([]int, error)) ([]int, error) {
	sched := env.Scheduler
	key := func(i int) InferKey { return b.inferKey(blobs[i]) }
	return env.memoInfer(ctx, len(blobs), key, sched != nil, func(miss []int, keys []InferKey) ([]int, error) {
		batch := pick(blobs, miss)
		return wrap(batch, func(ctx context.Context) ([]int, schedule.Share, error) {
			var classes []int
			var share schedule.Share
			var err error
			if sched != nil {
				classes, share, err = sched.Infer(ctx, be, b.Artifact, keys, batch)
			} else {
				start := time.Now()
				classes, share.BackendStats, err = be.Run(ctx, b.artifactHash, b.Artifact, batch)
				share.WallSeconds = time.Since(start).Seconds()
				share.Ran = make([]int, len(batch))
				for i := range share.Ran {
					share.Ran[i] = i
				}
			}
			if err != nil {
				return nil, schedule.Share{}, err
			}
			stratAcctFrom(ctx).noteInfer(int64(len(share.Ran)))
			return classes, share, nil
		})
	})
}
