package strategies

// Inference memoization for the UDF-shaped strategies.
//
// DB-UDF and DB-PyTorch both end up running the same forward pass for the
// same (model, keyframe) pair whenever a collaborative query repeats —
// exactly the workload of a monitoring dashboard re-issuing Table I
// templates. An InferCache short-circuits those calls: keys combine the
// compiled artifact's hash with the raw keyframe blob's hash, so the two
// strategies share hits (the decoded tensor is a pure function of the
// blob, and predictions are deterministic).
//
// The DL2SQL strategies memoize inside the SQL pipeline itself (see
// dl2sql.PipelineCache wired through Context.SQLCache), because their
// model lives in tables a statement can mutate: that key folds in the
// stored tables' versions.

import (
	"repro/internal/cache"
	"repro/internal/dl2sql"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// InferKey identifies one memoizable inference: the hash of the compiled
// model artifact and the hash of the raw keyframe blob. It is an alias of
// the scheduler's single-flight key, so the same LRU serves both layers:
// EnableScheduler hands env.InferCache to the scheduler as its shared
// prediction cache and entries written by either are hits for both.
type InferKey = schedule.Key

// EnableInferCache switches on inference memoization for all four
// strategies: an LRU of class predictions for DB-UDF / DB-PyTorch
// (capacity entries) and a dl2sql PipelineCache for the DL2SQL pair
// (capacity memoized inferences). capacity <= 0 disables both. When
// env.Metrics is set, hit/miss/eviction counters appear under
// "strategies.infercache.*" and "dl2sql.cache.results.*";
// set Metrics before calling EnableInferCache.
func (env *Context) EnableInferCache(capacity int) {
	if capacity <= 0 {
		env.InferCache = nil
		env.SQLCache = nil
		return
	}
	env.InferCache = cache.New[InferKey, int](capacity)
	env.InferCache.Instrument(env.Metrics, obs.CachePrefixInfer)
	env.SQLCache = dl2sql.NewPipelineCache(capacity)
	env.SQLCache.Instrument(env.Metrics)
}

// InferCacheStats reports the prediction-LRU counters (zero value when
// memoization is disabled).
func (env *Context) InferCacheStats() cache.Stats {
	return env.InferCache.Stats()
}
