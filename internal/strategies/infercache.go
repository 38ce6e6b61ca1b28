package strategies

// Inference memoization and the one inference call of all four strategies.
//
// Every strategy ends up running the same inference for the same (model,
// keyframe) pair whenever a collaborative query repeats — exactly the
// workload of a monitoring dashboard re-issuing Table I templates. One
// InferCache short-circuits those calls. Keys pair a model fingerprint
// with the raw keyframe blob's hash (the decoded tensor is a pure function
// of the blob, and predictions are deterministic). DB-UDF and DB-PyTorch
// fingerprint the compiled artifact, so they share hits. The DL2SQL pair
// fingerprints the stored model with dl2sql.StoredModel.Stamp, because
// their model lives in tables a statement can mutate: the stamp folds in
// the stored tables' versions.
//
// infer is the one inference call of every strategy, so it is the one step
// that reads and fills the cache and the one that hands misses to a
// scheduler. A strategy names the backend that runs its misses (a native
// forward pass, the serving pipe, the stored model's SQL pipeline) and the
// scheduler, if any, and accounts for the run. The rule:
//
//   - Lookup: infer looks every position's key up once, in the
//     InferCache. The scheduler reads the same LRU again for the keys of a
//     submission (a concurrent batch may have filled them since), but with
//     Peek, so each lookup a query makes counts one hit or one miss in
//     strategies.infercache.*.
//   - Dedup: positions sharing a missing key are inferred once.
//   - Publish: infer puts the inferred answers unless the query's context
//     is done (the run may have been abandoned partway through) or the
//     scheduler inferred them, which publishes them itself.
//   - Off: with no cache and no scheduler, infer hashes nothing, asks for
//     no model identity and hands every position to the backend as it
//     came.

import (
	"context"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/tensor"
)

// InferKey identifies one memoizable inference: the hash of the compiled
// model artifact and the hash of the raw keyframe blob. It is an alias of
// the scheduler's single-flight key, so the same LRU serves both layers:
// EnableScheduler hands env.InferCache to the scheduler as its shared
// prediction cache and entries written by either are hits for both.
type InferKey = schedule.Key

// EnableInferCache switches on inference memoization for all four
// strategies: one LRU of class predictions holding capacity entries.
// capacity <= 0 disables it. When env.Metrics is set, hit/miss/eviction
// counters appear under "strategies.infercache.*"; set Metrics before
// calling EnableInferCache.
func (env *Context) EnableInferCache(capacity int) {
	if capacity <= 0 {
		env.InferCache = nil
		return
	}
	env.InferCache = cache.New[InferKey, int](capacity)
	env.InferCache.Instrument(env.Metrics, obs.CachePrefixInfer)
}

// InferCacheStats reports the prediction-LRU counters (zero value when
// memoization is disabled).
func (env *Context) InferCacheStats() cache.Stats {
	return env.InferCache.Stats()
}

// inferRun runs one batch of misses on its backend under ctx, whose span
// the backend traces under, and returns the classes in batch order with
// the batch's share of the compute.
type inferRun func(ctx context.Context) ([]int, schedule.Share, error)

// infer returns b's class for each blob under the rule above. model is the
// memo's model identity, asked for only when a key is needed. The misses
// run on be as one batch: one sched submission when sched is non-nil, else
// one Backend.Run. wrap brackets that run with the strategy's own span and
// cost accounting: it gets the batch and calls run once. The keyframes
// whose inference ran are charged to the query's accounting here.
func (env *Context) infer(ctx context.Context, sched *schedule.Scheduler, be *schedule.Backend, b *UDFBinding,
	model func() uint64, blobs [][]byte, wrap func(batch [][]byte, run inferRun) ([]int, error)) ([]int, error) {
	n := len(blobs)
	if n == 0 {
		return nil, nil
	}
	memo := env.InferCache != nil || sched != nil
	var out, from []int
	var keys []InferKey
	batch := blobs
	if memo {
		// from[i] is the index into keys whose answer is blob i's, -1 for
		// a cache hit.
		out, from = make([]int, n), make([]int, n)
		var miss []int
		first := map[InferKey]int{}
		m := model()
		for i, blob := range blobs {
			k := InferKey{Model: m, Input: tensor.HashBytes(blob)}
			if idx, ok := env.InferCache.Get(k); ok {
				out[i], from[i] = idx, -1
				continue
			}
			j, ok := first[k]
			if !ok {
				j = len(miss)
				first[k] = j
				miss = append(miss, i)
				keys = append(keys, k)
			}
			from[i] = j
		}
		if len(miss) == 0 {
			return out, nil
		}
		batch = pick(blobs, miss)
	}
	classes, err := wrap(batch, func(ctx context.Context) ([]int, schedule.Share, error) {
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
	if err != nil {
		return nil, err
	}
	if !memo {
		return classes, nil
	}
	for i, j := range from {
		if j >= 0 {
			out[i] = classes[j]
		}
	}
	if sched == nil && ctx.Err() == nil {
		for j, k := range keys {
			env.InferCache.Put(k, classes[j])
		}
	}
	return out, nil
}

// pick returns the blobs at positions miss, which are distinct and
// ascending: blobs itself when miss names every position.
func pick(blobs [][]byte, miss []int) [][]byte {
	if len(miss) == len(blobs) {
		return blobs
	}
	out := make([][]byte, len(miss))
	for j, i := range miss {
		out[j] = blobs[i]
	}
	return out
}
