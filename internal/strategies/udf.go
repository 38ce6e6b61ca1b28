package strategies

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/colquery"
	"repro/internal/faults"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/sqldb"
)

// DBUDF is the loose-integration strategy: the compiled model artifact is
// linked into the database as a built-in scalar UDF, and the collaborative
// query executes unmodified. The optimizer sees the UDF as a black box
// (its cost and selectivity are unknown), which is exactly the limitation
// Table III records for this approach. Context.Bind registers each nUDF
// once; an execution hands its models and accounting to the UDF on the
// statement context (udfRun), so concurrent executions never share them.
type DBUDF struct{}

// Name implements Strategy.
func (s *DBUDF) Name() string { return "DB-UDF" }

// errNoUDFRun is returned when SQL outside a DB-UDF execution calls a
// bound nUDF: the UDF is in the catalog, but no models are loaded.
var errNoUDFRun = errors.New("strategies: nUDF called outside a DB-UDF execution")

// udfRun is one DB-UDF execution's state, carried to the bound nUDFs on
// the statement context. The nUDFs are ParallelSafe — the morsel-driven
// executor may call them from several workers — so the accumulators sit
// behind mu.
type udfRun struct {
	env       *Context
	models    map[string]*nn.Model
	querySpan *obs.Span // relational:query; nil untraced

	mu            sync.Mutex
	inferSecs     float64 // summed over batches, so over parallel workers too
	calls         int
	keyframeBytes int64
	// Wall time during which at least one batch was inferring: active
	// counts the batches in flight, coverFrom is when the count last left
	// zero, and covered sums the closed stretches.
	active    int
	coverFrom time.Time
	covered   time.Duration
}

type udfRunKey struct{}

// begin marks a batch's inference as started at t.
func (r *udfRun) begin(t time.Time) {
	r.mu.Lock()
	if r.active == 0 {
		r.coverFrom = t
	}
	r.active++
	r.mu.Unlock()
}

// end marks a batch's inference as finished at t and charges its physical
// forward passes: secs of inference over blobs.
func (r *udfRun) end(t time.Time, secs float64, blobs [][]byte) {
	r.mu.Lock()
	r.active--
	if r.active == 0 {
		r.covered += t.Sub(r.coverFrom)
	}
	r.inferSecs += secs
	r.calls += len(blobs)
	for _, b := range blobs {
		r.keyframeBytes += int64(len(b))
	}
	r.mu.Unlock()
}

// nudfFn is the body of a bound nUDF: for a batch of calls it decodes the
// keyframes and runs native inference, with inference time accumulating
// separately from the enclosing relational execution. It holds no
// per-query state; the run arrives with the statement context.
func nudfFn(name string) sqldb.UDFFunc {
	return func(ctx context.Context, calls [][]sqldb.Datum) ([]sqldb.Datum, error) {
		r, _ := ctx.Value(udfRunKey{}).(*udfRun)
		if r == nil || r.models[name] == nil {
			return nil, fmt.Errorf("%w: %s", errNoUDFRun, name)
		}
		blobs := make([][]byte, len(calls))
		for i, args := range calls {
			if args[0].T != sqldb.TBlob {
				return nil, fmt.Errorf("%s expects a keyframe blob", name)
			}
			blobs[i] = args[0].B
		}
		env, b := r.env, r.env.Bindings[name]
		out := make([]sqldb.Datum, len(calls))
		// Scheduled calls: the whole batch is submitted to the cross-query
		// scheduler at once, where it coalesces with other queries' requests
		// into batched forward passes (the scheduler consults the shared cache and
		// single-flights duplicates itself). Only physical forward passes —
		// SourceBatch — charge inference time: this waiter's share of the
		// batch.
		if env.Scheduler != nil {
			keys := make([]InferKey, len(blobs))
			for i, blob := range blobs {
				keys[i] = b.inferKey(blob)
			}
			r.begin(time.Now())
			rs, err := env.schedInferAll(ctx, env.schedNative, b, blobs, keys)
			var secs float64
			var ran [][]byte
			for i, res := range rs {
				out[i] = b.predictionDatum(res.Class)
				if res.Source == schedule.SourceBatch {
					secs += res.InferSeconds
					ran = append(ran, blobs[i])
				}
			}
			r.end(time.Now(), secs, ran)
			if err != nil {
				return nil, err
			}
			return out, nil
		}
		// Memoized calls: identical (model, keyframe) pairs skip the forward
		// pass — and its inference-time accounting — entirely, within the
		// batch as across batches. The key hashes the raw blob, so hits are
		// shared with DB-PyTorch runs over the same candidates. pass[i] is
		// the forward pass answering call i, -1 for a cache hit.
		pass := make([]int, len(calls))
		var run [][]byte
		var runKeys []InferKey
		var passOf map[InferKey]int
		if env.InferCache != nil {
			passOf = map[InferKey]int{}
		}
		for i, blob := range blobs {
			if env.InferCache != nil {
				key := b.inferKey(blob)
				if idx, ok := env.InferCache.Get(key); ok {
					out[i], pass[i] = b.predictionDatum(idx), -1
					continue
				}
				if j, ok := passOf[key]; ok {
					pass[i] = j
					continue
				}
				passOf[key] = len(run)
				runKeys = append(runKeys, key)
			}
			pass[i] = len(run)
			run = append(run, blob)
		}
		if len(run) == 0 {
			return out, nil
		}
		// The inference-time accounting reads double as the batch span's
		// start/end, so tracing adds no clock reads. The batch span opens
		// under the operator that calls the UDF, whose span the engine puts
		// on the UDF's context; untraced, querySpan is nil and the context
		// is not searched. Each batch runs a shallow copy of the model:
		// layers and weights are read-only during a forward pass; only the
		// Trace attachment point is per-call state.
		start := time.Now()
		r.begin(start)
		parent := r.querySpan
		if parent != nil {
			if op := obs.SpanFromContext(ctx); op != nil {
				parent = op
			}
		}
		span := parent.StartChildAt("inference:"+name, start)
		span.SetAttr("batch", len(run))
		mc := *r.models[name]
		mc.Trace = span
		idxs, secs, err := schedule.PredictKeyframes(&mc, run)
		end := time.Now()
		span.FinishAt(end)
		r.end(end, secs, run)
		if err != nil {
			return nil, err
		}
		stratAcctFrom(ctx).noteInfer(int64(len(run)))
		for i, j := range pass {
			if j >= 0 {
				out[i] = b.predictionDatum(idxs[j])
			}
		}
		if env.InferCache != nil && ctx.Err() == nil {
			for j, key := range runKeys {
				env.InferCache.Put(key, idxs[j])
			}
		}
		return out, nil
	}
}

// Execute implements Strategy.
func (s *DBUDF) Execute(ctx context.Context, env *Context, q *colquery.Query) (*sqldb.Result, CostBreakdown, error) {
	var bd CostBreakdown
	ctx, cancel := env.queryCtx(ctx)
	defer cancel()
	ctx, root := obs.StartSpan(ctx, "strategy:"+s.Name())
	defer root.Finish()

	// Loading: the database "recompilation" of each compiled artifact into
	// an executable model, charged on every query as the recorded decode's
	// model-load cost; loadModel decodes it only once. On GPU settings the
	// weights also cross the PCIe bus once. A load failure (here, the
	// udf.decode fault point) is an availability problem — the fallback
	// ladder degrades it to DL2SQL.
	run := &udfRun{env: env, models: map[string]*nn.Model{}}
	_, loadSpan := obs.StartSpan(ctx, "loading:decode-models")
	var modelBytes int64
	var decodeSecs float64
	for _, name := range q.UDFNames {
		b := env.Bindings[name]
		if b == nil {
			return nil, bd, failSpans(fmt.Errorf("strategies: no model bound for %s", name), loadSpan)
		}
		if err := env.Faults.Hit(ctx, faults.PointUDFDecode); err != nil {
			return nil, bd, failSpans(fmt.Errorf("strategies: loading UDF %s: %w", name, err), loadSpan)
		}
		m, secs, err := env.loadModel(b.artifactHash, b.Artifact)
		if err != nil {
			return nil, bd, failSpans(fmt.Errorf("strategies: loading UDF %s: %w", name, err), loadSpan)
		}
		run.models[name] = m
		modelBytes += int64(len(b.Artifact))
		decodeSecs += secs
	}
	bd.Loading += env.Profile.DLLoadCost(decodeSecs) + env.Profile.TransferCost(modelBytes)
	loadSpan.Finish()

	queryCtx, querySpan := obs.StartSpan(ctx, "relational:query")
	run.querySpan = querySpan
	wallStart := time.Now()
	res, err := env.Dataset.DB.ExecContext(context.WithValue(queryCtx, udfRunKey{}, run), q.SQL)
	wall := time.Since(wallStart).Seconds()
	run.querySpan.SetAttr("udf_calls", run.calls)
	if err != nil {
		return nil, bd, failSpans(fmt.Errorf("strategies: DB-UDF execution: %w", err), run.querySpan)
	}
	run.querySpan.Finish()

	// Per-call device transfers: a UDF is a per-row call, so on GPU each
	// call ships one keyframe and pays the launch overhead — the paper's
	// observation that DB-UDF is the one approach the GPU does not help.
	// The executor batches the calls physically; the profile still charges
	// them one by one.
	if env.Profile.UsesGPU && run.calls > 0 {
		perCall := env.Profile.TransferBaseSec*float64(run.calls) +
			float64(run.keyframeBytes)/1e6*env.Profile.TransferSecPerMB
		bd.Loading += perCall
	}
	// The UDF pathway pays the DL framework's per-call dispatch overhead on
	// top of the raw forward passes (see hwprofile). Relational time is the
	// wall time no inference covered: parallel morsels infer at once, so
	// the summed inference seconds can exceed the wall time.
	bd.Inference += env.Profile.ScaleInference(run.inferSecs) + env.Profile.DLCallOverhead(run.calls)
	bd.Relational += env.Profile.ScaleRelational(wall - run.covered.Seconds())
	env.recordBreakdown(s.Name(), bd)
	return res, bd, nil
}
