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
		scheduled := env.Scheduler != nil
		// The prediction memo's misses run as one batch: submitted to the
		// cross-query scheduler at once, where they coalesce with other
		// queries' requests, or through one native forward pass. Only
		// physical forward passes charge inference time.
		infer := func(miss []int, keys []InferKey) ([]int, error) {
			run := pick(blobs, miss)
			if scheduled {
				r.begin(time.Now())
				classes, share, err := env.schedInferAll(ctx, env.schedNative, b, run, keys)
				r.end(time.Now(), share.stats.InferSeconds, share.ran)
				return classes, err
			}
			// The inference-time accounting reads double as the batch
			// span's start/end, so tracing adds no clock reads. The batch
			// span opens under the operator that calls the UDF, whose span
			// the engine puts on the UDF's context; untraced, querySpan is
			// nil and the context is not searched. Each batch runs a
			// shallow copy of the model: layers and weights are read-only
			// during a forward pass; only the Trace attachment point is
			// per-call state.
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
			return idxs, nil
		}
		classes, err := env.memoInfer(ctx, len(blobs), func(i int) InferKey { return b.inferKey(blobs[i]) }, scheduled, infer)
		if err != nil {
			return nil, err
		}
		out := make([]sqldb.Datum, len(classes))
		for i, c := range classes {
			out[i] = b.predictionDatum(c)
		}
		return out, nil
	}
}

// Execute implements Strategy.
func (s *DBUDF) Execute(ctx context.Context, env *Context, q *colquery.Query) (*sqldb.Result, CostBreakdown, error) {
	var bd CostBreakdown
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

	queryCtx, query := startPhase(ctx, "relational:query")
	run.querySpan = query.span
	res, err := env.Dataset.DB.ExecContext(context.WithValue(queryCtx, udfRunKey{}, run), q.SQL)
	query.span.SetAttr("udf_calls", run.calls)
	if err != nil {
		return nil, bd, failSpans(fmt.Errorf("strategies: DB-UDF execution: %w", err), query.span)
	}
	wall := query.end()

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
