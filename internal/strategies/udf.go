package strategies

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/colquery"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sqldb"
)

// DBUDF is the loose-integration strategy: the compiled model artifact is
// linked into the database as a built-in scalar UDF, and the collaborative
// query executes unmodified. The optimizer sees the UDF as a black box
// (its cost and selectivity are unknown), which is exactly the limitation
// Table III records for this approach. Context.Bind registers each nUDF
// once; an execution hands its accounting to the UDF on the statement
// context (udfRun), so concurrent executions never share it.
type DBUDF struct{}

// Name implements Strategy.
func (s *DBUDF) Name() string { return "DB-UDF" }

// errNoUDFRun is returned when SQL outside a DB-UDF execution calls a
// bound nUDF: the UDF is in the catalog, but no execution loaded its
// models or accounts for its calls.
var errNoUDFRun = errors.New("strategies: nUDF called outside a DB-UDF execution")

// udfRun is one DB-UDF execution's state, carried to the bound nUDFs on
// the statement context. The nUDFs are ParallelSafe — the morsel-driven
// executor may call them from several workers — so the accumulators sit
// behind mu.
type udfRun struct {
	env       *Context
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

// nudfFn is the body of a bound nUDF: a batch of calls runs through
// env.infer on the native backend, with inference time accumulating
// separately from the enclosing relational execution. It holds no
// per-query state; the run arrives with the statement context.
func nudfFn(name string) sqldb.UDFFunc {
	return func(ctx context.Context, calls [][]sqldb.Datum) ([]sqldb.Datum, error) {
		r, _ := ctx.Value(udfRunKey{}).(*udfRun)
		if r == nil {
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
		classes, err := env.infer(ctx, env.native, b, blobs, func(batch [][]byte, run inferRun) ([]int, error) {
			// The inference-time accounting reads double as the batch
			// span's start/end, so tracing adds no clock reads. The batch
			// span opens under the operator that calls the UDF, whose span
			// the engine puts on the UDF's context; untraced, querySpan is
			// nil and the context is not searched. Only physical forward
			// passes charge inference time.
			start := time.Now()
			r.begin(start)
			parent := r.querySpan
			if parent != nil {
				if op := obs.SpanFromContext(ctx); op != nil {
					parent = op
				}
			}
			span := parent.StartChildAt("inference:"+name, start)
			span.SetAttr("batch", len(batch))
			classes, share, err := run(obs.ContextWithSpan(ctx, span))
			end := time.Now()
			span.FinishAt(end)
			r.end(end, share.InferSeconds, pick(batch, share.Ran))
			return classes, err
		})
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
	// model-load cost; loadModel decodes it only once, and the native
	// backend runs the batches on the loaded model. On GPU settings the
	// weights also cross the PCIe bus once. A load failure (here, the
	// udf.decode fault point) is an availability problem — the fallback
	// ladder degrades it to DL2SQL.
	run := &udfRun{env: env}
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
		_, secs, err := env.loadModel(b.artifactHash, b.Artifact)
		if err != nil {
			return nil, bd, failSpans(fmt.Errorf("strategies: loading UDF %s: %w", name, err), loadSpan)
		}
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
