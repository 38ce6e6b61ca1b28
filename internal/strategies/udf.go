package strategies

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/colquery"
	"repro/internal/faults"
	"repro/internal/iotdata"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/sqldb"
	"repro/internal/tensor"
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
	querySpan *obs.Span // relational:query, parent of the inference spans

	mu            sync.Mutex
	inferSecs     float64
	calls         int
	keyframeBytes int64
}

type udfRunKey struct{}

// note charges one physical forward pass to the run.
func (r *udfRun) note(secs float64, blob []byte) {
	r.mu.Lock()
	r.inferSecs += secs
	r.calls++
	r.keyframeBytes += int64(len(blob))
	r.mu.Unlock()
}

// nudfFn is the body of a bound nUDF: it decodes the keyframe and runs
// native inference, with inference time accumulating separately from the
// enclosing relational execution. It holds no per-query state; the run
// arrives with the statement context.
func nudfFn(name string) func(context.Context, []sqldb.Datum) (sqldb.Datum, error) {
	return func(ctx context.Context, args []sqldb.Datum) (sqldb.Datum, error) {
		r, _ := ctx.Value(udfRunKey{}).(*udfRun)
		if r == nil || r.models[name] == nil {
			return sqldb.Null(), fmt.Errorf("%w: %s", errNoUDFRun, name)
		}
		blob := args[0]
		if blob.T != sqldb.TBlob {
			return sqldb.Null(), fmt.Errorf("%s expects a keyframe blob", name)
		}
		env, b := r.env, r.env.Bindings[name]
		// Scheduled call: the forward pass is submitted to the cross-query
		// scheduler, where it coalesces with other queries' requests into
		// one batched MatMul (the scheduler consults the shared cache and
		// single-flights duplicates itself). Only physical forward passes —
		// SourceBatch — charge inference time: this waiter's share of the
		// batch.
		if env.Scheduler != nil {
			res, err := env.schedInfer(ctx, env.schedNative, b, blob.B)
			if err != nil {
				return sqldb.Null(), err
			}
			if res.Source == schedule.SourceBatch {
				r.note(res.InferSeconds, blob.B)
			}
			return b.predictionDatum(res.Class), nil
		}
		// Memoized call: identical (model, keyframe) pairs skip the forward
		// pass — and its inference-time accounting — entirely. The key
		// hashes the raw blob, so hits are shared with DB-PyTorch runs over
		// the same candidates.
		var key InferKey
		if env.InferCache != nil {
			key = InferKey{Model: b.artifactHash, Input: tensor.HashBytes(blob.B)}
			if idx, ok := env.InferCache.Get(key); ok {
				return b.predictionDatum(idx), nil
			}
		}
		in, err := iotdata.KeyframeTensor(blob.B)
		if err != nil {
			return sqldb.Null(), err
		}
		// The inference-time accounting read doubles as the call span's
		// start/end, so tracing a call adds no clock reads. Each call runs a
		// shallow copy of the model: layers and weights are read-only during
		// Forward; only the Trace attachment point is per-call state.
		start := time.Now()
		callSpan := r.querySpan.StartChildAt("inference:"+name, start)
		mc := *r.models[name]
		mc.Trace = callSpan
		idx, _, err := mc.Predict(in)
		wall := time.Since(start)
		stratAcctFrom(ctx).noteInfer(1)
		callSpan.FinishAt(start.Add(wall))
		r.note(wall.Seconds(), blob.B)
		if err != nil {
			return sqldb.Null(), err
		}
		if env.InferCache != nil && ctx.Err() == nil {
			env.InferCache.Put(key, idx)
		}
		return b.predictionDatum(idx), nil
	}
}

// Execute implements Strategy.
func (s *DBUDF) Execute(ctx context.Context, env *Context, q *colquery.Query) (*sqldb.Result, CostBreakdown, error) {
	var bd CostBreakdown
	ctx, cancel := env.queryCtx(ctx)
	defer cancel()
	ctx, root := obs.StartSpan(ctx, "strategy:"+s.Name())
	defer root.Finish()

	// Loading: the database "recompilation" — decode each compiled artifact
	// into an executable model. On GPU settings the weights also cross the
	// PCIe bus once. A decode failure (here, the udf.decode fault point) is
	// an availability problem — the fallback ladder degrades it to DL2SQL.
	run := &udfRun{env: env, models: map[string]*nn.Model{}}
	loadSpan := root.StartChild("loading:decode-models")
	loadStart := time.Now()
	var modelBytes int64
	for _, name := range q.UDFNames {
		b := env.Bindings[name]
		if b == nil {
			return nil, bd, fmt.Errorf("strategies: no model bound for %s", name)
		}
		if err := env.Faults.Hit(ctx, faults.PointUDFDecode); err != nil {
			return nil, bd, fmt.Errorf("strategies: loading UDF %s: %w", name, err)
		}
		m, err := nn.DecodeBytes(b.Artifact)
		if err != nil {
			return nil, bd, fmt.Errorf("strategies: loading UDF %s: %w", name, err)
		}
		run.models[name] = m
		modelBytes += int64(len(b.Artifact))
	}
	bd.Loading += env.Profile.DLLoadCost(time.Since(loadStart).Seconds()) +
		env.Profile.TransferCost(modelBytes)
	loadSpan.Finish()

	run.querySpan = root.StartChild("relational:query")
	wallStart := time.Now()
	res, err := env.Dataset.DB.ExecContext(context.WithValue(ctx, udfRunKey{}, run), q.SQL)
	wall := time.Since(wallStart).Seconds()
	run.querySpan.SetAttr("udf_calls", run.calls)
	run.querySpan.Finish()
	if err != nil {
		return nil, bd, fmt.Errorf("strategies: DB-UDF execution: %w", err)
	}

	// Per-call device transfers: a UDF runs row-at-a-time, so on GPU each
	// call ships one keyframe and pays the launch overhead — the paper's
	// observation that DB-UDF is the one approach the GPU does not help.
	if env.Profile.UsesGPU && run.calls > 0 {
		perCall := env.Profile.TransferBaseSec*float64(run.calls) +
			float64(run.keyframeBytes)/1e6*env.Profile.TransferSecPerMB
		bd.Loading += perCall
	}
	// The UDF pathway pays the DL framework's per-call dispatch overhead on
	// top of the raw forward passes (see hwprofile).
	bd.Inference += env.Profile.ScaleInference(run.inferSecs) + env.Profile.DLCallOverhead(run.calls)
	bd.Relational += env.Profile.ScaleRelational(wall - run.inferSecs)
	env.recordBreakdown(s.Name(), bd)
	return res, bd, nil
}
