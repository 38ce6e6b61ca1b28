package strategies

import (
	"context"
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
// Table III records for this approach.
type DBUDF struct{}

// Name implements Strategy.
func (s *DBUDF) Name() string { return "DB-UDF" }

// Execute implements Strategy.
func (s *DBUDF) Execute(ctx context.Context, env *Context, q *colquery.Query) (*sqldb.Result, CostBreakdown, error) {
	db := env.Dataset.DB
	var bd CostBreakdown
	ctx, cancel := env.queryCtx(ctx)
	defer cancel()
	ctx, root := obs.StartSpan(ctx, "strategy:"+s.Name())
	defer root.Finish()

	// Loading: the database "recompilation" — decode each compiled artifact
	// into an executable model. On GPU settings the weights also cross the
	// PCIe bus once. A decode failure (here, the udf.decode fault point) is
	// an availability problem — the fallback ladder degrades it to DL2SQL.
	var models = map[string]*nn.Model{}
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
		models[name] = m
		modelBytes += int64(len(b.Artifact))
	}
	bd.Loading += env.Profile.DLLoadCost(time.Since(loadStart).Seconds()) +
		env.Profile.TransferCost(modelBytes)
	loadSpan.Finish()

	// Register the UDFs. Each call decodes the keyframe and runs native
	// inference; inference time accumulates separately from the enclosing
	// relational execution. querySpan is assigned before the query runs so
	// the per-call inference spans created inside each UDF nest under it.
	// The UDFs are ParallelSafe: the morsel-driven executor may invoke them
	// from several workers at once, so the shared accounting counters sit
	// behind a mutex and each call runs a shallow per-call copy of the
	// model (layers/weights are read-only during Forward; only the Trace
	// attachment point is per-call state).
	var querySpan *obs.Span
	var mu sync.Mutex
	var inferSecs float64
	var calls int
	var keyframeBytes int64
	for _, name := range q.UDFNames {
		name := name
		b := env.Bindings[name]
		m := models[name]
		db.RegisterUDF(&sqldb.ScalarUDF{
			Name:         name,
			Arity:        1,
			ParallelSafe: true,
			Fn: func(args []sqldb.Datum) (sqldb.Datum, error) {
				if args[0].T != sqldb.TBlob {
					return sqldb.Null(), fmt.Errorf("%s expects a keyframe blob", name)
				}
				// Scheduled call: the forward pass is submitted to the
				// cross-query scheduler, where it coalesces with other
				// queries' requests into one batched MatMul (the scheduler
				// consults the shared cache and single-flights duplicates
				// itself). Only physical forward passes — SourceBatch —
				// charge inference time: this waiter's share of the batch.
				if env.Scheduler != nil {
					r, err := env.schedInfer(ctx, env.schedNative, b, args[0].B)
					if err != nil {
						return sqldb.Null(), err
					}
					if r.Source == schedule.SourceBatch {
						mu.Lock()
						inferSecs += r.InferSeconds
						calls++
						keyframeBytes += int64(len(args[0].B))
						mu.Unlock()
					}
					return b.predictionDatum(r.Class), nil
				}
				// Memoized call: identical (model, keyframe) pairs skip
				// the forward pass — and its inference-time accounting —
				// entirely. The key hashes the raw blob, so hits are
				// shared with DB-PyTorch runs over the same candidates.
				var key InferKey
				if env.InferCache != nil {
					key = InferKey{Model: b.artifactHash, Input: tensor.HashBytes(args[0].B)}
					if idx, ok := env.InferCache.Get(key); ok {
						return b.predictionDatum(idx), nil
					}
				}
				in, err := iotdata.KeyframeTensor(args[0].B)
				if err != nil {
					return sqldb.Null(), err
				}
				// The inference-time accounting read doubles as the call
				// span's start/end, so tracing a call adds no clock reads.
				start := time.Now()
				callSpan := querySpan.StartChildAt("inference:"+name, start)
				mc := *m
				mc.Trace = callSpan
				idx, _, err := mc.Predict(in)
				wall := time.Since(start)
				elapsed := wall.Seconds()
				stratAcctFrom(ctx).noteInfer(1)
				callSpan.FinishAt(start.Add(wall))
				mu.Lock()
				inferSecs += elapsed
				calls++
				keyframeBytes += int64(len(args[0].B))
				mu.Unlock()
				if err != nil {
					return sqldb.Null(), err
				}
				if env.InferCache != nil && ctx.Err() == nil {
					env.InferCache.Put(key, idx)
				}
				return b.predictionDatum(idx), nil
			},
			// A black-box UDF: the engine falls back to its default cost
			// guess and assumes no selectivity.
		})
	}
	defer func() {
		for _, name := range q.UDFNames {
			db.UnregisterUDF(name)
		}
	}()

	querySpan = root.StartChild("relational:query")
	wallStart := time.Now()
	res, err := db.ExecContext(ctx, q.SQL)
	wall := time.Since(wallStart).Seconds()
	querySpan.SetAttr("udf_calls", calls)
	querySpan.Finish()
	if err != nil {
		return nil, bd, fmt.Errorf("strategies: DB-UDF execution: %w", err)
	}

	// Per-call device transfers: a UDF runs row-at-a-time, so on GPU each
	// call ships one keyframe and pays the launch overhead — the paper's
	// observation that DB-UDF is the one approach the GPU does not help.
	if env.Profile.UsesGPU && calls > 0 {
		perCall := env.Profile.TransferBaseSec*float64(calls) +
			float64(keyframeBytes)/1e6*env.Profile.TransferSecPerMB
		bd.Loading += perCall
	}
	// The UDF pathway pays the DL framework's per-call dispatch overhead on
	// top of the raw forward passes (see hwprofile).
	bd.Inference += env.Profile.ScaleInference(inferSecs) + env.Profile.DLCallOverhead(calls)
	bd.Relational += env.Profile.ScaleRelational(wall - inferSecs)
	env.recordBreakdown(s.Name(), bd)
	return res, bd, nil
}
