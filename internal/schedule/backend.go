package schedule

import (
	"context"
	"fmt"
	"time"

	"repro/internal/iotdata"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/tensor"
)

// BackendStats is the backend's self-reported cost split for one batch:
// the model load charged to it versus the forward passes themselves. The
// scheduler divides both across the batch's waiters so the strategies'
// CostBreakdown buckets stay meaningful under coalescing.
type BackendStats struct {
	DecodeSeconds float64
	InferSeconds  float64
}

// Backend executes one coalesced batch. Run receives the model hash the
// batch is queued under, the model artifact shared by the whole batch and
// the raw input blobs in queue order, and must return one predicted class
// index per blob, in the same order. Backends must honour ctx (the
// scheduler's base context — cancelled only on forced drain, never by an
// individual waiter) and must wrap availability failures in
// qerr.ErrServingUnavailable so the strategies' fallback ladder sees the
// same error classes it would without the scheduler. ID namespaces the
// batch queues: requests coalesce only within one backend.
type Backend struct {
	ID  string
	Run func(ctx context.Context, model uint64, artifact []byte, blobs [][]byte) ([]int, BackendStats, error)
}

// NewNativeBackend builds the in-process backend used by the DB-UDF path:
// load returns the batch's shared decoded model by hash, with its recorded
// decode seconds, and the batch's blobs decode and run through
// PredictKeyframes — one kernel call per batch-aware layer per
// nn.MaxStack samples, bit-identical to per-sample forwards. When ctx
// carries a span, the model's layers trace under it, through a shallow
// copy of the shared model: layers and weights are read-only during a
// forward pass; only the Trace attachment point is per-call state. The
// scheduler runs its batches under its own, untraced context.
func NewNativeBackend(load func(model uint64, artifact []byte) (*nn.Model, float64, error)) *Backend {
	return &Backend{
		ID: "native",
		Run: func(ctx context.Context, model uint64, artifact []byte, blobs [][]byte) ([]int, BackendStats, error) {
			var stats BackendStats
			if err := qerr.FromContext(ctx.Err()); err != nil {
				return nil, stats, err
			}
			m, secs, err := load(model, artifact)
			stats.DecodeSeconds = secs
			if err != nil {
				// A model that fails to decode is a serving-availability
				// problem: the fallback ladder should degrade the query,
				// exactly as a per-query decode failure would.
				return nil, stats, fmt.Errorf("%w: native backend: decode model: %v", qerr.ErrServingUnavailable, err)
			}
			if span := obs.SpanFromContext(ctx); span != nil {
				mc := *m
				mc.Trace = span
				m = &mc
			}
			// A malformed input blob is a data error, not an availability
			// one — it must not trip the breaker or the fallback ladder.
			idxs, secs, err := PredictKeyframes(m, blobs)
			stats.InferSeconds = secs
			if err != nil {
				return nil, stats, fmt.Errorf("native backend: %w", err)
			}
			return idxs, stats, nil
		},
	}
}

// PredictKeyframes decodes keyframe blobs and predicts their classes with
// m, one nn.MaxStack-sized chunk at a time: a chunk is decoded, then run as
// one PredictBatch, so no more than one chunk of decoded inputs is alive.
// It is the one decode-and-predict step of both backends: the native one
// here and DB-PyTorch's serving loop.
// It also returns the seconds spent in forward passes, decoding excluded.
func PredictKeyframes(m *nn.Model, blobs [][]byte) ([]int, float64, error) {
	idxs := make([]int, 0, len(blobs))
	ins := make([]*tensor.Tensor, 0, min(len(blobs), nn.MaxStack))
	var secs float64
	for lo := 0; lo < len(blobs); lo += nn.MaxStack {
		ins = ins[:0]
		for i, b := range blobs[lo:min(lo+nn.MaxStack, len(blobs))] {
			in, err := iotdata.KeyframeTensor(b)
			if err != nil {
				return nil, secs, fmt.Errorf("keyframe %d: %w", lo+i, err)
			}
			ins = append(ins, in)
		}
		start := time.Now()
		chunk, err := m.PredictBatch(ins)
		secs += time.Since(start).Seconds()
		if err != nil {
			return nil, secs, err
		}
		idxs = append(idxs, chunk...)
	}
	return idxs, secs, nil
}
