package strategies

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/colquery"
	"repro/internal/faults"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/schedule"
	"repro/internal/sqldb"
)

// DBPyTorch is the independent-processing strategy: the database and the DL
// serving system are separate components, and the application layer
// coordinates them. The cross-system boundary is real — candidate keyframes
// are serialized over a byte pipe to a serving goroutine, which deserializes
// them, runs batch inference (one stacked forward pass per nn.MaxStack
// keyframes), and streams serialized predictions back. The
// serialization, transfer, and model-load time land in the loading bucket;
// only the forward passes count as inference; the two relational phases
// (candidate extraction and final merge query) count as relational cost.
type DBPyTorch struct{}

// Name implements Strategy.
func (s *DBPyTorch) Name() string { return "DB-PyTorch" }

// Execute implements Strategy.
func (s *DBPyTorch) Execute(ctx context.Context, env *Context, q *colquery.Query) (*sqldb.Result, CostBreakdown, error) {
	var bd CostBreakdown
	ctx, root := obs.StartSpan(ctx, "strategy:"+s.Name())
	defer root.Finish()

	// Phase 1 (relational): extract candidates with the database.
	candCtx, cand := startPhase(ctx, "relational:candidates")
	cands, err := videoSideCandidates(candCtx, env, q)
	cand.span.SetAttr("candidates", len(cands))
	if err != nil {
		return nil, bd, failSpans(err, cand.span)
	}
	bd.Relational += cand.end()

	// Phase 2 (cross-system): ship candidates to the serving component once
	// per referenced model, batch style.
	blobs := make([][]byte, len(cands))
	preds := make(map[int64]map[string]sqldb.Datum, len(cands))
	for i, c := range cands {
		blobs[i] = c.blob
		preds[c.videoID] = map[string]sqldb.Datum{}
	}
	var totalBytes int64
	for _, name := range q.UDFNames {
		b := env.Bindings[name]
		if b == nil {
			return nil, bd, fmt.Errorf("strategies: no model bound for %s", name)
		}
		// Serving: the memo's misses cross the serving boundary as one
		// batch, on its own or coalesced by the scheduler with concurrent
		// queries' batches. The breaker and retry pipe guard every
		// physical batch either way, so the fallback ladder sees the same
		// error classes. Only physical forward passes charge inference and
		// overhead.
		classes, err := env.infer(ctx, env.serving, b, blobs, func(batch [][]byte, run inferRun) ([]int, error) {
			serveCtx, p := startPhase(ctx, "serving:"+name)
			p.span.SetAttr("candidates", len(batch))
			classes, share, err := run(serveCtx)
			if err != nil {
				return nil, failSpans(fmt.Errorf("strategies: serving %s: %w", name, err), p.span)
			}
			p.end()
			// The serving pathway pays per-call framework dispatch overhead
			// and the heavier DL-framework model deserialization (see
			// hwprofile). Everything that is not a forward pass is
			// cross-system overhead, plus the batch's model load: the
			// recorded decode's cost, since the serving loop reuses the
			// decoded model.
			bd.Inference += env.Profile.ScaleInference(share.InferSeconds) + env.Profile.DLCallOverhead(len(share.Ran))
			bd.Loading += share.WallSeconds - share.InferSeconds + env.Profile.DLLoadCost(share.DecodeSeconds)
			totalBytes += int64(len(b.Artifact))
			for _, blob := range batch {
				totalBytes += int64(len(blob))
			}
			return classes, nil
		})
		if err != nil {
			return nil, bd, err
		}
		for i, c := range cands {
			preds[c.videoID][name] = b.predictionDatum(classes[i])
		}
	}
	// GPU settings ship the model and the batch across the bus once.
	bd.Loading += env.Profile.TransferCost(totalBytes)

	// Phase 3 (relational): merge predictions back and run the final query.
	mergeCtx, merge := startPhase(ctx, "relational:final-merge")
	res, err := runMerge(mergeCtx, env, q, preds, nil)
	if err != nil {
		return nil, bd, failSpans(fmt.Errorf("strategies: DB-PyTorch final query: %w", err), merge.span)
	}
	merge.span.SetAttr("rows", res.NumRows())
	bd.Relational += merge.end()
	bd.Relational = env.Profile.ScaleRelational(bd.Relational)
	env.recordBreakdown(s.Name(), bd)
	return res, bd, nil
}

// serveBatch runs the serving component for one model over the candidate
// batch. The request and response cross real byte pipes: keyframes are
// serialized by the application side, deserialized by the serving side, and
// predictions come back the same way — the paper's serialization /
// de-serialization overhead is physically incurred.
//
// Each request carries its position in blobs, and each prediction comes
// back under it. Failures of the pipe itself (truncated responses, a dead
// serving loop) surface as qerr.ErrServingUnavailable so the retry loop and
// fallback ladder can tell them from data errors. Cancellation of ctx
// tears both pipes down, which unblocks every goroutine — nothing leaks.
func (env *Context) serveBatch(ctx context.Context, model uint64, artifact []byte, blobs [][]byte) ([]int, schedule.BackendStats, error) {
	if err := env.Faults.Hit(ctx, faults.PointServingError); err != nil {
		return nil, schedule.BackendStats{}, fmt.Errorf("serving: %w", err)
	}
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	stats := &schedule.BackendStats{}
	serveErr := make(chan error, 1)

	// Watchdog: a done context closes both pipes, failing every blocked
	// read/write with the classified lifecycle error.
	watchStop := make(chan struct{})
	defer close(watchStop)
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				cause := qerr.FromContext(ctx.Err())
				reqR.CloseWithError(cause)
				respW.CloseWithError(cause)
			case <-watchStop:
			}
		}()
	}

	go func() {
		serveErr <- env.servingLoop(ctx, model, artifact, reqR, respW, stats)
	}()

	// Application side: serialize the batch.
	writeErr := make(chan error, 1)
	go func() {
		w := bufio.NewWriter(reqW)
		var hdr [12]byte
		binary.LittleEndian.PutUint32(hdr[:4], uint32(len(blobs)))
		if _, err := w.Write(hdr[:4]); err != nil {
			writeErr <- err
			return
		}
		for i, blob := range blobs {
			binary.LittleEndian.PutUint64(hdr[:8], uint64(i))
			binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(blob)))
			if _, err := w.Write(hdr[:12]); err != nil {
				writeErr <- err
				return
			}
			if _, err := w.Write(blob); err != nil {
				writeErr <- err
				return
			}
		}
		if err := w.Flush(); err != nil {
			writeErr <- err
			return
		}
		writeErr <- reqW.Close()
	}()

	// Application side: deserialize predictions. A short or broken response
	// stream means the serving component died mid-batch: drain its actual
	// error if it reported one, else classify the pipe failure itself.
	out := make([]int, len(blobs))
	r := bufio.NewReader(respR)
	readFail := func(i int, err error) error {
		// Let the serving loop finish so its (more precise) error wins and
		// no goroutine outlives the call.
		reqR.CloseWithError(err)
		<-writeErr
		if serr := <-serveErr; serr != nil {
			return serr
		}
		if qerr.Lifecycle(err) {
			return err
		}
		return fmt.Errorf("%w: reading prediction %d: %v", qerr.ErrServingUnavailable, i, err)
	}
	var cnt [4]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, schedule.BackendStats{}, readFail(-1, err)
	}
	n := int(binary.LittleEndian.Uint32(cnt[:]))
	var rec [12]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return nil, schedule.BackendStats{}, readFail(i, err)
		}
		pos := binary.LittleEndian.Uint64(rec[:8])
		if pos >= uint64(len(out)) {
			return nil, schedule.BackendStats{}, readFail(i, fmt.Errorf("prediction for request %d of %d", pos, len(out)))
		}
		out[pos] = int(int32(binary.LittleEndian.Uint32(rec[8:12])))
	}
	if err := <-writeErr; err != nil {
		if qerr.Lifecycle(err) {
			return nil, schedule.BackendStats{}, err
		}
		return nil, schedule.BackendStats{}, fmt.Errorf("%w: writing request batch: %v", qerr.ErrServingUnavailable, err)
	}
	if err := <-serveErr; err != nil {
		return nil, schedule.BackendStats{}, err
	}
	if n != len(out) {
		return nil, schedule.BackendStats{}, fmt.Errorf("%w: serving answered %d of %d requests", qerr.ErrServingUnavailable, n, len(out))
	}
	return out, *stats, nil
}

// servingLoop is the DL system: it loads the model artifact, reads
// serialized keyframes, runs batch inference — one PredictBatch per chunk
// of nn.MaxStack requests — and writes serialized predictions. The model
// comes from loadModel, which decodes each artifact once. Its spans open
// under the span on ctx: the serving phase's, or a retry's.
// A panic anywhere in the loop (malformed artifact, tensor shape bug) is
// recovered and reported as a serving failure rather than crashing the
// process.
func (env *Context) servingLoop(ctx context.Context, hash uint64, artifact []byte, req *io.PipeReader, resp *io.PipeWriter, stats *schedule.BackendStats) (err error) {
	defer resp.Close()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", qerr.ErrServingUnavailable, qerr.Recovered("serving loop", r))
		}
	}()
	// The hang fault blocks here — before the loop answers anything — until
	// its d= elapses or the attempt context expires.
	if err := env.Faults.Hit(ctx, faults.PointServingHang); err != nil {
		return fmt.Errorf("serving: %w", err)
	}
	span := obs.SpanFromContext(ctx)
	decodeSpan := span.StartChild("loading:decode-model")
	shared, decodeSecs, err := env.loadModel(hash, artifact)
	decodeSpan.Finish()
	if err != nil {
		return fmt.Errorf("%w: decoding model: %v", qerr.ErrServingUnavailable, err)
	}
	stats.DecodeSeconds = decodeSecs

	r := bufio.NewReader(req)
	var cnt [4]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return servingPipeErr("reading batch count", err)
	}
	n := int(binary.LittleEndian.Uint32(cnt[:]))
	w := bufio.NewWriter(resp)
	binary.LittleEndian.PutUint32(cnt[:], uint32(n))
	if _, err := w.Write(cnt[:]); err != nil {
		return servingPipeErr("writing response count", err)
	}
	infSpan := span.StartChild("inference")
	model := *shared // the loaded model is shared; Trace is this batch's own
	model.Trace = infSpan
	defer infSpan.Finish()
	// Requests are read and predicted a chunk of nn.MaxStack at a time. The
	// blob buffers are reused from chunk to chunk: decoding copies each
	// keyframe out of its buffer.
	var hdr [12]byte
	ids := make([]int64, nn.MaxStack)
	blobs := make([][]byte, nn.MaxStack)
	for lo := 0; lo < n; lo += nn.MaxStack {
		chunk := min(nn.MaxStack, n-lo)
		for j := 0; j < chunk; j++ {
			if _, err := io.ReadFull(r, hdr[:]); err != nil {
				return servingPipeErr(fmt.Sprintf("reading request %d", lo+j), err)
			}
			ids[j] = int64(binary.LittleEndian.Uint64(hdr[:8]))
			blen := int(binary.LittleEndian.Uint32(hdr[8:12]))
			if cap(blobs[j]) < blen {
				blobs[j] = make([]byte, blen)
			}
			blobs[j] = blobs[j][:blen]
			if _, err := io.ReadFull(r, blobs[j]); err != nil {
				return servingPipeErr(fmt.Sprintf("reading blob %d", lo+j), err)
			}
		}
		idxs, secs, err := schedule.PredictKeyframes(&model, blobs[:chunk])
		stats.InferSeconds += secs
		if err != nil {
			return fmt.Errorf("serving: requests %d to %d: %w", lo, lo+chunk-1, err)
		}
		for j, idx := range idxs {
			i := lo + j
			// The partial-response fault kills the serving component
			// mid-batch: the response stream is truncated (everything
			// buffered so far is flushed, then the pipe closes) and the
			// application side sees a short read.
			if n > 1 && i == n/2 && env.Faults.Active(faults.PointServingPartial) {
				if ferr := env.Faults.Hit(ctx, faults.PointServingPartial); ferr != nil {
					w.Flush()
					return fmt.Errorf("serving: died mid-batch after %d of %d predictions: %w", i, n, ferr)
				}
			}
			binary.LittleEndian.PutUint64(hdr[:8], uint64(ids[j]))
			binary.LittleEndian.PutUint32(hdr[8:12], uint32(int32(idx)))
			if _, err := w.Write(hdr[:]); err != nil {
				return servingPipeErr(fmt.Sprintf("writing prediction %d", i), err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return servingPipeErr("flushing response", err)
	}
	return nil
}

// servingPipeErr classifies a serving-side pipe failure: lifecycle causes
// (the cancellation watchdog closed the pipe) pass through, anything else
// becomes a serving-availability error.
func servingPipeErr(op string, err error) error {
	if qerr.Lifecycle(err) {
		return err
	}
	return fmt.Errorf("%w: serving: %s: %v", qerr.ErrServingUnavailable, op, err)
}
