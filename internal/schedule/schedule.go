// Package schedule is the cross-query inference scheduler: a shared layer
// between the strategies and the model backends that coalesces pending
// forward passes from concurrent queries and sessions into large batched
// forward passes, and single-flights identical (artifact, blob) requests so
// duplicates park on the leader's result instead of recomputing.
//
// Placement (see ARCHITECTURE.md "Inference scheduling"):
//
//	server sessions ──▶ strategies (DB-UDF / DB-PyTorch)
//	                         │ Infer(key, artifact, blob)
//	                         ▼
//	                  schedule.Scheduler ── per-(backend, artifact) queues,
//	                         │              batch window + max-batch flush,
//	                         │              single-flight dedup, shared cache
//	                         ▼
//	                  Backend.Run(model, artifact, blobs) — native nn.PredictBatch
//	                  or the DB-PyTorch serving pipe, one call per batch
//
// Contracts:
//
//   - Coalescing: a submission parks in the queue for its (backend,
//     artifact) pair; the queue flushes as one batch when it reaches
//     MaxBatch or when the oldest submission has waited Window. One
//     backend call serves the whole batch.
//   - Single-flight: submissions whose (artifact-hash, blob-hash) key
//     matches a request already queued or executing do not re-enter the
//     queue; they wait on the in-flight request's result. Predictions are
//     deterministic functions of the pair, so sharing is exact.
//   - Cancellation at batch boundaries: a waiter whose context dies
//     returns its lifecycle error immediately, but the batch it joined
//     still executes to completion under the scheduler's own context —
//     a cancelled waiter never poisons its batchmates, and completed work
//     still populates the shared cache.
//   - Determinism: batching changes throughput, never results. The native
//     backend's batched kernels are bit-identical to per-sample forwards
//     (see nn.BatchLayer); the scheduler-on vs scheduler-off differential
//     suite in internal/bench pins this across all four strategies.
//   - Failure domains: a batch execution failure is delivered to every
//     waiter of that batch as the same typed error; lifecycle errors pass
//     through and backend availability failures keep their
//     qerr.ErrServingUnavailable class so the strategies' fallback ladder
//     and circuit breaker behave exactly as they do without the scheduler.
package schedule

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/qerr"
)

// Key identifies one memoizable inference: the hash of the compiled model
// artifact and the hash of the raw input blob. It is the single-flight
// identity and the shared prediction-cache key (strategies.InferKey is an
// alias of this type, so the scheduler and the strategies' InferCache
// share entries).
type Key struct {
	Model uint64
	Input uint64
}

// Source says how a submission was answered.
type Source int

const (
	// SourceBatch: a forward pass physically ran for this blob inside a
	// coalesced batch.
	SourceBatch Source = iota
	// SourceDedup: the submission single-flighted onto an identical
	// in-flight request and shared its result.
	SourceDedup
	// SourceCache: the shared prediction cache answered without queueing.
	SourceCache
)

// String renders the source for spans and sys.scheduler.
func (s Source) String() string {
	switch s {
	case SourceDedup:
		return "dedup"
	case SourceCache:
		return "cache"
	}
	return "batch"
}

// Result is one answered submission plus its cost attribution. Timing
// shares are the batch totals divided by batch size; dedup followers and
// cache hits paid no compute, so their shares are zero.
type Result struct {
	// Class is the predicted class index.
	Class int
	// Source says whether this answer came from a batch execution, an
	// in-flight dedup, or the cache.
	Source Source
	// BatchSize is the size of the coalesced batch (0 for cache hits).
	BatchSize int
	// WallSeconds is this request's share of the batch's wall time.
	WallSeconds float64
	// InferSeconds is this request's share of the backend-reported
	// forward-pass time.
	InferSeconds float64
	// DecodeSeconds is this request's share of the backend-reported model
	// decode/load time.
	DecodeSeconds float64
}

// Config sizes a Scheduler. The zero value uses the defaults noted per
// field.
type Config struct {
	// MaxBatch flushes a queue as soon as it holds this many pending
	// requests (default 32).
	MaxBatch int
	// Window is how long the oldest pending request waits before its
	// queue flushes anyway (default 500µs). Smaller windows favour
	// latency; larger ones coalesce more aggressively.
	Window time.Duration
	// DrainGrace bounds how long Drain waits for in-flight batches before
	// cancelling their context (default 5s; negative = cancel
	// immediately).
	DrainGrace time.Duration
	// Cache, when non-nil, is the shared (Key → class) prediction LRU.
	// Hits answer without queueing; completed batches populate it. Share
	// the strategies' InferCache here so both layers memoize together.
	// Infer reads it with Peek, which counts neither a hit nor a miss: the
	// caller that submits a key has already counted its own lookup.
	Cache *cache.LRU[Key, int]
	// Metrics, when non-nil, receives the sched.* counters, gauges, and
	// histograms (see internal/obs names).
	Metrics *obs.Registry
	// Faults, when non-nil, arms the sched.submit and sched.batch
	// injection points. Nil in production.
	Faults *faults.Injector
}

func (c Config) maxBatch() int {
	if c.MaxBatch <= 0 {
		return 32
	}
	return c.MaxBatch
}

func (c Config) window() time.Duration {
	if c.Window <= 0 {
		return 500 * time.Microsecond
	}
	return c.Window
}

func (c Config) drainGrace() time.Duration {
	if c.DrainGrace == 0 {
		return 5 * time.Second
	}
	return c.DrainGrace
}

// Scheduler coalesces and deduplicates inference requests across
// concurrent queries. All methods are safe for concurrent use; a nil
// *Scheduler rejects submissions (callers gate on non-nil, the way the
// strategies gate on Context.Scheduler).
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	queues   map[qkey]*queue
	inflight map[Key]*flight
	draining bool

	// wg tracks batch-execution goroutines; Drain waits on it.
	wg sync.WaitGroup
	// baseCtx is the context batches execute under — detached from any
	// single waiter, cancelled only when Drain gives up waiting.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// Counters mirrored into cfg.Metrics and surfaced by sys.scheduler.
	submitted atomic.Int64
	cacheHits atomic.Int64
	dedupHits atomic.Int64
	batches   atomic.Int64
	executed  atomic.Int64 // forward passes physically run
	rejected  atomic.Int64
	maxSeen   atomic.Int64 // largest batch observed
}

// qkey separates batch queues: requests coalesce only within the same
// backend and the same model artifact.
type qkey struct {
	backend string
	model   uint64
}

// queue is the pending batch for one (backend, artifact) pair.
type queue struct {
	be       *Backend
	model    uint64
	artifact []byte
	items    []*item
	timer    *time.Timer
}

// item is one queued submission. traceID links the batch back to the
// submitting query's trace (see flight.waiters).
type item struct {
	key     Key
	blob    []byte
	fl      *flight
	traceID string
}

// flight is the single-flight rendezvous: followers with the same key and
// the submitting waiter itself all park on done. runBatch fills the other
// fields before closing done.
type flight struct {
	done chan struct{}
	res  Result
	err  error
	// batch is the size of the batch the request rode in and waiters the
	// distinct trace IDs of all its traced submitters, comma-joined.
	// Every waiter stamps both on its own sched:infer span after it wakes —
	// spans are owner-mutated only, and a waiter whose ctx died may have
	// finished its trace long before the batch completes — so a retained
	// trace names the queries that shared its forward pass.
	batch   int
	waiters string
}

// New builds a scheduler from the config.
func New(cfg Config) *Scheduler {
	ctx, cancel := context.WithCancel(context.Background())
	return &Scheduler{
		cfg:        cfg,
		queues:     map[qkey]*queue{},
		inflight:   map[Key]*flight{},
		baseCtx:    ctx,
		baseCancel: cancel,
	}
}

// Stats is a point-in-time snapshot for sys.scheduler and tests.
type Stats struct {
	// Submitted counts all Infer calls; CacheHits and DedupHits the ones
	// answered without a fresh forward pass; Executed the forward passes
	// physically run; Batches the backend calls that ran them.
	Submitted, CacheHits, DedupHits, Executed, Batches int64
	// MaxBatch is the largest coalesced batch observed.
	MaxBatch int64
	// Rejected counts submissions refused while draining.
	Rejected int64
	// QueueDepth is the number of requests currently parked in batch
	// queues; InflightKeys the single-flight entries currently live.
	QueueDepth, InflightKeys int
	// Draining reports whether Drain has started.
	Draining bool
}

// Stats snapshots the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	depth := 0
	for _, q := range s.queues {
		depth += len(q.items)
	}
	st := Stats{
		Submitted: s.submitted.Load(), CacheHits: s.cacheHits.Load(),
		DedupHits: s.dedupHits.Load(), Executed: s.executed.Load(),
		Batches: s.batches.Load(), MaxBatch: s.maxSeen.Load(),
		Rejected: s.rejected.Load(), QueueDepth: depth,
		InflightKeys: len(s.inflight), Draining: s.draining,
	}
	s.mu.Unlock()
	return st
}

// count bumps a metrics counter when a registry is attached.
func (s *Scheduler) count(name string) {
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Counter(name).Add(1)
	}
}

// Infer submits one (artifact, blob) inference request. The call blocks
// until the shared cache answers, an identical in-flight request
// completes, or the coalesced batch containing this request executes —
// whichever happens first — or until ctx dies, in which case the typed
// lifecycle error returns immediately and the batch (if any) completes
// without this waiter. key is the artifact's stable hash (the strategies
// use UDFBinding's) and the blob's tensor.HashBytes, computed by the caller.
func (s *Scheduler) Infer(ctx context.Context, be *Backend, key Key, artifact, blob []byte) (Result, error) {
	if s == nil {
		return Result{}, errors.New("schedule: nil scheduler")
	}
	if be == nil || be.Run == nil {
		return Result{}, errors.New("schedule: nil backend")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := qerr.FromContext(ctx.Err()); err != nil {
		return Result{}, err
	}
	if err := s.cfg.Faults.Hit(ctx, faults.PointSchedSubmit); err != nil {
		return Result{}, fmt.Errorf("schedule: submit: %w", err)
	}
	s.submitted.Add(1)
	s.count(obs.MetricSchedSubmitted)
	// Child span under the submitting query's active span (nil and free
	// when the query is untraced). Finished on every return path.
	span := obs.SpanFromContext(ctx).StartChild("sched:infer")
	defer span.Finish()
	if idx, ok := s.cfg.Cache.Peek(key); ok {
		s.cacheHits.Add(1)
		s.count(obs.MetricSchedCacheHits)
		span.SetAttr("source", "cache")
		return Result{Class: idx, Source: SourceCache}, nil
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejected.Add(1)
		s.count(obs.MetricSchedRejected)
		span.SetAttr("err", "draining")
		return Result{}, fmt.Errorf("%w: inference scheduler is draining", qerr.ErrServingUnavailable)
	}
	if fl, ok := s.inflight[key]; ok {
		// Single-flight: park on the leader's result.
		s.mu.Unlock()
		s.dedupHits.Add(1)
		s.count(obs.MetricSchedDedupHits)
		span.SetAttr("source", "dedup")
		return s.wait(ctx, fl, span, true)
	}
	fl := &flight{done: make(chan struct{})}
	s.inflight[key] = fl
	qk := qkey{backend: be.ID, model: key.Model}
	q := s.queues[qk]
	if q == nil {
		q = &queue{be: be, model: key.Model, artifact: artifact}
		s.queues[qk] = q
	}
	span.SetAttr("source", "batch")
	q.items = append(q.items, &item{key: key, blob: blob, fl: fl,
		traceID: obs.TraceIDFromContext(ctx)})
	s.noteDepthLocked()
	var full *queue
	if len(q.items) >= s.cfg.maxBatch() {
		full = s.takeLocked(qk)
	} else if len(q.items) == 1 {
		q.timer = time.AfterFunc(s.cfg.window(), func() { s.flushTimed(qk) })
	}
	s.mu.Unlock()
	if full != nil {
		s.launch(full)
	}
	return s.wait(ctx, fl, span, false)
}

// wait parks on a flight until it completes or ctx dies, then stamps the
// waiter's own sched:infer span with the batch the request rode in. Dedup
// followers report SourceDedup with zero timing shares — they paid no
// compute.
func (s *Scheduler) wait(ctx context.Context, fl *flight, span *obs.Span, dedup bool) (Result, error) {
	select {
	case <-fl.done:
	case <-ctx.Done():
		return Result{}, qerr.FromContext(ctx.Err())
	}
	span.SetAttr("batch_size", fl.batch)
	if fl.waiters != "" {
		span.SetAttr("batch_waiters", fl.waiters)
	}
	if fl.err != nil {
		return Result{}, fl.err
	}
	r := fl.res
	if dedup {
		r.Source = SourceDedup
		r.WallSeconds, r.InferSeconds, r.DecodeSeconds = 0, 0, 0
	}
	return r, nil
}

// takeLocked detaches a queue's pending batch (stopping its flush timer)
// and removes the queue. Caller holds s.mu.
func (s *Scheduler) takeLocked(qk qkey) *queue {
	q := s.queues[qk]
	if q == nil {
		return nil
	}
	if q.timer != nil {
		q.timer.Stop()
	}
	delete(s.queues, qk)
	return q
}

// flushTimed is the Window expiry path.
func (s *Scheduler) flushTimed(qk qkey) {
	s.mu.Lock()
	q := s.takeLocked(qk)
	s.mu.Unlock()
	if q != nil {
		s.launch(q)
	}
}

// launch executes a detached batch on its own goroutine, tracked by the
// drain WaitGroup.
func (s *Scheduler) launch(q *queue) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.runBatch(q)
	}()
}

// runBatch executes one coalesced batch under the scheduler's base
// context and publishes per-item results (or one shared error) to every
// flight, then removes the keys from the single-flight index. Completed
// predictions populate the shared cache even if some waiters have already
// gone away — the compute happened, and the next identical request should
// not repeat it.
func (s *Scheduler) runBatch(q *queue) {
	n := len(q.items)
	start := time.Now()
	idxs, stats, err := func() ([]int, BackendStats, error) {
		if ferr := s.cfg.Faults.Hit(s.baseCtx, faults.PointSchedBatch); ferr != nil {
			return nil, BackendStats{}, fmt.Errorf("schedule: batch: %w", ferr)
		}
		blobs := make([][]byte, n)
		for i, it := range q.items {
			blobs[i] = it.blob
		}
		return q.be.Run(s.baseCtx, q.model, q.artifact, blobs)
	}()
	wall := time.Since(start).Seconds()
	if err == nil && len(idxs) != n {
		err = fmt.Errorf("%w: backend %s returned %d predictions for a batch of %d",
			qerr.ErrServingUnavailable, q.be.ID, len(idxs), n)
	}
	s.batches.Add(1)
	s.count(obs.MetricSchedBatches)
	if err == nil {
		s.executed.Add(int64(n))
	}
	for {
		cur := s.maxSeen.Load()
		if int64(n) <= cur || s.maxSeen.CompareAndSwap(cur, int64(n)) {
			break
		}
	}
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Histogram(obs.MetricSchedBatchSize).Observe(float64(n))
		s.cfg.Metrics.Histogram(obs.MetricSchedBatchSeconds).Observe(wall)
	}
	var waiters []string
	seen := map[string]bool{}
	for _, it := range q.items {
		if it.traceID != "" && !seen[it.traceID] {
			seen[it.traceID] = true
			waiters = append(waiters, it.traceID)
		}
	}
	waiterList := strings.Join(waiters, ",")
	s.mu.Lock()
	for i, it := range q.items {
		delete(s.inflight, it.key)
		it.fl.batch, it.fl.waiters = n, waiterList
		if err != nil {
			it.fl.err = err
		} else {
			it.fl.res = Result{
				Class: idxs[i], Source: SourceBatch, BatchSize: n,
				WallSeconds:   wall / float64(n),
				InferSeconds:  stats.InferSeconds / float64(n),
				DecodeSeconds: stats.DecodeSeconds / float64(n),
			}
			if s.cfg.Cache != nil {
				s.cfg.Cache.Put(it.key, idxs[i])
			}
		}
		close(it.fl.done)
	}
	s.noteDepthLocked()
	s.mu.Unlock()
}

// noteDepthLocked mirrors the current queue depth into the gauge. Caller
// holds s.mu.
func (s *Scheduler) noteDepthLocked() {
	if s.cfg.Metrics == nil {
		return
	}
	depth := 0
	for _, q := range s.queues {
		depth += len(q.items)
	}
	s.cfg.Metrics.Gauge(obs.MetricSchedQueueDepth).Set(float64(depth))
}

// Drain shuts the scheduler down gracefully: stop accepting submissions,
// flush every pending queue immediately (their waiters are in-flight
// queries that deserve answers), give running batches DrainGrace to
// finish, then cancel their context and wait them out. Idempotent and
// safe to call concurrently; the server calls it after its own in-flight
// queries are gone so batch results are never yanked from live waiters.
func (s *Scheduler) Drain() {
	if s == nil {
		return
	}
	s.mu.Lock()
	already := s.draining
	s.draining = true
	var flush []*queue
	if !already {
		for qk := range s.queues {
			if q := s.takeLocked(qk); q != nil {
				flush = append(flush, q)
			}
		}
	}
	s.mu.Unlock()
	for _, q := range flush {
		s.launch(q)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if g := s.cfg.drainGrace(); g > 0 {
		select {
		case <-done:
		case <-time.After(g):
		}
	}
	s.baseCancel()
	<-done
}
