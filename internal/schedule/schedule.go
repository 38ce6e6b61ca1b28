// Package schedule is the cross-query inference scheduler: a shared layer
// between the strategies and the model backends that coalesces pending
// forward passes from concurrent queries and sessions into large batched
// forward passes, and single-flights identical (artifact, blob) requests so
// duplicates park on the leader's result instead of recomputing.
//
// Placement (see ARCHITECTURE.md "Inference scheduling"):
//
//	server sessions ──▶ strategies (DB-UDF / DB-PyTorch)
//	                         │ Infer(backend, artifact, keys, blobs):
//	                         │ one submission per batch of memo misses
//	                         ▼
//	                  schedule.Scheduler ── per-(backend, artifact) queues,
//	                         │              batch window + max-batch flush,
//	                         │              single-flight dedup, shared cache
//	                         ▼
//	                  Backend.Run(model, artifact, blobs) — native nn.PredictBatch
//	                  or the DB-PyTorch serving pipe, one call per batch
//
// With no scheduler armed, the strategies hand the same batch to
// Backend.Run once themselves: the scheduler only decides which blobs, from
// which queries, share a backend call.
//
// Contracts:
//
//   - Submission: one Infer call carries a whole batch of keys. Under one
//     lock it answers the keys the shared cache holds, attaches the keys
//     already in flight, and queues the rest; every queue it fills to
//     MaxBatch flushes at once. The submitter opens one sched:infer span
//     and stamps it itself after it wakes.
//   - Coalescing: a queued key parks in the queue for its (backend,
//     artifact) pair; the queue flushes as one batch when it reaches
//     MaxBatch or when its oldest key has waited Window. One backend call
//     serves the whole batch, whichever submissions filled it.
//   - Single-flight: a key that matches a request already queued or
//     executing does not re-enter the queue; its submitter waits on the
//     in-flight request's result. Predictions are deterministic functions
//     of the (artifact-hash, blob-hash) pair, so sharing is exact.
//   - Cancellation at batch boundaries: a submitter whose context dies
//     returns its lifecycle error immediately, but the batches it joined
//     still execute to completion under the scheduler's own context — a
//     cancelled submitter never poisons its batchmates, and completed work
//     still populates the shared cache.
//   - Determinism: batching changes throughput, never results. The native
//     backend's batched kernels are bit-identical to per-sample forwards
//     (see nn.BatchLayer); the scheduler-on vs scheduler-off differential
//     suite in internal/bench pins this across all four strategies.
//   - Failure domains: a batch execution failure is delivered to every
//     submitter waiting on that batch as the same typed error; lifecycle
//     errors pass through and backend availability failures keep their
//     qerr.ErrServingUnavailable class so the strategies' fallback ladder
//     and circuit breaker behave exactly as they do without the scheduler.
package schedule

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// Share is one submission's part of the batches that answered it: Ran
// lists the positions whose forward pass ran for it, the ones it queued
// itself, and the embedded stats and WallSeconds sum their shares of those
// batches' backend-reported and wall seconds, each batch's totals divided
// evenly over its keys. Cache hits and dedup followers paid no compute and
// are not in it.
type Share struct {
	Ran []int
	BackendStats
	WallSeconds float64
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
// *Scheduler rejects submissions.
type Scheduler struct {
	cfg Config
	// m holds the sched.* handles, resolved once; nil instruments (no-ops)
	// without a registry.
	m obs.SchedMetrics

	mu       sync.Mutex
	queues   map[qkey]*batch
	inflight map[Key]slot
	draining bool

	// wg tracks batch-execution goroutines; Drain waits on it.
	wg sync.WaitGroup
	// baseCtx is the context batches execute under — detached from any
	// single submitter, cancelled only when Drain gives up waiting.
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

// batch is one coalesced batch: pending in the queue of its (backend,
// artifact) pair until it flushes, then run by one backend call. runBatch
// fills the results before closing done.
type batch struct {
	be       *Backend
	model    uint64
	artifact []byte
	keys     []Key
	blobs    [][]byte
	timer    *time.Timer
	// waiters are the distinct trace IDs of the traced submissions that
	// queued keys here. Every submitter stamps them and the batch's size on
	// its own sched:infer span after it wakes — spans are owner-mutated
	// only, and a submitter whose ctx died may have finished its trace long
	// before the batch completes — so a retained trace names the queries
	// that shared its forward pass.
	waiters []string

	done    chan struct{}
	classes []int
	stats   BackendStats
	wall    float64
	err     error
}

// slot is one key's place in a batch: the single-flight rendezvous that
// the submitter queueing the key and every later submitter of the same
// key wait on.
type slot struct {
	b *batch
	i int
}

// New builds a scheduler from the config.
func New(cfg Config) *Scheduler {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:        cfg,
		queues:     map[qkey]*batch{},
		inflight:   map[Key]slot{},
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	if m := cfg.Metrics.SchedMetrics(); m != nil {
		s.m = *m
	}
	return s
}

// Stats is a point-in-time snapshot for sys.scheduler and tests.
type Stats struct {
	// Submitted counts the keys of all Infer calls; CacheHits and
	// DedupHits the ones answered without a fresh forward pass; Executed
	// the forward passes physically run; Batches the backend calls that
	// ran them.
	Submitted, CacheHits, DedupHits, Executed, Batches int64
	// MaxBatch is the largest coalesced batch observed.
	MaxBatch int64
	// Rejected counts keys refused while draining.
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
	st := Stats{
		Submitted: s.submitted.Load(), CacheHits: s.cacheHits.Load(),
		DedupHits: s.dedupHits.Load(), Executed: s.executed.Load(),
		Batches: s.batches.Load(), MaxBatch: s.maxSeen.Load(),
		Rejected: s.rejected.Load(), QueueDepth: s.depthLocked(),
		InflightKeys: len(s.inflight), Draining: s.draining,
	}
	s.mu.Unlock()
	return st
}

// Infer submits one batch of inferences under one model artifact: keys[i]
// is blobs[i]'s key, the artifact's stable hash (the same in every key) and
// the blob's tensor.HashBytes, computed by the caller. It returns the
// classes in position order and the submission's Share. The call blocks
// until every position is answered — by the shared cache, by an identical
// in-flight request, or by the batch it was queued in — or until ctx dies,
// in which case the typed lifecycle error returns at once and the batches
// complete without this submitter. The first failed batch in position
// order fails the whole submission.
func (s *Scheduler) Infer(ctx context.Context, be *Backend, artifact []byte, keys []Key, blobs [][]byte) ([]int, Share, error) {
	if s == nil {
		return nil, Share{}, errors.New("schedule: nil scheduler")
	}
	if be == nil || be.Run == nil {
		return nil, Share{}, errors.New("schedule: nil backend")
	}
	if len(keys) != len(blobs) {
		return nil, Share{}, fmt.Errorf("schedule: %d keys for %d blobs", len(keys), len(blobs))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := qerr.FromContext(ctx.Err()); err != nil {
		return nil, Share{}, err
	}
	if err := s.cfg.Faults.Hit(ctx, faults.PointSchedSubmit); err != nil {
		return nil, Share{}, fmt.Errorf("schedule: submit: %w", err)
	}
	n := len(keys)
	if n == 0 {
		return nil, Share{}, nil
	}
	s.submitted.Add(int64(n))
	s.m.Submitted.Add(int64(n))
	// One child span per submission under the submitting query's active
	// span (nil and free when the query is untraced). Finished on every
	// return path.
	span := obs.SpanFromContext(ctx).StartChild("sched:infer")
	defer span.Finish()
	span.SetAttr("keys", n)

	classes := make([]int, n)
	at := make([]slot, n) // each position's batch slot; none for a cache hit
	var ran []int         // the positions this submission queued
	var hits, dedups int
	var full []*batch
	traceID := obs.TraceIDFromContext(ctx)
	qk := qkey{backend: be.ID, model: keys[0].Model}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejected.Add(int64(n))
		s.m.Rejected.Add(int64(n))
		span.SetAttr("err", "draining")
		return nil, Share{}, fmt.Errorf("%w: inference scheduler is draining", qerr.ErrServingUnavailable)
	}
	for i, k := range keys {
		// A concurrent batch may have answered the key since the caller's
		// own counted lookup.
		if c, ok := s.cfg.Cache.Peek(k); ok {
			classes[i] = c
			hits++
			continue
		}
		if sl, ok := s.inflight[k]; ok {
			at[i] = sl
			dedups++
			continue
		}
		q := s.queues[qk]
		if q == nil {
			q = &batch{be: be, model: qk.model, artifact: artifact, done: make(chan struct{})}
			q.timer = time.AfterFunc(s.cfg.window(), func() { s.flushTimed(qk, q) })
			s.queues[qk] = q
		}
		at[i] = slot{b: q, i: len(q.keys)}
		s.inflight[k] = at[i]
		q.keys = append(q.keys, k)
		q.blobs = append(q.blobs, blobs[i])
		if traceID != "" && !slices.Contains(q.waiters, traceID) {
			q.waiters = append(q.waiters, traceID)
		}
		ran = append(ran, i)
		if len(q.keys) >= s.cfg.maxBatch() {
			full = append(full, s.takeLocked(qk))
		}
	}
	s.noteDepthLocked()
	s.mu.Unlock()
	s.cacheHits.Add(int64(hits))
	s.dedupHits.Add(int64(dedups))
	s.m.CacheHits.Add(int64(hits))
	s.m.DedupHits.Add(int64(dedups))
	span.SetAttr("cache_hits", hits)
	span.SetAttr("dedup_hits", dedups)
	span.SetAttr("queued", len(ran))
	for _, b := range full {
		s.launch(b)
	}
	return s.wait(ctx, span, classes, at, ran)
}

// wait parks on each position's batch until it completes or ctx dies, then
// fills in the classes and sums the Share of the positions the submission
// queued itself. Traced, it stamps the submitter's own sched:infer span
// with the batches it waited on: how many, the largest one's size, and
// their submitters' trace IDs.
func (s *Scheduler) wait(ctx context.Context, span *obs.Span, classes []int, at []slot, ran []int) ([]int, Share, error) {
	var seen []*batch // the distinct batches waited on, kept when traced
	var err error
	for i, sl := range at {
		b := sl.b
		if b == nil {
			continue
		}
		select {
		case <-b.done:
		case <-ctx.Done():
			return nil, Share{}, qerr.FromContext(ctx.Err())
		}
		if span != nil && !slices.Contains(seen, b) {
			seen = append(seen, b)
		}
		if b.err != nil {
			err = b.err
			break
		}
		classes[i] = b.classes[sl.i]
	}
	if len(seen) > 0 {
		size := 0
		var waiters []string
		for _, b := range seen {
			size = max(size, len(b.keys))
			for _, id := range b.waiters {
				if !slices.Contains(waiters, id) {
					waiters = append(waiters, id)
				}
			}
		}
		span.SetAttr("batches", len(seen))
		span.SetAttr("batch_size", size)
		if len(waiters) > 0 {
			span.SetAttr("batch_waiters", strings.Join(waiters, ","))
		}
	}
	if err != nil {
		return nil, Share{}, err
	}
	share := Share{Ran: ran}
	for _, i := range ran {
		b := at[i].b
		k := float64(len(b.keys))
		share.InferSeconds += b.stats.InferSeconds / k
		share.DecodeSeconds += b.stats.DecodeSeconds / k
		share.WallSeconds += b.wall / k
	}
	return classes, share, nil
}

// takeLocked detaches a queue's pending batch (stopping its flush timer)
// and removes the queue. Caller holds s.mu.
func (s *Scheduler) takeLocked(qk qkey) *batch {
	b := s.queues[qk]
	if b == nil {
		return nil
	}
	b.timer.Stop()
	delete(s.queues, qk)
	return b
}

// flushTimed is the Window expiry path of batch b, queued under qk. A timer
// that fires while b is already leaving its queue finds another batch, or
// none, there and does nothing.
func (s *Scheduler) flushTimed(qk qkey, b *batch) {
	s.mu.Lock()
	if s.queues[qk] != b {
		s.mu.Unlock()
		return
	}
	s.takeLocked(qk)
	s.mu.Unlock()
	s.launch(b)
}

// launch executes a detached batch on its own goroutine, tracked by the
// drain WaitGroup.
func (s *Scheduler) launch(b *batch) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.runBatch(b)
	}()
}

// runBatch executes one coalesced batch under the scheduler's base context
// and publishes its classes (or one shared error) to every submitter
// waiting on it, then removes its keys from the single-flight index.
// Completed predictions populate the shared cache even if some submitters
// have already gone away — the compute happened, and the next identical
// request should not repeat it.
func (s *Scheduler) runBatch(b *batch) {
	n := len(b.keys)
	start := time.Now()
	classes, stats, err := func() ([]int, BackendStats, error) {
		if ferr := s.cfg.Faults.Hit(s.baseCtx, faults.PointSchedBatch); ferr != nil {
			return nil, BackendStats{}, fmt.Errorf("schedule: batch: %w", ferr)
		}
		return b.be.Run(s.baseCtx, b.model, b.artifact, b.blobs)
	}()
	wall := time.Since(start).Seconds()
	if err == nil && len(classes) != n {
		err = fmt.Errorf("%w: backend %s returned %d predictions for a batch of %d",
			qerr.ErrServingUnavailable, b.be.ID, len(classes), n)
	}
	s.batches.Add(1)
	s.m.Batches.Add(1)
	if err == nil {
		s.executed.Add(int64(n))
	}
	for {
		cur := s.maxSeen.Load()
		if int64(n) <= cur || s.maxSeen.CompareAndSwap(cur, int64(n)) {
			break
		}
	}
	s.m.BatchSize.Observe(float64(n))
	s.m.BatchSeconds.Observe(wall)
	b.classes, b.stats, b.wall, b.err = classes, stats, wall, err
	s.mu.Lock()
	for i, k := range b.keys {
		delete(s.inflight, k)
		if err == nil {
			s.cfg.Cache.Put(k, classes[i])
		}
	}
	s.noteDepthLocked()
	s.mu.Unlock()
	close(b.done)
}

// depthLocked is the number of keys pending in batch queues. Caller holds
// s.mu.
func (s *Scheduler) depthLocked() int {
	depth := 0
	for _, b := range s.queues {
		depth += len(b.keys)
	}
	return depth
}

// noteDepthLocked mirrors the current queue depth into the gauge. Caller
// holds s.mu.
func (s *Scheduler) noteDepthLocked() {
	if s.m.QueueDepth != nil {
		s.m.QueueDepth.Set(float64(s.depthLocked()))
	}
}

// Drain shuts the scheduler down gracefully: stop accepting submissions,
// flush every pending queue immediately (their submitters are in-flight
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
	var flush []*batch
	if !already {
		for qk := range s.queues {
			flush = append(flush, s.takeLocked(qk))
		}
	}
	s.mu.Unlock()
	for _, b := range flush {
		s.launch(b)
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
