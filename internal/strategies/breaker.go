package strategies

// Serving-pipe resilience: retry with exponential backoff and jitter, and
// a circuit breaker guarding the DB↔PyTorch serving boundary.
//
// The DB-PyTorch strategy crosses a real component boundary (a byte pipe
// to a serving goroutine standing in for a remote model server), so it is
// the one strategy whose failures look like distributed-system failures:
// connection errors, hangs, truncated responses. serveWithRetry wraps each
// batch call in a bounded retry loop — per-attempt timeout, exponential
// backoff with deterministic jitter — behind a circuit breaker that stops
// hammering a serving component that keeps failing and lets one probe
// attempt through after a cooldown (half-open). Caller cancellation and
// the query deadline are never retried; only serving-availability failures
// (qerr.ErrServingUnavailable, per-attempt timeouts) are.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/schedule"
)

// RetryPolicy bounds the serving pipe's retry loop. The zero value means
// "use defaults" (3 attempts, 2ms base delay, 100ms cap, no per-attempt
// timeout).
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (not re-tries); <=0 = 3.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (doubles per attempt); <=0 = 2ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; <=0 = 100ms.
	MaxDelay time.Duration
	// AttemptTimeout bounds each individual serving attempt; 0 = none.
	// Expiry counts as a serving failure (retried), not a query timeout.
	AttemptTimeout time.Duration
	// JitterSeed makes the backoff jitter deterministic for tests; 0 seeds
	// from 1.
	JitterSeed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 2 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 100 * time.Millisecond
	}
	return p
}

// backoff returns the sleep before attempt n (1-based: the delay after the
// n-th failure): BaseDelay·2^(n-1), capped at MaxDelay, with up to 50%
// deterministic jitter from rng.
func (p RetryPolicy) backoff(n int, rng *rand.Rand) time.Duration {
	d := p.BaseDelay << (n - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	return d/2 + time.Duration(rng.Int63n(int64(d)/2+1))
}

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker is a counting circuit breaker for the serving pipe. Closed it
// passes every call; FailThreshold consecutive failures open it; open it
// fails fast with qerr.ErrServingUnavailable until Cooldown elapses, then
// lets a single probe through (half-open) — the probe's outcome closes or
// re-opens the circuit.
type Breaker struct {
	// FailThreshold is the consecutive-failure count that opens the
	// circuit; <=0 = 5.
	FailThreshold int
	// Cooldown is how long the circuit stays open before a probe; <=0 = 100ms.
	Cooldown time.Duration

	mu       sync.Mutex
	state    int
	failures int
	openedAt time.Time
	// trips counts closed→open transitions (exposed for metrics/tests).
	trips int64
}

func (b *Breaker) failThreshold() int {
	if b.FailThreshold <= 0 {
		return 5
	}
	return b.FailThreshold
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown <= 0 {
		return 100 * time.Millisecond
	}
	return b.Cooldown
}

// Allow reports whether a call may proceed. Open circuits fail fast; after
// the cooldown one probe is admitted (half-open). A nil breaker admits
// everything.
func (b *Breaker) Allow() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if time.Since(b.openedAt) < b.cooldown() {
			return fmt.Errorf("%w: serving circuit open (%d consecutive failures)",
				qerr.ErrServingUnavailable, b.failures)
		}
		b.state = breakerHalfOpen
		return nil
	case breakerHalfOpen:
		// One probe at a time: further calls fail fast until it reports.
		return fmt.Errorf("%w: serving circuit half-open, probe in flight",
			qerr.ErrServingUnavailable)
	}
	return nil
}

// Record reports a call outcome to the breaker. Success closes the circuit
// and clears the failure count; failure counts toward the threshold (and
// re-opens a half-open circuit immediately).
func (b *Breaker) Record(ok bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.state = breakerClosed
		b.failures = 0
		return
	}
	b.failures++
	if b.state == breakerHalfOpen || b.failures >= b.failThreshold() {
		if b.state != breakerOpen {
			b.trips++
		}
		b.state = breakerOpen
		b.openedAt = time.Now()
	}
}

// Trips returns the number of closed→open transitions so far.
func (b *Breaker) Trips() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// State renders the breaker state for diagnostics.
func (b *Breaker) State() string {
	if b == nil {
		return "disabled"
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// retryable reports whether a serving error is worth another attempt:
// serving-availability failures and per-attempt timeouts are; caller
// cancellation, the query deadline, and data errors are not. attemptCtx is
// the per-attempt context (nil when no attempt timeout was set) and
// callerCtx the query context.
func retryable(err error, attemptCtx, callerCtx context.Context) bool {
	if err == nil {
		return false
	}
	if callerCtx != nil && callerCtx.Err() != nil {
		return false // the query itself was cancelled or timed out
	}
	if errors.Is(err, qerr.ErrServingUnavailable) {
		return true
	}
	// A timeout that came from the attempt's own deadline is a serving
	// hang, not a query timeout.
	if errors.Is(err, qerr.ErrTimeout) && attemptCtx != nil && attemptCtx.Err() != nil {
		return true
	}
	return false
}

// serveWithRetry is the serving backend's Run: it runs one serving batch
// through the breaker and retry loop, each attempt after the first under a
// retry:<n> span below the span on ctx. It returns the first successful
// attempt's results, or the last error once attempts are exhausted
// (wrapped so errors.Is(err, qerr.ErrServingUnavailable) holds for
// availability failures).
func (env *Context) serveWithRetry(ctx context.Context, model uint64, artifact []byte, blobs [][]byte) ([]int, schedule.BackendStats, error) {
	pol := env.Retry.withDefaults()
	seed := pol.JitterSeed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var lastErr error
	for attempt := 1; attempt <= pol.MaxAttempts; attempt++ {
		if err := qerr.FromContext(ctx.Err()); err != nil {
			return nil, schedule.BackendStats{}, err
		}
		if err := env.Breaker.Allow(); err != nil {
			env.count(obs.MetricServingBreakerRejected)
			obs.TraceFromContext(ctx).MarkBreakerRejected()
			return nil, schedule.BackendStats{}, err
		}
		actx := ctx
		cancel := func() {}
		var attemptCtx context.Context
		if pol.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, pol.AttemptTimeout)
			attemptCtx = actx
		}
		var retrySpan *obs.Span
		if attempt > 1 {
			retrySpan = obs.SpanFromContext(ctx).StartChild(fmt.Sprintf("retry:%d", attempt))
			actx = obs.ContextWithSpan(actx, retrySpan)
		}
		res, stats, err := env.serveBatch(actx, model, artifact, blobs)
		retrySpan.Finish()
		cancel()
		env.Breaker.Record(err == nil)
		if err == nil {
			return res, stats, nil
		}
		if !retryable(err, attemptCtx, ctx) {
			return nil, schedule.BackendStats{}, err
		}
		lastErr = err
		env.count(obs.MetricServingRetries)
		stratAcctFrom(ctx).noteRetry()
		if attempt < pol.MaxAttempts {
			if serr := sleepCtx(ctx, pol.backoff(attempt, rng)); serr != nil {
				return nil, schedule.BackendStats{}, serr
			}
		}
	}
	return nil, schedule.BackendStats{}, fmt.Errorf("%w: serving failed after %d attempts: %w",
		qerr.ErrServingUnavailable, pol.MaxAttempts, lastErr)
}

// count bumps a metrics counter when a registry is attached.
func (env *Context) count(name string) {
	if env.Metrics != nil {
		env.Metrics.Counter(name).Add(1)
	}
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return qerr.FromContext(ctx.Err())
	}
}
