package server

// Admission control for the multi-session front end.
//
// The controller sits between the HTTP handlers and the executor and
// enforces three limits over one shared DB:
//
//   - a global in-flight cap (MaxConcurrent execution slots), sized to the
//     machine rather than to the client population, so a flood of cheap
//     HTTP requests cannot oversubscribe the morsel worker pool;
//   - a bounded admission queue (MaxQueue): once every slot is busy,
//     queries wait; once the queue is full they are refused immediately
//     with qerr.ErrAdmissionRejected instead of building an unbounded
//     backlog (fail fast beats queueing forever — the client can retry
//     against a less loaded replica);
//   - a per-tenant in-flight cap (TenantConcurrent), so one tenant cannot
//     occupy every slot while others starve.
//
// Queued queries are granted slots in round-robin order *across tenants*:
// each tenant keeps a FIFO of its own waiters, and the dispatcher cycles
// through tenants that have waiters, taking one query from each. A tenant
// that floods the queue therefore delays its own queries, not everyone
// else's — the fairness property the soak tests pin.
//
// Cancellation is first-class: a waiter whose context fires (client
// disconnect, deadline) leaves the queue immediately. Drain rejects all
// waiters and refuses newcomers so the server can shut down without
// abandoning goroutines.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/qerr"
)

// AdmissionConfig sizes the controller. The zero value gets defaults from
// withDefaults.
type AdmissionConfig struct {
	// MaxConcurrent is the global number of execution slots (default 8).
	MaxConcurrent int
	// MaxQueue bounds the total number of queries waiting for a slot
	// across all tenants; the MaxQueue+1'th waiter is rejected (default
	// 64).
	MaxQueue int
	// TenantConcurrent caps one tenant's in-flight queries (default:
	// MaxConcurrent, i.e. no extra per-tenant restriction).
	TenantConcurrent int
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.TenantConcurrent <= 0 {
		c.TenantConcurrent = c.MaxConcurrent
	}
	return c
}

// waiter is one queued query.
type waiter struct {
	ready   chan struct{} // closed on grant or rejection
	granted bool          // slot assigned (set under the controller lock)
	err     error         // rejection reason (set before close when not granted)
}

// tenantQ is one tenant's admission state.
type tenantQ struct {
	name     string
	waiters  []*waiter
	inflight int
	inOrder  bool // present in the dispatcher's round-robin ring

	// Monotonic counters for sys.admission.
	admitted  int64
	queued    int64
	rejected  int64
	cancelled int64
}

// admission is the controller. All state is guarded by mu; grants close
// waiter channels while holding it, which is fine because the channels are
// buffered by construction (closing never blocks).
type admission struct {
	mu       sync.Mutex
	cfg      AdmissionConfig
	tenants  map[string]*tenantQ
	order    []string // round-robin ring of tenants with waiters
	inflight int
	queuedN  int
	draining bool
}

func newAdmission(cfg AdmissionConfig) *admission {
	return &admission{cfg: cfg.withDefaults(), tenants: map[string]*tenantQ{}}
}

func (a *admission) tenant(name string) *tenantQ {
	tq := a.tenants[name]
	if tq == nil {
		tq = &tenantQ{name: name}
		a.tenants[name] = tq
	}
	return tq
}

// Admit blocks until the query may run, then returns a release function
// that must be called exactly once when it finishes. It fails with
// qerr.ErrAdmissionRejected when the queue is full or the server is
// draining, and with the classified context error when ctx fires while
// waiting. queued reports whether the query had to wait.
func (a *admission) Admit(ctx context.Context, tenant string) (release func(), queued bool, err error) {
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return nil, false, fmt.Errorf("%w: server is draining", qerr.ErrAdmissionRejected)
	}
	tq := a.tenant(tenant)
	// Fast path: a free slot and nobody queued ahead (no barging past
	// waiters — fairness includes newcomers).
	if a.queuedN == 0 && a.inflight < a.cfg.MaxConcurrent && tq.inflight < a.cfg.TenantConcurrent {
		a.inflight++
		tq.inflight++
		tq.admitted++
		a.mu.Unlock()
		return a.releaseFn(tq), false, nil
	}
	if a.queuedN >= a.cfg.MaxQueue {
		tq.rejected++
		a.mu.Unlock()
		return nil, false, fmt.Errorf("%w: admission queue full (%d waiting, %d in flight)",
			qerr.ErrAdmissionRejected, a.cfg.MaxQueue, a.cfg.MaxConcurrent)
	}
	w := &waiter{ready: make(chan struct{})}
	tq.waiters = append(tq.waiters, w)
	tq.queued++
	a.queuedN++
	if !tq.inOrder {
		a.order = append(a.order, tenant)
		tq.inOrder = true
	}
	// The enqueue itself may be grantable (a slot freed between the fast
	// path check and now cannot happen under the lock, but the per-tenant
	// cap may make an earlier waiter ineligible while this one is not).
	a.dispatchLocked()
	a.mu.Unlock()

	select {
	case <-w.ready:
		if w.err != nil {
			return nil, true, w.err
		}
		return a.releaseFn(tq), true, nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// Lost the race: the slot was granted concurrently with the
			// cancellation. Give it back.
			a.releaseLocked(tq)
			a.mu.Unlock()
			return nil, true, qerr.FromContext(ctx.Err())
		}
		// Remove ourselves from the tenant queue.
		for i, q := range tq.waiters {
			if q == w {
				tq.waiters = append(tq.waiters[:i], tq.waiters[i+1:]...)
				break
			}
		}
		a.queuedN--
		tq.cancelled++
		a.mu.Unlock()
		return nil, true, qerr.FromContext(ctx.Err())
	}
}

// releaseFn builds the idempotent slot-release closure for a granted query.
func (a *admission) releaseFn(tq *tenantQ) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.releaseLocked(tq)
			a.mu.Unlock()
		})
	}
}

func (a *admission) releaseLocked(tq *tenantQ) {
	a.inflight--
	tq.inflight--
	a.dispatchLocked()
}

// dispatchLocked hands free slots to queued waiters, one tenant at a time
// in ring order. Called with a.mu held.
func (a *admission) dispatchLocked() {
	for a.inflight < a.cfg.MaxConcurrent {
		granted := false
		// One full sweep of the ring; tenants whose queue emptied drop
		// out, tenants at their concurrency cap stay for a later pass.
		for sweep := len(a.order); sweep > 0 && !granted; sweep-- {
			name := a.order[0]
			a.order = a.order[1:]
			tq := a.tenants[name]
			if len(tq.waiters) == 0 {
				tq.inOrder = false
				continue
			}
			if tq.inflight >= a.cfg.TenantConcurrent {
				a.order = append(a.order, name)
				continue
			}
			w := tq.waiters[0]
			tq.waiters = tq.waiters[1:]
			a.queuedN--
			a.inflight++
			tq.inflight++
			tq.admitted++
			w.granted = true
			close(w.ready)
			if len(tq.waiters) > 0 {
				a.order = append(a.order, name)
			} else {
				tq.inOrder = false
			}
			granted = true
		}
		if !granted {
			return
		}
	}
}

// drain refuses new admissions and rejects every queued waiter.
func (a *admission) drain() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.draining = true
	for _, name := range a.order {
		tq := a.tenants[name]
		for _, w := range tq.waiters {
			w.err = fmt.Errorf("%w: server is draining", qerr.ErrAdmissionRejected)
			tq.rejected++
			close(w.ready)
		}
		a.queuedN -= len(tq.waiters)
		tq.waiters = nil
		tq.inOrder = false
	}
	a.order = nil
}

// AdmissionStat is one tenant's point-in-time admission state, rendered by
// sys.admission.
type AdmissionStat struct {
	Tenant     string
	Inflight   int
	Queued     int
	Admitted   int64
	QueuedEver int64
	Rejected   int64
	Cancelled  int64
}

// running is the number of queries holding an execution slot.
func (a *admission) running() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}

// stats snapshots per-tenant admission state plus the controller totals.
func (a *admission) stats() (rows []AdmissionStat, inflight, queued int, draining bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, tq := range a.tenants {
		rows = append(rows, AdmissionStat{
			Tenant: tq.name, Inflight: tq.inflight, Queued: len(tq.waiters),
			Admitted: tq.admitted, QueuedEver: tq.queued,
			Rejected: tq.rejected, Cancelled: tq.cancelled,
		})
	}
	return rows, a.inflight, a.queuedN, a.draining
}
