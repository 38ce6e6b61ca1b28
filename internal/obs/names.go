package obs

// Canonical metric names. Call sites used to re-type these as string
// literals ("sqldb.parallel.ops" in one package, "strategy.fallback.*" in
// another); a single typo silently forked a series. Every engine-emitted
// name now lives here, either as a constant or as a helper that derives
// dynamic names (per-strategy, per-fallback-hop) from one format string,
// and Registry.Check validates whatever actually got registered.

import (
	"fmt"
	"sort"
	"strings"
)

// Executor metrics (internal/sqldb).
const (
	// MetricParallelOps counts operator executions that genuinely fanned
	// out across >1 workers.
	MetricParallelOps = "sqldb.parallel.ops"
	// MetricParallelMorsels counts morsels dispatched by parallel operators.
	MetricParallelMorsels = "sqldb.parallel.morsels"
	// MetricPlanInvalidations counts stored plans re-planned because the
	// planner's inputs moved (a schema, a view, the UDF registry, or how
	// the join order's estimates compare).
	MetricPlanInvalidations = "sqldb.cache.plan.invalidations"
	// MetricQueries counts statements recorded into the query history.
	MetricQueries = "sqldb.queries"
	// MetricQueryErrors counts recorded statements that failed.
	MetricQueryErrors = "sqldb.query.errors"
	// MetricSlowQueries counts recorded statements over the slow-query
	// threshold.
	MetricSlowQueries = "sqldb.query.slow"
	// MetricQueryWallSeconds is the wall-clock latency histogram of
	// recorded statements.
	MetricQueryWallSeconds = "sqldb.query.wall_s"
)

// Serving-pipe metrics (internal/strategies).
const (
	// MetricServingRetries counts serving-batch retry attempts.
	MetricServingRetries = "serving.retries"
	// MetricServingBreakerRejected counts calls the circuit breaker
	// failed fast.
	MetricServingBreakerRejected = "serving.breaker_rejected"
	// MetricFallbackTotal counts every fallback-ladder hop.
	MetricFallbackTotal = "strategy.fallback.total"
)

// DL2SQL strategy metrics (internal/strategies).
const (
	// MetricDL2SQLModelsStored counts models the DL2SQL strategies stored
	// as relational tables: one per bound artifact, on its first use.
	MetricDL2SQLModelsStored = "dl2sql.models_stored"
)

// Inference-scheduler metrics (internal/schedule).
const (
	// MetricSchedSubmitted counts inference requests submitted to the
	// scheduler (before cache/dedup short-circuits).
	MetricSchedSubmitted = "sched.submitted"
	// MetricSchedCacheHits counts submissions answered from the shared
	// prediction cache without queueing.
	MetricSchedCacheHits = "sched.cache_hits"
	// MetricSchedDedupHits counts submissions that single-flighted onto an
	// identical (artifact, blob) request already in flight.
	MetricSchedDedupHits = "sched.dedup_hits"
	// MetricSchedBatches counts coalesced batches executed.
	MetricSchedBatches = "sched.batches"
	// MetricSchedBatchSize is the histogram of coalesced batch sizes.
	MetricSchedBatchSize = "sched.batch_size"
	// MetricSchedBatchSeconds is the batch execution wall-time histogram.
	MetricSchedBatchSeconds = "sched.batch_wall_s"
	// MetricSchedQueueDepth gauges requests waiting in batch queues.
	MetricSchedQueueDepth = "sched.queue_depth"
	// MetricSchedRejected counts submissions refused because the scheduler
	// is draining.
	MetricSchedRejected = "sched.rejected"
)

// Serving front-end metrics (internal/server).
const (
	// MetricServerRequests counts requests accepted by the HTTP front end
	// (after admission, before execution).
	MetricServerRequests = "server.requests"
	// MetricServerErrors counts requests that finished with an error.
	MetricServerErrors = "server.request.errors"
	// MetricServerAdmitted counts queries granted an execution slot.
	MetricServerAdmitted = "server.admission.admitted"
	// MetricServerQueued counts queries that had to wait in the admission
	// queue before their slot was granted.
	MetricServerQueued = "server.admission.queued"
	// MetricServerRejected counts queries refused with
	// qerr.ErrAdmissionRejected (queue full or draining).
	MetricServerRejected = "server.admission.rejected"
	// MetricServerSessions gauges the number of live sessions.
	MetricServerSessions = "server.sessions"
	// MetricServerInflight gauges queries currently holding an execution
	// slot.
	MetricServerInflight = "server.inflight"
	// MetricServerRequestSeconds is the end-to-end request latency
	// histogram (admission wait included).
	MetricServerRequestSeconds = "server.request.wall_s"
	// MetricServerQueueSeconds is the admission-queue wait histogram for
	// queries that had to queue.
	MetricServerQueueSeconds = "server.admission.wait_s"
)

// Tracing metrics (internal/obs trace store + exemplars).
const (
	// MetricTracesStarted counts traces opened (every traced query, kept
	// or not).
	MetricTracesStarted = "trace.started"
	// MetricTracesRetained counts traces the tail sampler kept.
	MetricTracesRetained = "trace.retained"
	// MetricTracesDropped counts traces the tail sampler discarded.
	MetricTracesDropped = "trace.dropped"
	// MetricTraceSpans is the histogram of span counts per retained trace
	// (pre-truncation totals).
	MetricTraceSpans = "trace.spans"
	// MetricTraceStoreTraces gauges traces currently held in the store.
	MetricTraceStoreTraces = "trace.store.traces"
	// MetricTraceExemplars counts histogram observations that carried a
	// trace-ID exemplar.
	MetricTraceExemplars = "trace.exemplars"
)

// TraceRetainedMetric derives the per-reason retention counter:
// TraceRetainedMetric("slow") = "trace.retained.slow". Reasons: "slow",
// "error", "fallback", "breaker", "sampled".
func TraceRetainedMetric(reason string) string {
	return "trace.retained." + reason
}

// KnownTraceMetric reports whether a "trace."-prefixed name is one the
// trace subsystem legitimately emits. Registry.Check fails on any other
// trace.* registration so exemplar/trace series can't fork silently.
func KnownTraceMetric(name string) bool {
	switch name {
	case MetricTracesStarted, MetricTracesRetained, MetricTracesDropped,
		MetricTraceSpans, MetricTraceStoreTraces, MetricTraceExemplars:
		return true
	}
	for _, reason := range []string{"slow", "error", "fallback", "breaker", "sampled"} {
		if name == TraceRetainedMetric(reason) {
			return true
		}
	}
	return false
}

// Cache-instrument prefixes: cache.LRU.Instrument appends ".hits",
// ".misses", ".evictions".
const (
	CachePrefixPlan      = "sqldb.cache.plan"
	CachePrefixInfer     = "strategies.infercache"
	CacheSuffixHits      = "hits"
	CacheSuffixMisses    = "misses"
	CacheSuffixEvictions = "evictions"
)

// StrategyMetric derives the per-strategy series name for one phase:
// StrategyMetric("DB-UDF", "queries") = "strategy.DB-UDF.queries".
// Conventional phases: "queries" (counter), "loading_s", "inference_s",
// "relational_s", "total_s" (histograms).
func StrategyMetric(strategy, phase string) string {
	return "strategy." + strategy + "." + phase
}

// FallbackMetric derives the per-hop fallback counter name:
// FallbackMetric("DB-PyTorch", "DB-UDF") = "strategy.fallback.DB-PyTorch->DB-UDF".
func FallbackMetric(from, to string) string {
	return "strategy.fallback." + from + "->" + to
}

// CacheMetric derives a cache-instrument counter name from its prefix:
// CacheMetric(CachePrefixPlan, CacheSuffixHits) = "sqldb.cache.plan.hits".
func CacheMetric(prefix, counter string) string {
	return prefix + "." + counter
}

// ValidMetricName reports whether a name satisfies the naming contract:
// non-empty, starts with a letter, built from letters, digits, and the
// separators '.', '_', '-', '>' (the fallback hop arrow), with no empty
// dot-separated segment. Names that fail are still registered (instruments
// never error at the call site) but Registry.Check reports them.
func ValidMetricName(name string) bool {
	if name == "" {
		return false
	}
	c0 := name[0]
	if !(c0 >= 'a' && c0 <= 'z' || c0 >= 'A' && c0 <= 'Z') {
		return false
	}
	prevDot := false
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '>':
			prevDot = false
		case c == '.':
			if prevDot || i == len(name)-1 {
				return false
			}
			prevDot = true
		default:
			return false
		}
	}
	return true
}

// Check is the registry's self-check: it reports every malformed
// registered name and every name registered under more than one
// instrument kind (a counter and a gauge sharing a name is almost always
// a call-site typo — the two series would silently shadow each other in
// rendered snapshots). A nil registry and an empty registry both pass.
func (r *Registry) Check() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	kinds := map[string][]string{}
	for name := range r.counters {
		kinds[name] = append(kinds[name], "counter")
	}
	for name := range r.gauges {
		kinds[name] = append(kinds[name], "gauge")
	}
	for name := range r.hists {
		kinds[name] = append(kinds[name], "histogram")
	}
	r.mu.Unlock()
	var problems []string
	for name, ks := range kinds {
		if !ValidMetricName(name) {
			problems = append(problems, fmt.Sprintf("malformed metric name %q", name))
		}
		if strings.HasPrefix(name, "trace.") && !KnownTraceMetric(name) {
			problems = append(problems, fmt.Sprintf("unregistered trace metric %q (add it to names.go)", name))
		}
		if len(ks) > 1 {
			sort.Strings(ks)
			problems = append(problems, fmt.Sprintf("metric %q registered as %s", name, strings.Join(ks, " and ")))
		}
	}
	if len(problems) == 0 {
		return nil
	}
	sort.Strings(problems)
	return fmt.Errorf("obs: registry check failed:\n  %s", strings.Join(problems, "\n  "))
}
