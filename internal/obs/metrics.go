package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a named collection of counters, gauges, and histograms. Like
// the trace store, a nil *Registry is a valid disabled registry: lookups return
// nil instruments whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// query, sched, server and strategies hold handles resolved once per
	// registry (see QueryMetrics, SchedMetrics, ServerMetrics and Strategy).
	queryOnce  sync.Once
	query      *QueryMetrics
	schedOnce  sync.Once
	sched      *SchedMetrics
	serverOnce sync.Once
	server     *ServerMetrics
	strategies sync.Map // strategy name → *StrategyMetrics
}

// NewRegistry creates an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Int64 }

// Add increments the counter. Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float value (e.g. table sizes, cache occupancy).
type Gauge struct{ bits atomic.Uint64 }

// Set stores the gauge value. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram bucket layout. Observations land in exponentially-growing
// buckets so a histogram's memory stays fixed no matter how many samples
// it absorbs — the property that makes always-on per-query accounting
// safe (the previous implementation kept every sample and grew without
// bound). 106 buckets per decade over 12 decades (1e-6 .. 1e6, covering
// sub-microsecond latencies through ~11-day outliers) gives a growth
// factor of 10^(1/106) ≈ 1.0220, i.e. ~2.2% worst-case relative
// quantile error. Values outside the range land in dedicated
// underflow/overflow buckets whose interpolation is clamped by the exact
// min/max.
const (
	histMinBound         = 1e-6
	histBucketsPerDecade = 106
	histDecades          = 12
	histBuckets          = histBucketsPerDecade * histDecades
)

// histLogGrowth is ln(growth): bucket i's upper bound is
// histMinBound * e^(i*histLogGrowth).
var histLogGrowth = math.Ln10 / histBucketsPerDecade

// histBucketIndex maps a value to its bucket: 0 for v <= histMinBound
// (and all non-positive values), histBuckets+1 for overflow.
func histBucketIndex(v float64) int {
	if v <= histMinBound {
		return 0
	}
	i := int(math.Ceil(math.Log(v/histMinBound) / histLogGrowth))
	if i < 1 {
		return 1
	}
	if i > histBuckets {
		return histBuckets + 1
	}
	return i
}

// histUpperBound returns bucket i's upper bound (i in 0..histBuckets).
func histUpperBound(i int) float64 {
	return histMinBound * math.Exp(float64(i)*histLogGrowth)
}

// Histogram accumulates float observations (typically latency seconds) and
// summarizes them as count/min/max/mean plus p50/p95/p99 quantiles.
// Memory is O(1): a fixed exponential bucket array (allocated lazily on
// the first observation) plus exact count/sum/min/max.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets []int64 // len histBuckets+2: [underflow, b1..bN, overflow]

	// Exemplar: the largest observation so far that carried a trace ID,
	// linking the histogram's tail back to a retrievable trace.
	exVal  float64
	exID   string
	exTime time.Time
}

// Observe records one sample. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.addLocked(v)
	h.mu.Unlock()
}

// addLocked folds one sample into the count, sum, extremes and buckets.
// The caller holds h.mu.
func (h *Histogram) addLocked(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if h.buckets == nil {
		h.buckets = make([]int64, histBuckets+2)
	}
	h.buckets[histBucketIndex(v)]++
}

// ObserveDuration records a duration in seconds. Safe on a nil receiver.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveExemplar records a sample carrying a trace ID. The histogram
// retains the max-valued such observation as its exemplar, so the exported
// series points at the trace of its worst outlier. An empty traceID is a
// plain Observe. Safe on a nil receiver.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.addLocked(v)
	if traceID != "" && (h.exID == "" || v >= h.exVal) {
		h.exVal = v
		h.exID = traceID
		h.exTime = time.Now()
	}
	h.mu.Unlock()
}

// HistSummary is a point-in-time histogram summary. Quantiles are
// estimated by linear interpolation within the exponential bucket holding
// the target rank (worst-case relative error one bucket width, ~2.2%);
// Count, Sum, Min, Max, and Mean are exact.
type HistSummary struct {
	Count int     `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`

	// Exemplar fields: the max-valued observation that carried a trace ID
	// (empty/zero when no observation did).
	ExemplarValue   float64   `json:"exemplar_value,omitempty"`
	ExemplarTraceID string    `json:"exemplar_trace_id,omitempty"`
	ExemplarTS      time.Time `json:"exemplar_ts,omitempty"`
}

// Summary computes the histogram's summary.
func (h *Histogram) Summary() HistSummary {
	if h == nil {
		return HistSummary{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return HistSummary{}
	}
	return HistSummary{
		Count: int(h.count),
		Sum:   h.sum,
		Min:   h.min,
		Max:   h.max,
		Mean:  h.sum / float64(h.count),
		P50:   h.quantileLocked(0.50),
		P95:   h.quantileLocked(0.95),
		P99:   h.quantileLocked(0.99),

		ExemplarValue:   h.exVal,
		ExemplarTraceID: h.exID,
		ExemplarTS:      h.exTime,
	}
}

// quantileLocked estimates the q-quantile from the bucket counts by
// interpolating WITHIN the bucket containing the target rank — the
// upper-bound snapping a naive bucketed quantile reports would bias every
// estimate high by up to a full bucket. The target rank follows the
// order-statistic interpolation convention (rank 1..count, fractional),
// and the interpolation window is clamped to the exact [min, max] so the
// under/overflow buckets and single-value histograms stay exact.
func (h *Histogram) quantileLocked(q float64) float64 {
	t := q*float64(h.count-1) + 1
	var cum int64
	for b, cnt := range h.buckets {
		if cnt == 0 {
			continue
		}
		before := cum
		cum += cnt
		if t > float64(cum) {
			continue
		}
		lo := h.min
		if b > 0 {
			if lb := histUpperBound(b - 1); lb > lo {
				lo = lb
			}
		}
		hi := h.max
		if b <= histBuckets {
			if ub := histUpperBound(b); ub < hi {
				hi = ub
			}
		}
		if hi < lo {
			hi = lo
		}
		frac := (t - float64(before)) / float64(cnt)
		est := lo + frac*(hi-lo)
		if est < h.min {
			est = h.min
		}
		if est > h.max {
			est = h.max
		}
		return est
	}
	return h.max
}

// Counter returns (creating on first use) the named counter. On a nil
// registry it returns a nil instrument whose methods no-op.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// QueryMetrics are the handles of the query-record series that both
// recording layers update: the engine once per statement and the
// strategies once per collaborative query.
type QueryMetrics struct {
	queries, errors, slow, exemplars *Counter
	wall                             *Histogram
}

// QueryMetrics returns the registry's query handles, resolving them on
// first use; nil on a nil registry.
func (r *Registry) QueryMetrics() *QueryMetrics {
	if r == nil {
		return nil
	}
	r.queryOnce.Do(func() {
		r.query = &QueryMetrics{
			queries:   r.Counter(MetricQueries),
			errors:    r.Counter(MetricQueryErrors),
			slow:      r.Counter(MetricSlowQueries),
			exemplars: r.Counter(MetricTraceExemplars),
			wall:      r.Histogram(MetricQueryWallSeconds),
		}
	})
	return r.query
}

// Observe counts one recorded query: a failure when it has an error class,
// a slow query when slowThr > 0 and its wall time reaches slowThr (the rule
// QueryHistory.Add keeps slow records by), and its wall time with its
// trace ID as exemplar. Safe on a nil receiver.
func (m *QueryMetrics) Observe(rec *QueryRecord, slowThr time.Duration) {
	if m == nil {
		return
	}
	m.queries.Add(1)
	if rec.ErrClass != "" {
		m.errors.Add(1)
	}
	if slowThr > 0 && rec.Wall >= slowThr {
		m.slow.Add(1)
	}
	m.wall.ObserveExemplar(rec.Wall.Seconds(), rec.TraceID)
	if rec.TraceID != "" {
		m.exemplars.Add(1)
	}
}

// SchedMetrics are the inference scheduler's handles (the sched.* series).
type SchedMetrics struct {
	Submitted, CacheHits, DedupHits, Batches, Rejected *Counter
	BatchSize, BatchSeconds                            *Histogram
	QueueDepth                                         *Gauge
}

// SchedMetrics returns the registry's scheduler handles, resolving them on
// first use; nil on a nil registry.
func (r *Registry) SchedMetrics() *SchedMetrics {
	if r == nil {
		return nil
	}
	r.schedOnce.Do(func() {
		r.sched = &SchedMetrics{
			Submitted:    r.Counter(MetricSchedSubmitted),
			CacheHits:    r.Counter(MetricSchedCacheHits),
			DedupHits:    r.Counter(MetricSchedDedupHits),
			Batches:      r.Counter(MetricSchedBatches),
			Rejected:     r.Counter(MetricSchedRejected),
			BatchSize:    r.Histogram(MetricSchedBatchSize),
			BatchSeconds: r.Histogram(MetricSchedBatchSeconds),
			QueueDepth:   r.Gauge(MetricSchedQueueDepth),
		}
	})
	return r.sched
}

// ServerMetrics are the HTTP front end's per-request handles (the server.*
// request and admission series, and the trace exemplar counter).
type ServerMetrics struct {
	Requests, Errors, Admitted, Queued, Rejected, Exemplars *Counter
	RequestSeconds, QueueSeconds                            *Histogram
	Inflight                                                *Gauge
}

// ServerMetrics returns the registry's server handles, resolving them on
// first use; nil on a nil registry.
func (r *Registry) ServerMetrics() *ServerMetrics {
	if r == nil {
		return nil
	}
	r.serverOnce.Do(func() {
		r.server = &ServerMetrics{
			Requests:       r.Counter(MetricServerRequests),
			Errors:         r.Counter(MetricServerErrors),
			Admitted:       r.Counter(MetricServerAdmitted),
			Queued:         r.Counter(MetricServerQueued),
			Rejected:       r.Counter(MetricServerRejected),
			Exemplars:      r.Counter(MetricTraceExemplars),
			RequestSeconds: r.Histogram(MetricServerRequestSeconds),
			QueueSeconds:   r.Histogram(MetricServerQueueSeconds),
			Inflight:       r.Gauge(MetricServerInflight),
		}
	})
	return r.server
}

// StrategyMetrics are one strategy's per-query handles: its query counter
// and the histograms of its cost-breakdown buckets, in seconds.
type StrategyMetrics struct {
	Queries                               *Counter
	Loading, Inference, Relational, Total *Histogram
}

// Strategy returns the named strategy's handles, resolving them on the
// strategy's first use; nil on a nil registry.
func (r *Registry) Strategy(name string) *StrategyMetrics {
	if r == nil {
		return nil
	}
	if m, ok := r.strategies.Load(name); ok {
		return m.(*StrategyMetrics)
	}
	m, _ := r.strategies.LoadOrStore(name, &StrategyMetrics{
		Queries:    r.Counter(StrategyMetric(name, "queries")),
		Loading:    r.Histogram(StrategyMetric(name, "loading_s")),
		Inference:  r.Histogram(StrategyMetric(name, "inference_s")),
		Relational: r.Histogram(StrategyMetric(name, "relational_s")),
		Total:      r.Histogram(StrategyMetric(name, "total_s")),
	})
	return m.(*StrategyMetrics)
}

// Snapshot is a point-in-time copy of every instrument, JSON-serializable.
type Snapshot struct {
	Counters   map[string]int64       `json:"counters,omitempty"`
	Gauges     map[string]float64     `json:"gauges,omitempty"`
	Histograms map[string]HistSummary `json:"histograms,omitempty"`
}

// Snapshot captures every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSummary{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		snap.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		snap.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		snap.Histograms[k] = v.Summary()
	}
	return snap
}

// WriteJSON serializes a snapshot of the registry.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// String renders the snapshot as aligned text, one instrument per line,
// keys sorted for determinism.
func (s Snapshot) String() string {
	var sb strings.Builder
	for _, k := range sortedKeys(s.Counters) {
		fmt.Fprintf(&sb, "counter   %-42s %d\n", k, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&sb, "gauge     %-42s %g\n", k, s.Gauges[k])
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		fmt.Fprintf(&sb, "histogram %-42s count=%d mean=%.6f p50=%.6f p95=%.6f p99=%.6f max=%.6f\n",
			k, h.Count, h.Mean, h.P50, h.P95, h.P99, h.Max)
	}
	return sb.String()
}
