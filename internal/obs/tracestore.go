package obs

// Tail-sampled trace retention: a bounded in-memory store of finished span
// trees, queryable through the engine's sys.traces / sys.spans virtual
// tables and exportable per trace as Chrome trace_event JSON.
//
// The sampling decision is tail-based — made when the trace finishes, with
// the whole query's outcome in hand. A trace is retained when it was slow
// (wall time over the configured threshold), errored, engaged the fallback
// ladder, or was rejected by the circuit breaker, plus a deterministic
// 1-in-N fraction of normal traces (a hash of the trace ID, so a seeded ID
// generator makes the decision fully reproducible in tests). Dropped
// traces cost nothing beyond their live spans, which become garbage
// immediately.
//
// Retained traces are flattened at Finish time: the mutable span tree is
// walked depth-first into immutable SpanRow snapshots with store-assigned
// span IDs, bounded by MaxSpansPerTrace. Readers (sys.spans scans, the
// /v1/traces/{id} endpoint) only ever touch these frozen rows, so
// concurrent queries writing new spans never race a reader.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// TraceStoreConfig sizes a TraceStore. The zero value uses the defaults
// noted per field.
type TraceStoreConfig struct {
	// MaxTraces bounds the retained-trace ring (default 256).
	MaxTraces int
	// MaxSpansPerTrace truncates a retained trace's flattened span tree
	// (default 512; the trace records how many spans it really had).
	MaxSpansPerTrace int
	// SlowThreshold marks traces for retention by wall time (default
	// 250ms; negative disables the slow criterion).
	SlowThreshold time.Duration
	// SampleEvery keeps 1 in N normal (fast, clean) traces, decided by a
	// hash of the trace ID (default 64; 1 keeps every trace; negative
	// keeps none beyond the tail criteria).
	SampleEvery int
	// Seed seeds the trace-ID generator; 0 derives a seed from the clock.
	// Tests pin it so IDs — and with them the 1-in-N decisions — are
	// deterministic.
	Seed int64
	// Metrics, when non-nil, receives the trace.* counters, gauges, and
	// histograms.
	Metrics *Registry
}

func (c TraceStoreConfig) maxTraces() int {
	if c.MaxTraces <= 0 {
		return 256
	}
	return c.MaxTraces
}

func (c TraceStoreConfig) maxSpans() int {
	if c.MaxSpansPerTrace <= 0 {
		return 512
	}
	return c.MaxSpansPerTrace
}

func (c TraceStoreConfig) slowThreshold() time.Duration {
	if c.SlowThreshold == 0 {
		return 250 * time.Millisecond
	}
	return c.SlowThreshold
}

func (c TraceStoreConfig) sampleEvery() int {
	if c.SampleEvery == 0 {
		return 64
	}
	return c.SampleEvery
}

// SpanRow is one flattened, immutable span of a retained trace. SpanID is
// assigned depth-first at retention time (the root is 1); ParentID is 0
// for the root. Self is the part of Dur no child covers: the time the
// span spent in its own work.
type SpanRow struct {
	SpanID   int
	ParentID int
	Name     string
	Start    time.Time
	Dur      time.Duration
	Self     time.Duration
	Attrs    string
}

// StoredTrace is one retained trace: identity, outcome, and its frozen
// span rows.
type StoredTrace struct {
	ID    string
	Start time.Time
	Wall  time.Duration
	// Reason says why the tail sampler kept it: "slow", "error",
	// "fallback", "breaker", or "sampled" (the 1-in-N fraction).
	Reason string
	// Spans is the flattened tree, depth-first; SpanTotal is the true span
	// count before MaxSpansPerTrace truncation.
	Spans     []SpanRow
	SpanTotal int
}

// Truncated reports whether the span tree was cut off by MaxSpansPerTrace.
func (st *StoredTrace) Truncated() bool { return st.SpanTotal > len(st.Spans) }

// TraceStore owns trace creation (seedable IDs), the tail-sampling
// decision, and the bounded ring of retained traces. A nil *TraceStore is
// a valid disabled store: StartTrace returns a nil trace and every lookup
// is empty, so always-on call sites pay only nil checks.
type TraceStore struct {
	cfg TraceStoreConfig

	genMu sync.Mutex
	gen   *rand.Rand

	// Metric handles are resolved once at construction: the registry hands
	// out stable pointers, and the per-query paths (StartTrace, Finish)
	// must not pay a name lookup under the registry lock each time.
	mStarted  *Counter
	mRetained *Counter
	mDropped  *Counter
	mByReason map[string]*Counter
	mSpans    *Histogram
	mTraces   *Gauge

	mu   sync.Mutex
	ring []*StoredTrace
	pos  int
	byID map[string]*StoredTrace
}

// NewTraceStore builds a store (and its ID generator) from the config.
func NewTraceStore(cfg TraceStoreConfig) *TraceStore {
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	ts := &TraceStore{
		cfg:  cfg,
		gen:  rand.New(rand.NewSource(seed)),
		byID: map[string]*StoredTrace{},
	}
	if m := cfg.Metrics; m != nil {
		ts.mStarted = m.Counter(MetricTracesStarted)
		ts.mRetained = m.Counter(MetricTracesRetained)
		ts.mDropped = m.Counter(MetricTracesDropped)
		ts.mByReason = map[string]*Counter{}
		for _, r := range []string{"slow", "error", "fallback", "breaker", "sampled"} {
			ts.mByReason[r] = m.Counter(TraceRetainedMetric(r))
		}
		ts.mSpans = m.Histogram(MetricTraceSpans)
		ts.mTraces = m.Gauge(MetricTraceStoreTraces)
	}
	return ts
}

// NextID generates a fresh trace ID: 16 lowercase hex characters from the
// seeded generator. Encoded by hand — this runs once per query, and
// fmt.Sprintf("%016x") shows up in profiles at that frequency.
func (ts *TraceStore) NextID() string {
	if ts == nil {
		return ""
	}
	ts.genMu.Lock()
	v := ts.gen.Uint64()
	ts.genMu.Unlock()
	if v == 0 {
		v = 1
	}
	const hexdigits = "0123456789abcdef"
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = hexdigits[v&0xf]
		v >>= 4
	}
	return string(buf[:])
}

// StartTrace opens a new trace whose root span is named rootName. When the
// context carries a valid externally supplied ID (ContextWithTraceID — the
// server plants the request's X-Trace-Id here), the trace adopts it;
// otherwise a fresh ID is generated. Callers attach the returned trace and
// its root span to the context and later pass the trace to Finish exactly
// once. Nil-safe: a nil store returns a nil trace.
func (ts *TraceStore) StartTrace(ctx context.Context, rootName string) *Trace {
	return ts.StartTraceAt(ctx, rootName, time.Now())
}

// StartTraceAt is StartTrace with a caller-supplied start time, for call
// sites that already read the clock for their own accounting (the query
// recorder's wall-time stamp) and can lend tracing the same reading.
func (ts *TraceStore) StartTraceAt(ctx context.Context, rootName string, start time.Time) *Trace {
	if ts == nil {
		return nil
	}
	id := ""
	if hint := TraceIDHint(ctx); ValidTraceID(hint) {
		id = hint
	}
	if id == "" {
		id = ts.NextID()
	}
	t := &Trace{id: id}
	// Bound span creation at the retention bound: spans past it would be
	// discarded by the flatten step anyway, so don't build them at all.
	t.arena.limit = ts.cfg.maxSpans()
	t.root = t.arena.alloc(rootName, start)
	t.start = start
	if ts.mStarted != nil {
		ts.mStarted.Add(1)
	}
	return t
}

// Finish closes the trace's root span, runs the tail-sampling decision,
// and — when the trace is kept — flattens and retains its span tree.
// Returns whether the trace was retained. Safe on a nil store or trace.
func (ts *TraceStore) Finish(t *Trace) bool {
	if ts == nil || t == nil {
		return false
	}
	t.root.Finish()
	wall := t.root.Duration()
	reason := ts.keepReason(t, wall)
	if reason == "" {
		t.state.Store(traceDropped)
		// The span tree is unreachable from here on: detach it and hand
		// the chunk back to the pool for the next trace.
		t.root = nil
		t.arena.release()
		if ts.mDropped != nil {
			ts.mDropped.Add(1)
		}
		return false
	}
	t.state.Store(traceKept)
	st := &StoredTrace{ID: t.id, Start: t.start, Wall: wall, Reason: reason}
	st.Spans, st.SpanTotal = flattenSpans(t.root, ts.cfg.maxSpans())
	// Spans suppressed by the creation-time budget still count toward the
	// true total, so Truncated() stays honest.
	st.SpanTotal += t.arena.droppedSpans()
	ts.mu.Lock()
	if len(ts.ring) < ts.cfg.maxTraces() {
		ts.ring = append(ts.ring, st)
	} else {
		old := ts.ring[ts.pos]
		if ts.byID[old.ID] == old {
			delete(ts.byID, old.ID)
		}
		ts.ring[ts.pos] = st
		ts.pos = (ts.pos + 1) % ts.cfg.maxTraces()
	}
	ts.byID[st.ID] = st
	n := len(ts.ring)
	ts.mu.Unlock()
	if ts.mRetained != nil {
		ts.mRetained.Add(1)
		ts.mByReason[reason].Add(1)
		ts.mSpans.Observe(float64(st.SpanTotal))
		ts.mTraces.Set(float64(n))
	}
	return true
}

// keepReason is the tail-sampling policy. Flag criteria win over the slow
// criterion so a trace that both erred and was slow reports "error"; the
// deterministic fraction is the last resort for normal traces.
func (ts *TraceStore) keepReason(t *Trace, wall time.Duration) string {
	switch {
	case t.flag(traceFlagError):
		return "error"
	case t.flag(traceFlagBreaker):
		return "breaker"
	case t.flag(traceFlagFallback):
		return "fallback"
	}
	if thr := ts.cfg.slowThreshold(); thr > 0 && wall >= thr {
		return "slow"
	}
	if every := ts.cfg.sampleEvery(); every > 0 && sampledByHash(t.id, every) {
		return "sampled"
	}
	return ""
}

// sampledByHash is the deterministic 1-in-N decision: an FNV-1a hash of
// the trace ID modulo N. Every process (and every test re-run with a
// seeded ID generator) agrees on the same decision for the same ID.
func sampledByHash(id string, every int) bool {
	if every <= 1 {
		return true
	}
	var h uint64 = 14695981039346656037
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h%uint64(every) == 0
}

// flattenSpans freezes a finished span tree into SpanRows, depth-first,
// assigning span IDs as it goes and truncating at maxSpans. Returns the
// rows and the true total span count.
//
// A span still open here was abandoned on an error return; it is ended at
// its parent's end, so no row outlives its parent. A row's Self is its
// duration minus the union of its children's intervals clipped to it:
// morsel-worker children overlap, so subtracting their plain sum could
// take away more time than the span has.
func flattenSpans(root *Span, maxSpans int) ([]SpanRow, int) {
	var rows []SpanRow
	total := 0
	next := 1
	var walk func(s *Span, parent int, end time.Time)
	walk = func(s *Span, parent int, end time.Time) {
		total++
		children := s.Children()
		var id int
		if len(rows) < maxSpans {
			id = next
			next++
			dur := end.Sub(s.Start)
			rows = append(rows, SpanRow{
				SpanID:   id,
				ParentID: parent,
				Name:     s.Name,
				Start:    s.Start,
				Dur:      dur,
				Self:     dur - covered(children, s.Start, end),
				Attrs:    renderAttrs(s.Attrs()),
			})
		}
		for _, c := range children {
			walk(c, id, c.endOr(end))
		}
	}
	walk(root, 0, root.endOr(time.Now()))
	return rows, total
}

// endOr is the span's end when it finished, parentEnd otherwise.
func (s *Span) endOr(parentEnd time.Time) time.Time {
	if s.ended {
		return s.End
	}
	return parentEnd
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi]; a span still open ends at hi.
func covered(spans []*Span, lo, hi time.Time) time.Duration {
	spans = slices.Clone(spans)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	var d time.Duration
	reach := lo // end of the union so far
	for _, c := range spans {
		from, to := c.Start, c.endOr(hi)
		if from.Before(reach) {
			from = reach
		}
		if to.After(hi) {
			to = hi
		}
		if to.After(from) {
			d += to.Sub(from)
			reach = to
		}
	}
	return d
}

// renderAttrs renders span annotations as "k=v" pairs, space-joined.
func renderAttrs(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, a := range attrs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%v", a.Key, a.Value)
	}
	return sb.String()
}

// Get looks up a retained trace by ID.
func (ts *TraceStore) Get(id string) (*StoredTrace, bool) {
	if ts == nil {
		return nil, false
	}
	ts.mu.Lock()
	st, ok := ts.byID[id]
	ts.mu.Unlock()
	return st, ok
}

// Snapshot copies the retained traces, oldest first.
func (ts *TraceStore) Snapshot() []*StoredTrace {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]*StoredTrace, 0, len(ts.ring))
	out = append(out, ts.ring[ts.pos:]...)
	out = append(out, ts.ring[:ts.pos]...)
	return out
}

// Len reports how many traces are currently retained.
func (ts *TraceStore) Len() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.ring)
}

// SlowThreshold exposes the resolved slow-trace threshold (0 on nil).
func (ts *TraceStore) SlowThreshold() time.Duration {
	if ts == nil {
		return 0
	}
	return ts.cfg.slowThreshold()
}

// chromeEvent is one Chrome trace_event entry ("X" = complete event).
// Load the exported file at chrome://tracing or https://ui.perfetto.dev.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`  // microseconds since the export's epoch
	Dur   float64        `json:"dur"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// appendChromeEvents renders the trace's span rows as Chrome events with
// timestamps relative to epoch.
func (st *StoredTrace) appendChromeEvents(events []chromeEvent, epoch time.Time) []chromeEvent {
	for _, r := range st.Spans {
		ev := chromeEvent{
			Name:  r.Name,
			Phase: "X",
			TS:    float64(r.Start.Sub(epoch)) / float64(time.Microsecond),
			Dur:   float64(r.Dur) / float64(time.Microsecond),
			PID:   1,
			TID:   1,
		}
		ev.Args = map[string]any{
			"trace_id": st.ID,
			"span_id":  r.SpanID,
			"parent":   r.ParentID,
		}
		if r.Attrs != "" {
			ev.Args["attrs"] = r.Attrs
		}
		events = append(events, ev)
	}
	return events
}

// WriteChromeTrace exports one retained trace as Chrome trace_event JSON
// (load it at chrome://tracing or https://ui.perfetto.dev). Timestamps are
// microseconds relative to the trace start.
func (st *StoredTrace) WriteChromeTrace(w io.Writer) error {
	events := st.appendChromeEvents(make([]chromeEvent, 0, len(st.Spans)), st.Start)
	return json.NewEncoder(w).Encode(events)
}

// WriteChromeTrace exports every retained trace, oldest first, as one
// Chrome trace_event JSON array and reports how many spans it wrote.
// Timestamps are microseconds relative to the oldest trace's start.
func (ts *TraceStore) WriteChromeTrace(w io.Writer) (spans int, err error) {
	events := []chromeEvent{}
	snap := ts.Snapshot()
	for _, st := range snap {
		events = st.appendChromeEvents(events, snap[0].Start)
	}
	return len(events), json.NewEncoder(w).Encode(events)
}
