// Package obs is the repo's stdlib-only observability layer: request-scoped
// traces of hierarchical spans retained by a tail-sampling TraceStore (with
// a Chrome trace_event exporter), plus a metrics registry (counters,
// gauges, latency histograms).
//
// Everything is nil-safe: a nil *TraceStore produces nil *Traces and nil
// *Spans, and every method on a nil receiver is a no-op that allocates
// nothing. Hot paths can therefore call StartChild/Finish unconditionally
// and pay only a nil check when tracing is disabled — the per-operator
// instrumentation in sqldb, the per-layer instrumentation in nn, and the
// per-step instrumentation in dl2sql all rely on this.
package obs

import (
	"sort"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// Span is one timed region of work inside a Trace. Spans nest: children
// created with StartChild(name) become rows under their parent when the
// trace is retained. Every span lives in its trace's arena; the only way
// to get one is Trace.Root or StartChild on an existing span.
//
// The first annotation and the first child live in inline slots: the
// always-on tracing path creates many spans that carry exactly one attr
// ("sql", "rows") and at most one child, and the inline slots keep those
// spans allocation-free beyond the arena chunk.
//
// Ownership contract: a span is mutated (SetAttr, Finish) only by the
// goroutine that created it. Child creation is the one genuinely
// concurrent mutation — morsel workers evaluating a traced UDF and
// per-candidate scheduler submissions open children under a parent they
// do not own — so linking is serialized by the trace's arena lock while
// everything else is lock-free. Tree walks (Children, Attrs, the flatten
// step) are safe once the walked subtree is quiescent: after the trace
// finished, or after the statement that owned the spans returned.
type Span struct {
	Name  string
	Start time.Time
	End   time.Time

	attr0    Attr
	nattr    int
	attrs    []Attr // overflow beyond attr0
	child0   *Span
	children []*Span // overflow beyond child0
	ended    bool
	arena    *spanArena
}

// spanChunkLen covers a typical statement's span tree (root + one span
// per plan operator) in a single chunk.
const spanChunkLen = 8

// spanChunkPool recycles first chunks between dropped traces: with the
// default 1-in-64 tail sampling almost every trace is discarded wholesale,
// and reusing the chunk keeps the per-query tracing cost off the GC.
var spanChunkPool = sync.Pool{New: func() any { return new([spanChunkLen]Span) }}

// spanArena chunk-allocates the spans of one trace so a typical query's
// span tree costs at most one bulk allocation instead of one per span.
// Spans are handed out by pointer into the chunk and never move. The
// first chunk comes from spanChunkPool and goes back via release();
// overflow chunks are ordinary garbage.
type spanArena struct {
	mu     sync.Mutex
	chunk  []Span
	used   int
	pooled *[spanChunkLen]Span
	// total counts spans handed out; once it reaches limit (0 = unbounded)
	// alloc returns nil and counts the request in dropped. The trace store
	// sets limit to its MaxSpansPerTrace, so a query that would produce
	// thousands of spans (per-call, per-layer inference detail) stops paying
	// for them at creation time — the flatten step would discard them anyway.
	total   int
	limit   int
	dropped int
}

func (a *spanArena) alloc(name string, start time.Time) *Span {
	a.mu.Lock()
	s := a.allocLocked(name, start)
	a.mu.Unlock()
	return s
}

func (a *spanArena) allocLocked(name string, start time.Time) *Span {
	if a.limit > 0 && a.total >= a.limit {
		a.dropped++
		return nil
	}
	a.total++
	if a.used == len(a.chunk) {
		if a.chunk == nil {
			a.pooled = spanChunkPool.Get().(*[spanChunkLen]Span)
			a.chunk = a.pooled[:]
		} else {
			n := 2 * len(a.chunk)
			if n > 64 {
				n = 64
			}
			a.chunk = make([]Span, n)
		}
		a.used = 0
	}
	s := &a.chunk[a.used]
	a.used++
	s.Name, s.Start, s.arena = name, start, a
	return s
}

// newChild allocates a child span and links it into parent under one lock
// acquisition. Every span of a trace shares the trace's arena, so the
// arena lock serializes all child linking within the trace — including
// concurrent creations under the same parent from morsel workers.
func (a *spanArena) newChild(parent *Span, name string, start time.Time) *Span {
	a.mu.Lock()
	c := a.allocLocked(name, start)
	if c != nil {
		if parent.child0 == nil && parent.children == nil {
			parent.child0 = c
		} else {
			parent.children = append(parent.children, c)
		}
	}
	a.mu.Unlock()
	return c
}

// droppedSpans reports how many span allocations the limit suppressed.
func (a *spanArena) droppedSpans() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dropped
}

// release recycles the pooled first chunk after the owning trace is
// decided and its spans are unreachable (dropped, or kept and flattened
// into immutable SpanRows).
func (a *spanArena) release() {
	a.mu.Lock()
	p := a.pooled
	// A chunk of spanChunkLen is necessarily the pooled one; once the
	// arena grew past it, the pooled chunk was fully used.
	used := spanChunkLen
	if len(a.chunk) == spanChunkLen {
		used = a.used
	}
	a.pooled, a.chunk, a.used = nil, nil, 0
	a.mu.Unlock()
	if p == nil {
		return
	}
	for i := range p[:used] {
		p[i] = Span{}
	}
	spanChunkPool.Put(p)
}

// StartChild opens a child span. Safe (and free) on a nil receiver.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.StartChildAt(name, time.Now())
}

// StartChildAt opens a child span with a caller-supplied start time. Hot
// paths that already read the clock for accounting (the executor's
// per-operator busy time) pass that stamp through instead of paying a
// second read per span.
func (s *Span) StartChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	// Returns nil once the trace's span budget is exhausted; the whole
	// subtree then degrades to nil no-op spans.
	return s.arena.newChild(s, name, start)
}

// SetAttr annotates the span. Safe on a nil receiver. Owner-only (see the
// Span ownership contract) — it runs lock-free.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	if s.nattr == 0 {
		s.attr0 = Attr{Key: key, Value: value}
	} else {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.nattr++
}

// Finish closes the span; later calls are ignored. Safe on a nil receiver.
// Owner-only, lock-free.
func (s *Span) Finish() {
	if s == nil || s.ended {
		return
	}
	s.End = time.Now()
	s.ended = true
}

// FinishAt closes the span with a caller-supplied end time (the companion
// of StartChildAt for paths that already hold a fresh clock reading).
// Later calls are ignored. Safe on a nil receiver. Owner-only, lock-free.
func (s *Span) FinishAt(end time.Time) {
	if s == nil || s.ended {
		return
	}
	s.End = end
	s.ended = true
}

// Duration is End-Start for a finished span, time-since-Start otherwise.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	if s.ended {
		return s.End.Sub(s.Start)
	}
	return time.Since(s.Start)
}

// Children returns the span's direct children. Safe once the subtree is
// quiescent (see the Span ownership contract).
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	if s.child0 == nil {
		return append([]*Span(nil), s.children...)
	}
	out := make([]*Span, 0, 1+len(s.children))
	out = append(out, s.child0)
	return append(out, s.children...)
}

// Attrs returns the span's annotations. Safe once the span is quiescent.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	if s.nattr == 0 {
		return nil
	}
	out := make([]Attr, 0, s.nattr)
	out = append(out, s.attr0)
	return append(out, s.attrs...)
}

// sortedKeys returns map keys in deterministic order (exporter helper).
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
