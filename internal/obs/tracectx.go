package obs

// Request-scoped tracing: trace identity and context plumbing.
//
// A Trace is one query's identity (a seedable hex ID) plus its root span
// and the tail-sampling flags that accumulate while it runs. The active
// trace and the active span both ride the context.Context that already
// threads through sqldb → strategies → schedule, so every layer can attach
// child spans and mark sampling-relevant events (errors, fallbacks,
// breaker rejections) without new plumbing. The outermost layer that sees
// no trace in its context creates one (server request handling, the
// strategy fallback entry point, or the engine's statement recorder) and
// is the only layer that finishes it and runs the tail-sampling decision;
// TraceStore.Enter is that rule.
//
// Everything here follows the package's nil-safety contract: a nil *Trace
// is a valid disabled trace whose methods no-op, so hot paths pay only a
// nil check when the trace store is not armed.

import (
	"context"
	"sync/atomic"
	"time"
)

// Trace is one query's tracing identity: the ID propagated across layers
// (and across the HTTP hop via the X-Trace-Id header), the root span of
// its tree, and the flags the tail sampler consults at the end.
type Trace struct {
	id    string
	root  *Span
	start time.Time

	// arena backs every span of this trace; embedding it makes the trace,
	// its arena, and (via the first chunk) its typical span tree one
	// allocation group instead of one per span.
	arena spanArena

	// flags accumulate sampling-relevant events (see traceFlag*).
	flags atomic.Uint32
	// state is the tail-sampling outcome: 0 undecided, 1 dropped, 2 kept.
	state atomic.Uint32
}

const (
	traceFlagError uint32 = 1 << iota
	traceFlagFallback
	traceFlagBreaker
)

const (
	traceUndecided uint32 = iota
	traceDropped
	traceKept
)

// ID returns the trace's hex identifier ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the trace's root span.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Start returns the trace's start time.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// MarkError flags the trace for tail retention: it ended in an error.
func (t *Trace) MarkError() { t.mark(traceFlagError) }

// MarkFallback flags the trace for tail retention: the graceful-degradation
// ladder engaged during it.
func (t *Trace) MarkFallback() { t.mark(traceFlagFallback) }

// MarkBreakerRejected flags the trace for tail retention: the serving
// circuit breaker failed a call fast during it.
func (t *Trace) MarkBreakerRejected() { t.mark(traceFlagBreaker) }

func (t *Trace) mark(flag uint32) {
	if t == nil {
		return
	}
	for {
		cur := t.flags.Load()
		if cur&flag != 0 || t.flags.CompareAndSwap(cur, cur|flag) {
			return
		}
	}
}

func (t *Trace) flag(flag uint32) bool {
	return t != nil && t.flags.Load()&flag != 0
}

// Kept reports whether the tail sampler retained the trace (false while
// undecided).
func (t *Trace) Kept() bool {
	return t != nil && t.state.Load() == traceKept
}

// RecordID is the trace ID to stamp on query-history records: the ID while
// the sampling decision is pending or once the trace is kept, "" once the
// trace is decided-dropped (an unsampled trace is not retrievable, so its
// ID would dangle).
func (t *Trace) RecordID() string {
	if t == nil || t.state.Load() == traceDropped {
		return ""
	}
	return t.id
}

// ---- context plumbing ----

// The active trace and the active span travel under ONE context key as a
// pair: the per-query hot path attaches both at once for a single
// context allocation, and every lookup resolves in a single chain walk.
// Setting just one of the two (a nested span push, a bare trace attach)
// snapshots the other from the current context so the nearest pair always
// carries both correctly.

type traceSpanKey struct{}
type traceIDHintKey struct{}

type traceSpanPair struct {
	t *Trace
	s *Span
}

// ContextWithTrace attaches the active trace to the context.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, traceSpanKey{}, &traceSpanPair{t: t, s: SpanFromContext(ctx)})
}

// ContextWithTraceSpan attaches the active trace and span in one step —
// one context allocation instead of two for the per-query path.
func ContextWithTraceSpan(ctx context.Context, t *Trace, s *Span) context.Context {
	if t == nil && s == nil {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, traceSpanKey{}, &traceSpanPair{t: t, s: s})
}

// pairFromContext recovers the nearest (trace, span) pair; the zero pair
// when the context carries none.
func pairFromContext(ctx context.Context) traceSpanPair {
	if ctx != nil {
		if p, _ := ctx.Value(traceSpanKey{}).(*traceSpanPair); p != nil {
			return *p
		}
	}
	return traceSpanPair{}
}

// TraceFromContext recovers the active trace, if any.
func TraceFromContext(ctx context.Context) *Trace { return pairFromContext(ctx).t }

// TraceIDFromContext is the active trace's ID ("" when untraced) — the
// value the serving client sends as X-Trace-Id and the scheduler records
// per batch waiter.
func TraceIDFromContext(ctx context.Context) string {
	return TraceFromContext(ctx).ID()
}

// ContextWithSpan attaches the active span (the parent for child spans
// started further down the call chain).
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, traceSpanKey{}, &traceSpanPair{t: TraceFromContext(ctx), s: s})
}

// SpanFromContext recovers the active span, if any.
func SpanFromContext(ctx context.Context) *Span { return pairFromContext(ctx).s }

// ContextWithTraceID plants an externally supplied trace ID (the server
// reads the request's X-Trace-Id header into this) so the trace created
// downstream adopts it instead of generating a fresh one. Invalid IDs are
// ignored at creation time.
func ContextWithTraceID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, traceIDHintKey{}, id)
}

// TraceIDHint recovers an externally supplied trace ID, if any.
func TraceIDHint(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(traceIDHintKey{}).(string)
	return id
}

// ValidTraceID reports whether an externally supplied trace ID is safe to
// adopt: 1–64 bytes of [0-9a-zA-Z_-]. Anything else (empty, oversized,
// exotic bytes from an untrusted header) is rejected and a fresh ID is
// generated instead.
func ValidTraceID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// StartSpan opens a span as a child of the context's active span and
// returns the context carrying the new span as the active parent. With no
// active span (the query is untraced) it returns ctx unchanged and a nil
// span — the usual zero-cost disabled path.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	s := SpanFromContext(ctx).StartChild(name)
	return ContextWithSpan(ctx, s), s
}

// TraceScope is one layer's stake in a request-scoped trace: the span the
// layer contributes and, when the layer created the trace, the duty to
// finish it. The zero value is the untraced scope; all its methods no-op.
type TraceScope struct {
	// Span is the layer's own span: the trace root when this layer created
	// the trace, a child of the context's active span otherwise.
	Span  *Span
	trace *Trace
	owner *TraceStore // non-nil only when this scope created the trace
}

// Enter is the creator hierarchy in one place. A layer that wants its work
// traced (server request handling, the strategy fallback entry point, the
// engine's statement recorder) calls Enter on its store: when the context
// already carries a trace the layer joins it with a childName span under
// the active span (or the root) and leaves the tail decision to whoever
// created the trace; otherwise, with a store armed, the layer is the
// outermost one — it starts a trace rooted at rootName and Exit runs the
// tail-sampling decision. The returned context carries the trace and the
// layer's span. On a nil store with an untraced context it returns ctx
// and the zero scope.
func (ts *TraceStore) Enter(ctx context.Context, rootName, childName string, start time.Time) (context.Context, TraceScope) {
	active := pairFromContext(ctx)
	sc := TraceScope{trace: active.t}
	switch {
	case sc.trace != nil:
		parent := active.s
		if parent == nil {
			parent = sc.trace.Root()
		}
		sc.Span = parent.StartChildAt(childName, start)
	case ts != nil:
		sc.trace = ts.StartTraceAt(ctx, rootName, start)
		sc.Span = sc.trace.Root()
		sc.owner = ts
	default:
		return ctx, sc
	}
	return ContextWithTraceSpan(ctx, sc.trace, sc.Span), sc
}

// Exit closes the scope's span at end, marking span and trace with
// errClass when the layer's work failed (errClass != ""), and — when this
// scope created the trace — finishes it and runs the tail decision. It
// returns the ID to stamp on history records and exemplars (see
// Trace.RecordID).
func (sc TraceScope) Exit(end time.Time, errClass string) string {
	if errClass != "" {
		sc.Span.SetAttr("err", errClass)
		sc.trace.MarkError()
	}
	sc.Span.FinishAt(end)
	sc.owner.Finish(sc.trace)
	return sc.trace.RecordID()
}
