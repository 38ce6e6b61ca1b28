package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// keepAll retains every trace with room for large span trees — what
// sqlsh \trace and dl2sql -trace arm.
func keepAll() *TraceStore {
	return NewTraceStore(TraceStoreConfig{Seed: 1, SampleEvery: 1, MaxSpansPerTrace: 1 << 12})
}

func TestNilStoreIsNoOp(t *testing.T) {
	var ts *TraceStore
	ctx, sc := ts.Enter(context.Background(), "root", "child", time.Now())
	if sc.Span != nil || TraceFromContext(ctx) != nil {
		t.Fatal("nil store produced a live scope")
	}
	// Every downstream call must be safe on the nil span.
	ctx, sp := StartSpan(ctx, "phase")
	if sp != nil || SpanFromContext(ctx) != nil {
		t.Fatal("untraced context produced a live span")
	}
	child := sp.StartChild("child")
	child.SetAttr("k", "v")
	child.Finish()
	sp.Finish()
	if id := sc.Exit(time.Now(), "error"); id != "" {
		t.Fatalf("nil scope exit returned trace ID %q", id)
	}
	var buf bytes.Buffer
	n, err := ts.WriteChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("nil store chrome export = %d spans, %q; want 0, []", n, buf.String())
	}
}

func TestSpanNesting(t *testing.T) {
	ts := keepAll()
	tr := ts.StartTrace(context.Background(), "query")
	root := tr.Root()
	root.SetAttr("sql", "SELECT 1")
	scan := root.StartChild("Scan")
	scan.SetAttr("rows", 10)
	scan.Finish()
	join := root.StartChild("Join")
	inner := join.StartChild("probe")
	inner.Finish()
	join.Finish()
	if !ts.Finish(tr) {
		t.Fatal("keep-all store dropped the trace")
	}

	st, _ := ts.Get(tr.ID())
	type row struct {
		name   string
		parent int
		attrs  string
	}
	want := []row{{"query", 0, "sql=SELECT 1"}, {"Scan", 1, "rows=10"}, {"Join", 1, ""}, {"probe", 3, ""}}
	if len(st.Spans) != len(want) {
		t.Fatalf("span rows = %d, want %d: %+v", len(st.Spans), len(want), st.Spans)
	}
	for i, w := range want {
		r := st.Spans[i]
		if r.SpanID != i+1 || r.Name != w.name || r.ParentID != w.parent || r.Attrs != w.attrs {
			t.Fatalf("row %d = %+v, want %+v", i, r, w)
		}
	}
	if st.Spans[0].Dur <= 0 {
		t.Fatal("finished root has non-positive duration")
	}
}

func TestStoreChromeTraceExporter(t *testing.T) {
	ts := keepAll()
	for _, name := range []string{"DL2SQL", "DB-UDF"} {
		ctx, sc := ts.Enter(context.Background(), "strategy", "strategy", time.Now())
		sc.Span.SetAttr("name", name)
		_, child := StartSpan(ctx, "loading")
		time.Sleep(time.Millisecond)
		child.Finish()
		sc.Exit(time.Now(), "")
	}

	var buf bytes.Buffer
	n, err := ts.WriteChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	if n != 4 || len(events) != 4 {
		t.Fatalf("exported %d events (reported %d), want 4", len(events), n)
	}
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Fatalf("event phase = %v, want X", ev["ph"])
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("event missing numeric ts: %v", ev)
		}
		if _, ok := ev["dur"].(float64); !ok {
			t.Fatalf("event missing numeric dur: %v", ev)
		}
	}
	for i, name := range []string{"DL2SQL", "DB-UDF"} {
		root, child := events[2*i], events[2*i+1]
		if root["name"] != "strategy" || child["name"] != "loading" {
			t.Fatalf("trace %d events = %v, %v; want strategy, loading", i, root["name"], child["name"])
		}
		args, ok := root["args"].(map[string]any)
		if !ok || args["attrs"] != "name="+name {
			t.Fatalf("root span args not exported: %v", root["args"])
		}
		// The child must sit inside the parent's window.
		if child["ts"].(float64) < root["ts"].(float64) || child["dur"].(float64) > root["dur"].(float64) {
			t.Fatal("child event escapes its parent")
		}
	}
	// One epoch for the whole file: the second trace starts after the first.
	if events[2]["ts"].(float64) <= events[0]["ts"].(float64) {
		t.Fatalf("second trace ts %v not after first %v", events[2]["ts"], events[0]["ts"])
	}
}

// TestEnterCreatesOrJoins pins the creator hierarchy: the outermost layer
// creates the trace and owns the tail decision, inner layers join it with a
// child span under the active span (or the root) and never finish it.
func TestEnterCreatesOrJoins(t *testing.T) {
	ts := keepAll()
	start := time.Now()
	ctx, outer := ts.Enter(context.Background(), "request", "unused", start)
	tr := TraceFromContext(ctx)
	if tr == nil || outer.Span != tr.Root() || SpanFromContext(ctx) != outer.Span {
		t.Fatal("outermost Enter did not create a trace rooted at its span")
	}

	// An inner layer joins — on a different (even nil) store — under the
	// active span.
	var none *TraceStore
	ctx2, inner := none.Enter(ctx, "query", "sql", start)
	if TraceFromContext(ctx2) != tr || SpanFromContext(ctx2) != inner.Span {
		t.Fatal("inner Enter did not join the context's trace")
	}
	// A bare trace attach (no active span) joins under the root.
	_, bare := ts.Enter(ContextWithTrace(context.Background(), tr), "query", "sql", start)

	if id := inner.Exit(start.Add(time.Millisecond), "timeout"); id != tr.ID() {
		t.Fatalf("inner exit record ID = %q, want the pending trace's %q", id, tr.ID())
	}
	bare.Exit(start.Add(time.Millisecond), "")
	if ts.Len() != 0 {
		t.Fatal("an inner layer finished the trace")
	}
	if id := outer.Exit(start.Add(2*time.Millisecond), ""); id != tr.ID() {
		t.Fatalf("outer exit record ID = %q, want %q", id, tr.ID())
	}
	st, ok := ts.Get(tr.ID())
	if !ok || st.Reason != "error" {
		t.Fatalf("trace retained = %v, reason %q; want kept for the inner layer's error", ok, st.Reason)
	}
	if len(st.Spans) != 3 || st.Spans[0].Name != "request" ||
		st.Spans[1].Name != "sql" || st.Spans[1].ParentID != 1 || st.Spans[1].Attrs != "err=timeout" ||
		st.Spans[2].Name != "sql" || st.Spans[2].ParentID != 1 || st.Spans[2].Attrs != "" {
		t.Fatalf("span rows = %+v", st.Spans)
	}
	if st.Wall != 2*time.Millisecond || st.Spans[1].Dur != time.Millisecond {
		t.Fatalf("wall %v / inner dur %v: Exit did not close spans at the lent clock reading", st.Wall, st.Spans[1].Dur)
	}
}

func TestConcurrentSpansAndMetrics(t *testing.T) {
	ts := keepAll()
	reg := NewRegistry()
	tr := ts.StartTrace(context.Background(), "parallel")
	root := tr.Root()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sp := root.StartChild("work")
				sp.SetAttr("j", j)
				sp.Finish()
				reg.Counter("ops").Add(1)
				reg.Gauge("last").Set(float64(j))
				reg.Histogram("latency").Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	ts.Finish(tr)
	st, _ := ts.Get(tr.ID())
	if got := len(st.Spans) - 1; got != 16*50 {
		t.Fatalf("children = %d, want %d", got, 16*50)
	}
	if got := reg.Counter("ops").Value(); got != 16*50 {
		t.Fatalf("counter = %d, want %d", got, 16*50)
	}
	if got := reg.Histogram("latency").Summary().Count; got != 16*50 {
		t.Fatalf("histogram count = %d, want %d", got, 16*50)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(5)
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(2)
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Summary()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("summary basics wrong: %+v", s)
	}
	// Count/Min/Max/Mean are exact; quantiles are bucket-interpolated with
	// at most one bucket (~2.2%) of relative error around the exact order
	// statistics (50.5 / 95.05 / 99.01).
	if s.P50 < 48.5 || s.P50 > 52 {
		t.Fatalf("p50 = %v, want ~50.5 (±2.5%%)", s.P50)
	}
	if s.P95 < 92.5 || s.P95 > 97.5 {
		t.Fatalf("p95 = %v, want ~95 (±2.5%%)", s.P95)
	}
	if s.P99 < 96.5 || s.P99 > 100 {
		t.Fatalf("p99 = %v, want ~99 (±2.5%%)", s.P99)
	}
	if s.Mean < 50.4 || s.Mean > 50.6 {
		t.Fatalf("mean = %v, want 50.5", s.Mean)
	}
	if s.Sum != 5050 {
		t.Fatalf("sum = %v, want 5050", s.Sum)
	}
}

func TestRegistrySnapshotJSONAndString(t *testing.T) {
	r := NewRegistry()
	r.Counter("queries").Add(3)
	r.Gauge("tables").Set(7)
	r.Histogram("strategy.DL2SQL.inference").Observe(0.25)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSON round-trip: %v", err)
	}
	if snap.Counters["queries"] != 3 || snap.Gauges["tables"] != 7 {
		t.Fatalf("round-tripped snapshot wrong: %+v", snap)
	}
	text := r.Snapshot().String()
	for _, want := range []string{"queries", "tables", "strategy.DL2SQL.inference", "p95"} {
		if !strings.Contains(text, want) {
			t.Fatalf("snapshot text missing %q:\n%s", want, text)
		}
	}
}
