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

// finish closes any open child spans and runs the store's tail decision.
func finishTrace(ts *TraceStore, t *Trace) bool { return ts.Finish(t) }

func TestTraceStoreSeededIDsAreDeterministic(t *testing.T) {
	a := NewTraceStore(TraceStoreConfig{Seed: 42})
	b := NewTraceStore(TraceStoreConfig{Seed: 42})
	for i := 0; i < 16; i++ {
		ia, ib := a.NextID(), b.NextID()
		if ia != ib {
			t.Fatalf("seeded ID %d diverged: %q vs %q", i, ia, ib)
		}
		if len(ia) != 16 || !ValidTraceID(ia) {
			t.Fatalf("bad generated ID %q", ia)
		}
	}
}

func TestTailSamplingReasonPrecedence(t *testing.T) {
	// SlowThreshold 1ns: every finished trace qualifies as slow, so the
	// flag criteria must still win the reason.
	ts := NewTraceStore(TraceStoreConfig{Seed: 1, SlowThreshold: time.Nanosecond})
	cases := []struct {
		name string
		mark func(tr *Trace)
		want string
	}{
		{"error wins", func(tr *Trace) { tr.MarkError(); tr.MarkFallback(); tr.MarkBreakerRejected() }, "error"},
		{"breaker beats fallback", func(tr *Trace) { tr.MarkFallback(); tr.MarkBreakerRejected() }, "breaker"},
		{"fallback beats slow", func(tr *Trace) { tr.MarkFallback() }, "fallback"},
		{"slow is the default tail criterion", func(tr *Trace) {}, "slow"},
	}
	for _, c := range cases {
		tr := ts.StartTrace(context.Background(), "q")
		c.mark(tr)
		time.Sleep(time.Microsecond)
		if !finishTrace(ts, tr) {
			t.Fatalf("%s: trace dropped", c.name)
		}
		st, ok := ts.Get(tr.ID())
		if !ok {
			t.Fatalf("%s: retained trace not gettable", c.name)
		}
		if st.Reason != c.want {
			t.Fatalf("%s: reason = %q, want %q", c.name, st.Reason, c.want)
		}
	}
}

func TestTailSamplingHashFractionIsDeterministic(t *testing.T) {
	// Two stores with the same seed generate the same IDs, so the 1-in-N
	// hash decision sequence must be identical — and neither all-keep nor
	// all-drop over a window much larger than N.
	mk := func() []bool {
		ts := NewTraceStore(TraceStoreConfig{Seed: 7, SlowThreshold: -1, SampleEvery: 4})
		out := make([]bool, 0, 64)
		for i := 0; i < 64; i++ {
			tr := ts.StartTrace(context.Background(), "q")
			out = append(out, finishTrace(ts, tr))
		}
		return out
	}
	a, b := mk(), mk()
	kept := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged between identically seeded stores", i)
		}
		if a[i] {
			kept++
		}
	}
	if kept == 0 || kept == len(a) {
		t.Fatalf("1-in-4 sampling kept %d of %d traces", kept, len(a))
	}
}

func TestSampleEveryExtremes(t *testing.T) {
	keepAll := NewTraceStore(TraceStoreConfig{Seed: 3, SlowThreshold: -1, SampleEvery: 1})
	if !finishTrace(keepAll, keepAll.StartTrace(context.Background(), "q")) {
		t.Fatal("SampleEvery=1 must keep every clean trace")
	}
	keepNone := NewTraceStore(TraceStoreConfig{Seed: 3, SlowThreshold: -1, SampleEvery: -1})
	for i := 0; i < 32; i++ {
		if finishTrace(keepNone, keepNone.StartTrace(context.Background(), "q")) {
			t.Fatal("SampleEvery<0 must keep no clean trace")
		}
	}
	// Tail criteria still apply with sampling off.
	tr := keepNone.StartTrace(context.Background(), "q")
	tr.MarkError()
	if !finishTrace(keepNone, tr) {
		t.Fatal("errored trace must be retained even with SampleEvery<0")
	}
}

func TestRecordIDLifecycle(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{Seed: 5, SlowThreshold: -1, SampleEvery: -1})

	tr := ts.StartTrace(context.Background(), "q")
	if tr.RecordID() != tr.ID() {
		t.Fatal("undecided trace must report its ID")
	}
	finishTrace(ts, tr) // dropped: clean + sampling off
	if got := tr.RecordID(); got != "" {
		t.Fatalf("dropped trace RecordID = %q, want empty", got)
	}

	kept := ts.StartTrace(context.Background(), "q")
	kept.MarkError()
	finishTrace(ts, kept)
	if kept.RecordID() != kept.ID() {
		t.Fatal("kept trace must report its ID")
	}

	var nilTrace *Trace
	if nilTrace.RecordID() != "" || nilTrace.ID() != "" {
		t.Fatal("nil trace must report empty IDs")
	}
	nilTrace.MarkError() // must not panic
}

func TestStartTraceAdoptsValidHint(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{Seed: 9})
	ctx := ContextWithTraceID(context.Background(), "client-supplied-id_1")
	tr := ts.StartTrace(ctx, "request")
	if tr.ID() != "client-supplied-id_1" {
		t.Fatalf("trace ID = %q, want the hinted ID", tr.ID())
	}
	bad := ContextWithTraceID(context.Background(), "no spaces allowed\n")
	tr2 := ts.StartTrace(bad, "request")
	if tr2.ID() == "no spaces allowed\n" || len(tr2.ID()) != 16 {
		t.Fatalf("invalid hint must be replaced by a generated ID, got %q", tr2.ID())
	}
}

func TestRingEvictionAndLookup(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{Seed: 2, MaxTraces: 4, SlowThreshold: -1, SampleEvery: 1})
	var ids []string
	for i := 0; i < 10; i++ {
		tr := ts.StartTrace(context.Background(), "q")
		if !finishTrace(ts, tr) {
			t.Fatal("SampleEvery=1 trace dropped")
		}
		ids = append(ids, tr.ID())
	}
	if ts.Len() != 4 {
		t.Fatalf("Len = %d, want ring bound 4", ts.Len())
	}
	if _, ok := ts.Get(ids[0]); ok {
		t.Fatal("oldest trace must be evicted from the index")
	}
	if _, ok := ts.Get(ids[len(ids)-1]); !ok {
		t.Fatal("newest trace must be gettable")
	}
	snap := ts.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(snap))
	}
}

func TestSpanFlatteningAndTruncation(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{Seed: 11, MaxSpansPerTrace: 3, SlowThreshold: -1, SampleEvery: 1})
	tr := ts.StartTrace(context.Background(), "root")
	a := tr.Root().StartChild("a")
	a.SetAttr("k", "v")
	b := a.StartChild("b")
	b.Finish()
	a.Finish()
	for i := 0; i < 3; i++ {
		tr.Root().StartChild("extra").Finish()
	}
	if !finishTrace(ts, tr) {
		t.Fatal("trace dropped")
	}
	st, _ := ts.Get(tr.ID())
	if st.SpanTotal != 6 {
		t.Fatalf("SpanTotal = %d, want 6", st.SpanTotal)
	}
	if len(st.Spans) != 3 || !st.Truncated() {
		t.Fatalf("kept %d spans, truncated=%v; want 3, true", len(st.Spans), st.Truncated())
	}
	// Depth-first IDs: root=1 parent=0, a=2 parent=1, b=3 parent=2.
	if st.Spans[0].Name != "root" || st.Spans[0].SpanID != 1 || st.Spans[0].ParentID != 0 {
		t.Fatalf("root row = %+v", st.Spans[0])
	}
	if st.Spans[1].Name != "a" || st.Spans[1].ParentID != 1 || st.Spans[1].Attrs != "k=v" {
		t.Fatalf("child row = %+v", st.Spans[1])
	}
	if st.Spans[2].Name != "b" || st.Spans[2].ParentID != 2 {
		t.Fatalf("grandchild row = %+v", st.Spans[2])
	}

	// Self time at explicit times: children [1,6] and [4,9] under [0,10]
	// overlap, so they cover [1,9] and the root keeps 2. The grandchild
	// opened at 8 was never finished: it ends at its parent's end, 9.
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := NewTraceStore(TraceStoreConfig{}).StartTraceAt(context.Background(), "root", at(0)).Root()
	root.StartChildAt("first", at(1)).FinishAt(at(6))
	second := root.StartChildAt("second", at(4))
	second.StartChildAt("open", at(8))
	second.FinishAt(at(9))
	root.FinishAt(at(10))
	rows, _ := flattenSpans(root, 10)
	want := []struct {
		name      string
		dur, self int
	}{{"root", 10, 2}, {"first", 5, 5}, {"second", 5, 4}, {"open", 1, 1}}
	if len(rows) != len(want) {
		t.Fatalf("flattened %d rows, want %d: %+v", len(rows), len(want), rows)
	}
	for i, w := range want {
		r := rows[i]
		if r.Name != w.name || r.Dur != time.Duration(w.dur)*time.Millisecond || r.Self != time.Duration(w.self)*time.Millisecond {
			t.Fatalf("row %d = %s dur %v self %v, want %s dur %dms self %dms", i, r.Name, r.Dur, r.Self, w.name, w.dur, w.self)
		}
	}
}

func TestStoredTraceChromeExport(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{Seed: 13, SlowThreshold: -1, SampleEvery: 1})
	tr := ts.StartTrace(context.Background(), "root")
	tr.Root().StartChild("child").Finish()
	finishTrace(ts, tr)
	st, _ := ts.Get(tr.ID())
	var buf bytes.Buffer
	if err := st.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not a JSON array: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("exported %d events, want 2", len(events))
	}
	args := events[0]["args"].(map[string]any)
	if args["trace_id"] != tr.ID() {
		t.Fatalf("event trace_id = %v, want %s", args["trace_id"], tr.ID())
	}
	if !strings.Contains(buf.String(), `"ph":"X"`) {
		t.Fatal("expected complete-event phase X")
	}
}

// TestTraceStoreConcurrentWritersAndReaders exercises the store's frozen-
// snapshot contract under -race: goroutines finishing traces (and mutating
// live span trees) while readers iterate Snapshot rows and Get results.
func TestTraceStoreConcurrentWritersAndReaders(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{Seed: 17, MaxTraces: 8, SlowThreshold: -1, SampleEvery: 1, Metrics: NewRegistry()})
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				tr := ts.StartTrace(context.Background(), "q")
				sp := tr.Root().StartChild("op")
				sp.SetAttr("i", i)
				sp.Finish()
				ts.Finish(tr)
			}
		}()
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, st := range ts.Snapshot() {
					for _, row := range st.Spans {
						_ = row.Name
						_ = row.Attrs
					}
					if got, ok := ts.Get(st.ID); ok && got.ID != st.ID {
						t.Error("Get returned a trace with the wrong ID")
						return
					}
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if ts.Len() != 8 {
		t.Fatalf("Len = %d, want full ring of 8", ts.Len())
	}
}

func TestNilStoreAndNilTraceAreSafe(t *testing.T) {
	var ts *TraceStore
	if ts.NextID() != "" {
		t.Fatal("nil store NextID must be empty")
	}
	tr := ts.StartTrace(context.Background(), "q")
	if tr != nil {
		t.Fatal("nil store must return a nil trace")
	}
	if ts.Finish(tr) {
		t.Fatal("nil store Finish must report false")
	}
	if ts.Len() != 0 || ts.Snapshot() != nil {
		t.Fatal("nil store must be empty")
	}
	if _, ok := ts.Get("x"); ok {
		t.Fatal("nil store Get must miss")
	}
}
