package strategies

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/colquery"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// tracedContext is testContext with a keep-all trace store armed on the
// strategy layer, sized so per-layer spans survive the span budget.
func tracedContext(t *testing.T) *Context {
	t.Helper()
	ctx := testContext(t)
	ctx.Traces = obs.NewTraceStore(obs.TraceStoreConfig{Seed: 1, SampleEvery: 1, MaxSpansPerTrace: 1 << 16})
	return ctx
}

// tracedExecute runs one strategy as its own retained trace and returns it
// with its span names counted.
func tracedExecute(t *testing.T, ctx *Context, s Strategy, q *colquery.Query) (*obs.StoredTrace, map[string]int) {
	t.Helper()
	if _, _, err := ExecuteWithFallback(context.Background(), ctx, s, q); err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	snap := ctx.Traces.Snapshot()
	if len(snap) == 0 {
		t.Fatalf("%s: keep-all store retained nothing", s.Name())
	}
	st := snap[len(snap)-1]
	if st.Truncated() {
		t.Fatalf("%s: trace truncated at %d of %d spans", s.Name(), len(st.Spans), st.SpanTotal)
	}
	names := map[string]int{}
	for _, r := range st.Spans {
		names[r.Name]++
	}
	return st, names
}

// stepSpans counts a trace's DL2SQL step spans: the children of its
// model:* spans.
func stepSpans(st *obs.StoredTrace) int {
	model := map[int]bool{}
	n := 0
	for _, r := range st.Spans {
		if strings.HasPrefix(r.Name, "model:") {
			model[r.SpanID] = true
		} else if model[r.ParentID] {
			n++
		}
	}
	return n
}

// TestStrategyTraces is the acceptance test for strategy-level tracing:
// every strategy executed under a trace store must produce one trace whose
// colquery root has a single strategy:* child with nested loading /
// inference / relational phase spans, and the whole tree must export as
// Chrome-loadable trace_event JSON.
func TestStrategyTraces(t *testing.T) {
	ctx := tracedContext(t)
	ctx.Metrics = obs.NewRegistry()
	q, err := colquery.GenerateAnalyzed(colquery.Type1, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range All() {
		st, names := tracedExecute(t, ctx, s, q)
		if got := ctx.Traces.Len(); got != i+1 {
			t.Fatalf("%s: %d traces retained after %d executions", s.Name(), got, i+1)
		}
		if st.Spans[0].Name != "colquery" {
			t.Fatalf("root span %q, want colquery", st.Spans[0].Name)
		}
		var top []string
		for _, r := range st.Spans {
			if r.ParentID == 1 {
				top = append(top, r.Name)
			}
		}
		if want := "strategy:" + s.Name(); len(top) != 1 || top[0] != want {
			t.Fatalf("root children %v, want [%s]", top, want)
		}
		var hasLoading, hasInference, hasRelational bool
		for n := range names {
			hasLoading = hasLoading || strings.HasPrefix(n, "loading:")
			hasInference = hasInference || n == "inference" || strings.HasPrefix(n, "inference:") || strings.HasPrefix(n, "model:")
			hasRelational = hasRelational || strings.HasPrefix(n, "relational:")
		}
		if !hasLoading || !hasInference || !hasRelational {
			t.Fatalf("%s: missing phase spans (loading=%v inference=%v relational=%v) in %v",
				s.Name(), hasLoading, hasInference, hasRelational, names)
		}
		// Chrome export must be valid JSON with one complete event per span.
		var buf bytes.Buffer
		if err := st.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("%s: chrome export: %v", s.Name(), err)
		}
		var events []map[string]any
		if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
			t.Fatalf("%s: chrome trace is not valid JSON: %v", s.Name(), err)
		}
		if len(events) != len(st.Spans) {
			t.Fatalf("%s: %d chrome events for %d spans", s.Name(), len(events), len(st.Spans))
		}
	}
	// Metrics: every strategy recorded its breakdown.
	snap := ctx.Metrics.Snapshot()
	for _, s := range All() {
		if got := snap.Counters["strategy."+s.Name()+".queries"]; got < 1 {
			t.Fatalf("%s: queries counter = %d, want >= 1", s.Name(), got)
		}
		if _, ok := snap.Histograms["strategy."+s.Name()+".total_s"]; !ok {
			t.Fatalf("%s: total_s histogram missing", s.Name())
		}
	}
}

// TestFallbackSpansEndWithinParents runs DB-UDF into the udf.decode fault
// and its DL2SQL fallback into the dl2sql.translate fault. In the retained
// trace no span may end after its parent, and both faulted loading spans
// must be finished on the error return and carry its class.
func TestFallbackSpansEndWithinParents(t *testing.T) {
	ctx := tracedContext(t)
	ctx.Faults = faults.New(1,
		faults.Rule{Point: faults.PointUDFDecode},
		faults.Rule{Point: faults.PointDL2SQLTranslate})
	if _, _, err := ExecuteWithFallback(context.Background(), ctx, &DBUDF{}, fallbackQuery(t)); err == nil {
		t.Fatal("both rungs faulted, yet the ladder answered")
	}
	snap := ctx.Traces.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("retained %d traces, want the failed run's", len(snap))
	}
	rows := snap[0].Spans
	byID := map[int]obs.SpanRow{}
	for _, r := range rows {
		byID[r.SpanID] = r
	}
	var opened int
	for _, r := range rows {
		if strings.HasPrefix(r.Name, "loading:") {
			opened++
			if want := "err=serving_unavailable"; !strings.Contains(r.Attrs, want) {
				t.Errorf("faulted span %q has attributes %q, want %s", r.Name, r.Attrs, want)
			}
		}
		p, ok := byID[r.ParentID]
		if !ok {
			continue
		}
		if end, pend := r.Start.Add(r.Dur), p.Start.Add(p.Dur); end.After(pend) {
			t.Errorf("span %q ends %v after its parent %q", r.Name, end.Sub(pend), p.Name)
		}
	}
	if opened != 2 {
		t.Fatalf("%d loading spans, want DB-UDF's and DL2SQL's: %+v", opened, rows)
	}
}

// TestPerLayerSpans pins the acceptance criterion that native-NN strategies
// (DB-UDF's in-database UDF and DB-PyTorch's serving component) emit one
// span per NN layer, and DL2SQL emits one span per SQL pipeline step.
func TestPerLayerSpans(t *testing.T) {
	ctx := tracedContext(t)
	q, err := colquery.GenerateAnalyzed(colquery.Type1, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		strat  Strategy
		marker string // span-name prefix proving layer/step granularity
	}{
		{&DBUDF{}, "conv2d:"},
		{&DBPyTorch{}, "conv2d:"},
		{&DL2SQL{}, "Conv"},
	}
	for _, tc := range cases {
		_, names := tracedExecute(t, ctx, tc.strat, q)
		found := false
		for n := range names {
			if strings.HasPrefix(n, tc.marker) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s: no span with prefix %q in %v", tc.strat.Name(), tc.marker, names)
		}
	}
}

// TestTracingDisabledUnchanged guards the nil fast path: with no trace
// store the strategies run exactly as before and allocate no spans.
func TestTracingDisabledUnchanged(t *testing.T) {
	ctx := testContext(t)
	if ctx.Traces != nil {
		t.Fatal("fresh context must have tracing disabled")
	}
	q, err := colquery.GenerateAnalyzed(colquery.Type1, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range All() {
		if _, _, err := s.Execute(context.Background(), ctx, q); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

// TestStatementSpansNestUnderPhases runs every strategy serially with the
// strategy and engine layers sharing one keep-all trace store. Every
// statement's span tree must hang under the phase that ran it, never
// directly under strategy:*; every DL2SQL statement under the inference
// phase must descend from a step span under model:*; and for DL2SQL,
// DB-PyTorch and DB-UDF, whose spans never overlap at degree 1 (DB-UDF's
// inference batches nest under the operator that calls the UDF), the
// spans' summed self time must not exceed the root's duration.
func TestStatementSpansNestUnderPhases(t *testing.T) {
	ctx := tracedContext(t)
	db := ctx.Dataset.DB
	db.Parallelism = 1
	db.Traces = ctx.Traces
	defer func() { db.Traces = nil }()
	q, err := colquery.GenerateAnalyzed(colquery.Type2, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	phases := []string{"loading:", "relational:", "inference", "serving:"}
	for _, s := range All() {
		st, _ := tracedExecute(t, ctx, s, q)
		byID := map[int]obs.SpanRow{}
		var self time.Duration
		for _, r := range st.Spans {
			byID[r.SpanID] = r
			self += r.Self
		}
		dl2sql := strings.HasPrefix(s.Name(), "DL2SQL")
		var steps, stepStatements, misplaced int
		for _, r := range st.Spans {
			parent := byID[r.ParentID]
			if strings.HasPrefix(parent.Name, "strategy:") &&
				!slices.ContainsFunc(phases, func(p string) bool { return strings.HasPrefix(r.Name, p) }) {
				t.Errorf("%s: %q is a direct child of %s", s.Name(), r.Name, parent.Name)
			}
			if strings.HasPrefix(parent.Name, "model:") {
				steps++
			}
			if !dl2sql || r.Name != "sql" || !underSpan(byID, r, "inference") {
				continue
			}
			if strings.HasPrefix(byID[parent.ParentID].Name, "model:") {
				stepStatements++
			} else {
				misplaced++
			}
		}
		if dl2sql && (steps == 0 || stepStatements != steps || misplaced != 0) {
			t.Errorf("%s: %d step spans run %d statements, %d statements outside a step, want one each and none outside",
				s.Name(), steps, stepStatements, misplaced)
		}
		if s.Name() == "DL2SQL" || s.Name() == "DB-PyTorch" || s.Name() == "DB-UDF" {
			if root := st.Spans[0].Dur; float64(self) > 1.01*float64(root) {
				t.Errorf("%s: summed self time %v exceeds the root's %v", s.Name(), self, root)
			}
		}
	}
}

// underSpan reports whether r descends from a span named name.
func underSpan(byID map[int]obs.SpanRow, r obs.SpanRow, name string) bool {
	for p, ok := byID[r.ParentID]; ok; p, ok = byID[p.ParentID] {
		if p.Name == name {
			return true
		}
	}
	return false
}

// TestSchedulerOneSubmissionPerUDFBatch: a traced, scheduled DB-UDF run
// submits each nUDF batch call's misses as one scheduler submission, so its
// trace holds one sched:infer span per inference:<nudf> batch span, under
// it and covering the whole batch — not one span per keyframe.
func TestSchedulerOneSubmissionPerUDFBatch(t *testing.T) {
	ctx := tracedContext(t)
	sched := ctx.EnableScheduler(schedule.Config{})
	defer sched.Drain()
	q, err := colquery.GenerateAnalyzed(colquery.Type1, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := tracedExecute(t, ctx, &DBUDF{}, q)
	byID := map[int]obs.SpanRow{}
	for _, r := range st.Spans {
		byID[r.SpanID] = r
	}
	var batches, submissions, keys int
	for _, r := range st.Spans {
		switch {
		case strings.HasPrefix(r.Name, "inference:"):
			batches++
		case r.Name == "sched:infer":
			submissions++
			parent := byID[r.ParentID]
			if !strings.HasPrefix(parent.Name, "inference:") {
				t.Fatalf("sched:infer under %q, want an inference:<nudf> batch span", parent.Name)
			}
			n := attrInt(t, r.Attrs, "keys")
			if want := attrInt(t, parent.Attrs, "batch"); n != want {
				t.Fatalf("sched:infer submitted %d keys of a %d-keyframe batch", n, want)
			}
			keys += n
		}
	}
	if batches == 0 || submissions != batches {
		t.Fatalf("%d sched:infer spans for %d nUDF batch calls, want one each", submissions, batches)
	}
	if got := sched.Stats().Submitted; int64(keys) != got || keys <= submissions {
		t.Fatalf("%d submissions carried %d keys, scheduler counted %d: want several keys per submission", submissions, keys, got)
	}
}
