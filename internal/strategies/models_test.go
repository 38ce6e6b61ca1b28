package strategies

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/colquery"
	"repro/internal/hwprofile"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// TestModelLoadDecodesOncePerBinding: DB-UDF executions, DB-PyTorch
// executions and both again through the scheduler all load one binding's
// model through the one loader, which decodes its artifact exactly once.
func TestModelLoadDecodesOncePerBinding(t *testing.T) {
	env := testContext(t)
	q, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	artifacts := map[uint64]bool{}
	for _, name := range q.UDFNames {
		artifacts[env.Bindings[name].artifactHash] = true
	}
	runs := func() {
		for i := 0; i < 3; i++ {
			for _, s := range []Strategy{&DBUDF{}, &DBPyTorch{}} {
				if _, _, err := s.Execute(context.Background(), env, q); err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
			}
		}
	}
	runs()
	sched := env.EnableScheduler(schedule.Config{})
	defer sched.Drain()
	runs()
	if sched.Stats().Batches == 0 {
		t.Fatal("the scheduled executions ran no batch")
	}
	if got := env.models.decodes.Load(); got != int64(len(artifacts)) {
		t.Fatalf("%d decodes for %d bound artifacts", got, len(artifacts))
	}
}

// TestDBPyTorchLoadingChargesRecordedDecode: the serving loop reuses the
// loaded model, so no decode runs inside the serving wall time. The
// loading bucket adds the recorded decode's model-load cost on top of the
// non-inference wall time and never subtracts a decode that did not run,
// so it is never negative, even at the smallest load factor.
func TestDBPyTorchLoadingChargesRecordedDecode(t *testing.T) {
	env := testContext(t)
	env.Profile = hwprofile.Profile{Name: "host", InferenceSpeedup: 1, RelationalSpeedup: 1, DLModelLoadFactor: 1}
	q, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	b := env.Bindings[q.UDFNames[0]]
	for i := 0; i < 6; i++ {
		if i == 3 {
			defer env.EnableScheduler(schedule.Config{}).Drain()
		}
		_, bd, err := (&DBPyTorch{}).Execute(context.Background(), env, q)
		if err != nil {
			t.Fatal(err)
		}
		if bd.Loading < 0 {
			t.Fatalf("run %d: negative loading bucket %v", i, bd.Loading)
		}
		// Unscheduled, the one serving batch is charged the whole recorded
		// decode; scheduled, a share of each batch's.
		if load := env.Profile.DLLoadCost(env.models.entry(b.artifactHash).decodeSecs); i < 3 && bd.Loading < load {
			t.Fatalf("run %d: loading %v below the recorded model load %v", i, bd.Loading, load)
		}
	}
}

// TestDBUDFConcurrentWithDBPyTorchTraced runs DB-UDF and DB-PyTorch at once
// with tracing on. Both run forward passes on the one shared decoded model,
// so each must trace through its own shallow copy: every inference span of
// every trace holds exactly the per-layer spans of its own forward passes,
// one per layer for each nn.MaxStack chunk of its batch.
func TestDBUDFConcurrentWithDBPyTorchTraced(t *testing.T) {
	env := tracedContext(t)
	q, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	layers := len(env.Bindings[q.UDFNames[0]].Entry.Model.Layers)
	const goroutines, perGoroutine = 4, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := []Strategy{&DBUDF{}, &DBPyTorch{}}[g%2]
			for i := 0; i < perGoroutine; i++ {
				if _, _, err := ExecuteWithFallback(context.Background(), env, s, q); err != nil {
					t.Errorf("%s: %v", s.Name(), err)
				}
			}
		}(g)
	}
	wg.Wait()
	traces := env.Traces.Snapshot()
	if len(traces) != goroutines*perGoroutine {
		t.Fatalf("%d traces for %d executions", len(traces), goroutines*perGoroutine)
	}
	for _, st := range traces {
		byID := map[int]obs.SpanRow{}
		children := map[int]int{}
		for _, r := range st.Spans {
			byID[r.SpanID] = r
			if strings.HasSuffix(r.Name, ":batch") {
				children[r.ParentID]++
			}
		}
		inferences := 0
		for _, r := range st.Spans {
			var n int
			switch {
			case strings.HasPrefix(r.Name, "inference:"): // DB-UDF: the batch it ran
				n = attrInt(t, r.Attrs, "batch")
			case r.Name == "inference": // DB-PyTorch: the candidates it served
				n = attrInt(t, byID[r.ParentID].Attrs, "candidates")
			default:
				continue
			}
			inferences++
			if want := layers * ((n + nn.MaxStack - 1) / nn.MaxStack); children[r.SpanID] != want {
				t.Errorf("trace %s: %s over %d inputs holds %d layer spans, want %d",
					st.ID, r.Name, n, children[r.SpanID], want)
			}
		}
		if inferences == 0 {
			t.Errorf("trace %s has no inference span", st.ID)
		}
	}
}

// attrInt reads an integer annotation from a rendered span attribute list.
func attrInt(t *testing.T, attrs, key string) int {
	t.Helper()
	for _, kv := range strings.Fields(attrs) {
		if v, ok := strings.CutPrefix(kv, key+"="); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("no %s in span attributes %q", key, attrs)
	return 0
}
