package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny shrinks a workload to the smallest data and a two-round script, so
// that every workload runs in every `go test`, race detector included.
func tiny(sp spec) spec {
	sp.Scale, sp.Side, sp.Rounds, sp.Period, sp.Warm = 1, 8, 2, 1, 1
	return sp
}

// smoke runs one shrunk workload and returns its last two lines.
func smoke(t *testing.T, sp spec, traced bool) (*resultLine, *detailLine) {
	t.Helper()
	cfg := runConfig{sp: tiny(sp), seed: 3, seconds: 0.05, traced: traced, setups: 1, slices: 2, probes: 2}
	if traced {
		cfg.traceFile = filepath.Join(t.TempDir(), sp.Name+".trace.json")
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", sp.Name, err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %s", sp.Name, res.Failed, res.Attempted, res.FirstFailure)
	}
	// So few operations cannot carry a p95; that one refusal is expected.
	res.Short = false
	var stdout, stderr bytes.Buffer
	if code := report(&stdout, &stderr, cfg, res); code != 0 {
		t.Fatalf("%s: exit code %d: %s", sp.Name, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	var detail detailLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: the last line is not the result object: %v", sp.Name, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &detail); err != nil {
		t.Fatalf("%s: the line before the last is not the detail object: %v", sp.Name, err)
	}
	if traced {
		b, err := os.ReadFile(cfg.traceFile)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Fatalf("%s: span file is not Chrome trace JSON with events: %v", sp.Name, err)
		}
		roots := 0
		for _, e := range doc.TraceEvents {
			if e.Name == "op" && e.Ph == "X" {
				roots++
			}
		}
		if roots == 0 {
			t.Errorf("%s: span file has no root op spans", sp.Name)
		}
	}
	return &line, &detail
}

// Every workload, end to end and traced, must emit exactly the manifest's
// metrics, each with its unit; a run-set built from them carries unit,
// direction and bound.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, sp := range specs {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			w := newWorkloadRuns(sp.Name)
			for _, traced := range []bool{false, true} {
				line, detail := smoke(t, sp, traced)
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics emitted, manifest has %d", traced, len(line.Metrics), len(defs))
				}
				for _, d := range defs {
					got, ok := line.Metrics[d.Name]
					if !ok || got.Unit != d.Unit {
						t.Errorf("traced=%v: metric %s = %+v, present %v; want unit %s", traced, d.Name, got, ok, d.Unit)
					}
				}
				w.collect(line, detail, traced)
				if !traced {
					// Every time is reported as measured too, with the
					// slowdown that lies between the two.
					if detail.Slowdown <= 0 {
						t.Errorf("slowdown = %v", detail.Slowdown)
					}
					for _, name := range []string{"setup_s", "throughput_qps", "latency_p50_ms", "latency_p95_ms", "typebal_latency_ms", "cpu_ms_per_query"} {
						if detail.Raw[name] <= 0 {
							t.Errorf("metric %s as measured = %v", name, detail.Raw[name])
						}
					}
				}
			}
			for _, d := range endToEnd {
				s := w.EndToEnd[d.Name]
				if s == nil || len(s.Values) != 1 || s.Unit != d.Unit || s.Better != d.Better || s.Bound != boundFor(d, sp.Name) {
					t.Errorf("run-set series %s = %+v", d.Name, s)
				}
				if d.Name != "latency_p95_ms" && s != nil && len(s.Values) == 1 && s.Values[0] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, s.Values[0])
				}
			}
			for _, d := range perLayer {
				if v, ok := w.PerLayer[d.Name]; !ok || v.Unit != d.Unit || v.Better != d.Better || v.Moves != d.Moves || v.On != d.On {
					t.Errorf("run-set per-layer %s = %+v, present %v", d.Name, v, ok)
				}
			}
		})
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := func(center float64) []float64 {
		return []float64{center * 0.999, center, center * 1.001, center, center}
	}
	for _, c := range []struct {
		name string
		a, b *series
		want string
	}{
		{"unchanged", &series{Better: "lower", Bound: 0.1, Values: steady(100)}, &series{Values: steady(101)}, verdictOK},
		{"slower beyond the bound", &series{Better: "lower", Bound: 0.1, Values: steady(100)}, &series{Values: steady(115)}, verdictRegressed},
		{"faster", &series{Better: "lower", Bound: 0.1, Values: steady(100)}, &series{Values: steady(50)}, verdictOK},
		{"throughput down beyond the bound", &series{Better: "higher", Bound: 0.1, Values: steady(100)}, &series{Values: steady(85)}, verdictRegressed},
		{"throughput up", &series{Better: "higher", Bound: 0.1, Values: steady(100)}, &series{Values: steady(130)}, verdictOK},
		{"spread wider than the bound", &series{Better: "lower", Bound: 0.05, Values: []float64{80, 90, 100, 110, 120}}, &series{Values: steady(101)}, verdictUnresolved},
	} {
		if got, _, _, _ := verdict(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesExitsOnRegression(t *testing.T) {
	mk := func(center float64) *runSet {
		set := &runSet{Seeds: []int64{1, 2, 3}, Workloads: map[string]*workloadRuns{}}
		for _, sp := range specs {
			w := newWorkloadRuns(sp.Name)
			for _, d := range endToEnd {
				w.EndToEnd[d.Name].Values = []float64{center, center * 1.001, center * 0.999}
			}
			set.Workloads[sp.Name] = w
		}
		return set
	}
	dir := t.TempDir()
	pathA, pathB, pathC := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "c.json")
	worse := mk(100)
	worse.Workloads[wDL2SQL].EndToEnd["latency_p50_ms"].Values = []float64{130, 131, 129}
	for path, set := range map[string]*runSet{pathA: mk(100), pathB: mk(100.5), pathC: worse} {
		if err := writeJSON(path, set); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if code := mainExit([]string{"-compare", pathA, pathB}, &out, &out); code != 0 {
		t.Errorf("two agreeing run-sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := mainExit([]string{"-compare", pathA, pathC}, &out, &out); code != 1 {
		t.Errorf("a regressed run-set: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("the regression is not marked:\n%s", out.String())
	}
}
