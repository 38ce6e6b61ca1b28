package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json; DisallowUnknownFields below makes any
// other key a failure.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

const manifestPath = "../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func loadManifest(t *testing.T) manifest {
	t.Helper()
	f, err := os.Open(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if st, err := f.Stat(); err != nil || st.Size() > 64<<10 {
		t.Fatalf("BENCHMARK.json: %v, size limit 64 KiB", err)
	}
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

func TestManifestMeetsTheContract(t *testing.T) {
	m := loadManifest(t)
	var raw map[string]json.RawMessage
	b, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("key %q is missing", key)
		}
	}
	if len(raw) != 6 {
		t.Errorf("%d top-level keys, want exactly 6", len(raw))
	}

	if n := len(m.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	for _, arg := range m.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q", arg)
		}
	}
	if n := len(m.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths", n)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
		if st, err := os.Stat(filepath.Join("..", p)); err != nil || !st.IsDir() {
			t.Errorf("path %q is not a directory of the repository: %v", p, err)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", m.RunSeconds, defaultSeconds)
	}
	// 4 + 22 x workloads runs, their set-up and two builds within 3420 s;
	// a run is run_seconds plus at most ten seconds around it.
	if total := (4 + 22*len(m.Workloads)) * (m.RunSeconds + 10); total > 3420-240 {
		t.Errorf("the driver's runs would take about %d s, over the cap", total)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) != len(specs) {
		t.Fatalf("%d workloads in the manifest, %d specs", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		name("workload", w.Name)
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d = %q (%q), the program has %q (%q)", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(m.EndToEnd) != len(endToEnd) || len(m.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the program", len(m.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, e := range m.EndToEnd {
		name("end-to-end", e.Name)
		d := endToEnd[i]
		if e.Bound == nil || e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || *e.Bound != manifestBound(d) {
			t.Errorf("end-to-end %d = %+v, the program has %+v", i, e, d)
			continue
		}
		if !unitRE.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher") || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q, better %q, bound %v", e.Name, e.Unit, e.Better, *e.Bound)
		}
		if e.Name == "setup_s" {
			setup = e.Unit == "s" && e.Better == "lower"
			for _, o := range m.EndToEnd {
				if *o.Bound > *e.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, *o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(m.PerLayer) != len(perLayer) || len(m.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the program", len(m.PerLayer), len(perLayer))
	}
	for i, p := range m.PerLayer {
		name("per-layer", p.Name)
		d := perLayer[i]
		if p.Name != d.Name || p.Unit != d.Unit || p.Better != d.Better {
			t.Errorf("per-layer %d = %+v, the program has %+v", i, p, d)
		}
		if !unitRE.MatchString(p.Unit) || (p.Better != "lower" && p.Better != "higher") {
			t.Errorf("per-layer %s: unit %q, better %q", p.Name, p.Unit, p.Better)
		}
	}
}

// Every per-layer row must say which end-to-end metric it should move, on
// which workload.
func TestPerLayerRowsNameAMetricAndAWorkload(t *testing.T) {
	metrics, workloads := map[string]bool{}, map[string]bool{}
	for _, d := range endToEnd {
		metrics[d.Name] = true
	}
	for _, sp := range specs {
		workloads[sp.Name] = true
	}
	for _, d := range perLayer {
		if !metrics[d.Moves] {
			t.Errorf("%s moves %q, which is no end-to-end metric", d.Name, d.Moves)
		}
		if !workloads[d.On] {
			t.Errorf("%s is on %q, which is no workload", d.Name, d.On)
		}
	}
}
