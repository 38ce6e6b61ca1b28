// Command benchmark is the repository's one benchmark: four workloads over
// the collaborative-query strategies, embedded and served, with the
// end-to-end and per-layer metrics BENCHMARK.json names. README.md in this
// directory says why each workload exists and how the metrics interact.
//
//	bash benchmark/run.sh                               every workload, every metric
//	bash benchmark/run.sh -workload dl2sql_embedded     one workload, end-to-end metrics
//	bash benchmark/run.sh -workload dl2sql_embedded -trace 1
//	                                                    its per-layer metrics and span file
//	bash benchmark/run.sh -runs 10 -out run.json        a run-set over seeds 1..10
//	bash benchmark/run.sh -compare run-A.json run-B.json
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics. The exit code is 1 when
// any operation failed or answered wrongly.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// defaultSeconds equals run_seconds in BENCHMARK.json.
const defaultSeconds = 20

// setupRepeats is how many fresh set-ups a run makes; setup_s is their median.
const setupRepeats = 9

func main() {
	os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr))
}

func mainExit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in this process (default: every workload, each in a fresh process)")
	seed := fs.Int64("seed", 1, "seed of the operation script (the data and the models are the same on every run)")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = the traced run: per-layer metrics and a span file instead of end-to-end metrics")
	traceDir := fs.String("tracedir", filepath.Join("benchmark", "out"), "directory the traced run writes <workload>.trace.json to")
	runs := fs.Int("runs", 1, "without -workload: end-to-end runs per workload, on seeds seed..seed+runs-1")
	out := fs.String("out", "", "without -workload: also write the run-set as JSON to this file")
	compare := fs.Bool("compare", false, "compare two run-set files given as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two run-set files"))
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	case *workload != "":
		sp, ok := specByName(*workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		cfg := runConfig{sp: sp, seed: *seed, seconds: *seconds, traced: *trace == 1, setups: setupRepeats, slices: timedSlices, probes: probeReps}
		if cfg.traced {
			cfg.slices = traceSlices
			cfg.traceFile = filepath.Join(*traceDir, sp.Name+".trace.json")
		}
		res, err := run(context.Background(), cfg)
		if err != nil {
			return fail(err)
		}
		return report(stdout, stderr, cfg, res)
	}
	set, err := runAll(stderr, *seed, *runs, *seconds, *traceDir)
	if err != nil {
		return fail(err)
	}
	printRunSet(stdout, set)
	if *out != "" {
		if err := writeJSON(*out, set); err != nil {
			return fail(err)
		}
	}
	if set.failed() {
		return 1
	}
	return 0
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detailLine is the line before the last of an end-to-end run: what the
// result line's times were before the division by the machine's slowdown.
type detailLine struct {
	Slowdown float64            `json:"slowdown"`
	Raw      map[string]float64 `json:"raw"`
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every metric of one run by name with its unit, then the
// result line, and returns the exit code.
func report(stdout, stderr io.Writer, cfg runConfig, res *runResult) int {
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	line := resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "workload %s  seed %d  timed %.1f s  attempted %d  failed %d\n",
		cfg.sp.Name, cfg.seed, cfg.seconds, res.Attempted, res.Failed)
	if !cfg.traced {
		fmt.Fprintf(stdout, "latency metrics over %d operations\n", res.Samples)
	}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "  %-36s %16.4f %-8s", d.Name, v, d.Unit)
		if raw, ok := res.Raw[d.Name]; ok {
			fmt.Fprintf(stdout, " (as measured %.4f)", raw)
		}
		fmt.Fprintln(stdout)
	}
	if !cfg.traced {
		fmt.Fprintf(stdout, "  throughput of each timed slice      %.1f ops/s as measured\n", res.SliceQPS)
		fmt.Fprintf(stdout, "  machine slowdown during each slice  %.3f (times are divided by it)\n", res.SliceSlowdown)
	}
	cells := make([]string, 0, len(res.CellLatency))
	for cell := range res.CellLatency {
		cells = append(cells, cell)
	}
	sort.Strings(cells)
	for _, cell := range cells {
		fmt.Fprintf(stdout, "  cell %-31s %16.4f ms\n", cell, res.CellLatency[cell])
	}
	if len(res.Spans) > 0 {
		fmt.Fprintf(stdout, "spans (self = span - children), written to %s\n", cfg.traceFile)
		for _, s := range res.Spans {
			fmt.Fprintf(stdout, "  %-36s n=%-7d total %10.1f ms  self %10.1f ms\n", s.Name, s.Count, ms(s.Total), ms(s.Self))
		}
	}
	code := 0
	if res.Failed > 0 {
		fmt.Fprintf(stderr, "benchmark: %d of %d operations failed; first: %s\n", res.Failed, res.Attempted, res.FirstFailure)
		code = 1
	}
	if res.Short {
		fmt.Fprintf(stderr, "benchmark: only %d timed operations, latency_p95_ms needs %d; raise -seconds\n", res.Samples, minTimedOps)
		code = 1
	}
	for _, v := range []any{detailLine{Slowdown: res.Slowdown, Raw: res.Raw}, line} {
		b, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(b))
	}
	return code
}

// provenance says what machine a run-set was measured on.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OSArch     string `json:"os_arch"`
}

// series is one end-to-end metric of one workload over a run-set's seeds.
// Raw, for a metric that is a time, holds the values as measured: Values
// are those divided by the run's slowdown.
type series struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"`
	Raw    []float64 `json:"raw,omitempty"`
}

// layerValue is one per-layer metric of one workload, from the traced run.
type layerValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Moves  string  `json:"moves"`
	On     string  `json:"on"`
}

type workloadRuns struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Slowdown is the machine's slowdown during each end-to-end run.
	Slowdown []float64             `json:"slowdown"`
	EndToEnd map[string]*series    `json:"end_to_end"`
	PerLayer map[string]layerValue `json:"per_layer"`
}

func newWorkloadRuns(workload string) *workloadRuns {
	w := &workloadRuns{EndToEnd: map[string]*series{}, PerLayer: map[string]layerValue{}}
	for _, d := range endToEnd {
		w.EndToEnd[d.Name] = &series{Unit: d.Unit, Better: d.Better, Bound: boundFor(d, workload)}
	}
	return w
}

// collect adds one run's last two lines: an end-to-end run appends a value
// to every series, the traced run sets every per-layer value.
func (w *workloadRuns) collect(line *resultLine, detail *detailLine, traced bool) {
	w.Attempted += line.Attempted
	w.Failed += line.Failed
	if !traced {
		w.Slowdown = append(w.Slowdown, detail.Slowdown)
		for _, d := range endToEnd {
			s := w.EndToEnd[d.Name]
			s.Values = append(s.Values, line.Metrics[d.Name].Value)
			if raw, ok := detail.Raw[d.Name]; ok {
				s.Raw = append(s.Raw, raw)
			}
		}
		return
	}
	for _, d := range perLayer {
		w.PerLayer[d.Name] = layerValue{Value: line.Metrics[d.Name].Value, Unit: d.Unit, Better: d.Better, Moves: d.Moves, On: d.On}
	}
}

// runSet is every workload measured on a list of seeds: what -out writes
// and -compare reads.
type runSet struct {
	Provenance provenance               `json:"provenance"`
	Seeds      []int64                  `json:"seeds"`
	Seconds    float64                  `json:"seconds"`
	Workloads  map[string]*workloadRuns `json:"workloads"`
}

func (s *runSet) failed() bool {
	for _, w := range s.Workloads {
		if w.Failed > 0 {
			return true
		}
	}
	return false
}

// runAll runs every workload in a fresh process each time, so set-up time
// and peak memory belong to one workload: end-to-end once per seed, then
// the traced run on the first seed.
func runAll(stderr io.Writer, seed int64, runs int, seconds float64, traceDir string) (*runSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := &runSet{Provenance: machine(), Seconds: seconds, Workloads: map[string]*workloadRuns{}}
	for i := 0; i < runs; i++ {
		set.Seeds = append(set.Seeds, seed+int64(i))
	}
	child := func(name string, seed int64, trace int) (*resultLine, *detailLine, error) {
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-tracedir", traceDir)
		cmd.Stderr = stderr
		outBytes, runErr := cmd.Output()
		lines := bytes.Split(bytes.TrimSpace(outBytes), []byte("\n"))
		var line resultLine
		var detail detailLine
		if len(lines) < 2 || json.Unmarshal(lines[len(lines)-1], &line) != nil || json.Unmarshal(lines[len(lines)-2], &detail) != nil {
			return nil, nil, fmt.Errorf("%s seed %d: no result line (%v)", name, seed, runErr)
		}
		return &line, &detail, nil
	}
	for _, sp := range specs {
		w := newWorkloadRuns(sp.Name)
		set.Workloads[sp.Name] = w
		for _, s := range set.Seeds {
			fmt.Fprintf(stderr, "running %s seed %d\n", sp.Name, s)
			line, detail, err := child(sp.Name, s, 0)
			if err != nil {
				return nil, err
			}
			w.collect(line, detail, false)
		}
		fmt.Fprintf(stderr, "running %s traced\n", sp.Name)
		line, detail, err := child(sp.Name, seed, 1)
		if err != nil {
			return nil, err
		}
		w.collect(line, detail, true)
	}
	return set, nil
}

// printRunSet prints every metric of every workload by name with its unit.
func printRunSet(w io.Writer, set *runSet) {
	for _, sp := range specs {
		runs := set.Workloads[sp.Name]
		fmt.Fprintf(w, "%s  seeds %v  attempted %d  failed %d\n", sp.Name, set.Seeds, runs.Attempted, runs.Failed)
		for _, d := range endToEnd {
			s := runs.EndToEnd[d.Name]
			fmt.Fprintf(w, "  %-36s %16.4f %-8s", d.Name, median(s.Values), d.Unit)
			if sp, ok := spread(s.Values); ok {
				fmt.Fprintf(w, " spread %5.1f%% of bound %4.1f%%", 100*sp, 100*s.Bound)
			}
			fmt.Fprintln(w)
		}
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-36s %16.4f %s\n", d.Name, runs.PerLayer[d.Name].Value, d.Unit)
		}
	}
}

func machine() provenance {
	p := provenance{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, CPUModel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
