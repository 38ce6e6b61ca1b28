package bench

import (
	"bytes"
	"compress/flate"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dl2sql"
	"repro/internal/hwprofile"
	"repro/internal/measure"
	"repro/internal/modelrepo"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sqldb"
	"repro/internal/strategies"
	"repro/internal/tensor"
)

// Table4StorageOverheads reproduces Table IV: the model storage footprint
// of each approach across ResNet depths. DL2SQL stores the model as
// relational tables (kernel + bias + metadata + mapping tables); DB-PyTorch
// ships the serialized artifact; DB-UDF links a compressed binary into the
// kernel.
func (s *Suite) Table4StorageOverheads() (*Table, error) {
	t := &Table{
		ID:      "Table IV",
		Title:   "Storage Overheads with Different Model Depths (KB)",
		Columns: []string{"Depth", "Params", "DL2SQL(KB)", "DB-PyTorch(KB)", "DB-UDF(KB)"},
		Notes: []string{
			"shape check: DL2SQL > DB-PyTorch > DB-UDF at every depth, all growing with depth",
		},
	}
	for _, depth := range s.Cfg.Depths {
		m, err := modelrepo.NewResNet(depth, modelrepo.TaskDefectDetection, s.Cfg.KeyframeSide, s.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		artifact, err := nn.EncodeBytes(m)
		if err != nil {
			return nil, err
		}
		var comp bytes.Buffer
		fw, err := flate.NewWriter(&comp, flate.BestSpeed)
		if err != nil {
			return nil, err
		}
		if _, err := fw.Write(artifact); err != nil {
			return nil, err
		}
		if err := fw.Close(); err != nil {
			return nil, err
		}
		db := sqldb.New()
		tr := dl2sql.NewTranslator(db, "t4")
		sm, err := tr.StoreModel(m)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%d", depth),
			fmt.Sprintf("%d", m.ParamCount()),
			fmt.Sprintf("%d", sm.StorageBytes(db)/1024),
			fmt.Sprintf("%d", len(artifact)/1024),
			fmt.Sprintf("%d", comp.Len()/1024),
		)
	}
	return t, nil
}

// Fig8Overall reproduces Fig. 8: the loading/inference/relational breakdown
// of all four approaches across the edge CPU, server CPU, and server GPU
// settings, on the mixed student-model workload.
func (s *Suite) Fig8Overall() (*Table, error) {
	t := &Table{
		ID:      "Fig. 8",
		Title:   "Overall Cost of Collaborative Queries (avg seconds/query)",
		Columns: []string{"Setting", "Approach", "Loading(s)", "Inference(s)", "Relational(s)", "All(s)"},
		Notes: []string{
			"shape check: DL2SQL-OP lowest total on edge-cpu; GPU cuts DB-PyTorch inference but grows loading; DB-UDF gains least from the GPU",
			"DL2SQL(-OP) loading pays the model store only on an artifact's first use (the paper's offline step); later queries load only their inputs",
		},
	}
	for _, prof := range hwprofile.All() {
		for _, strat := range strategies.All() {
			bd, err := s.runMix(strat, prof, s.Cfg.QueriesPerType, s.Cfg.Selectivity)
			if err != nil {
				return nil, err
			}
			t.AddRow(prof.Name, strat.Name(), f4(bd.Loading), f4(bd.Inference), f4(bd.Relational), f4(bd.Total()))
		}
	}
	return t, nil
}

// Fig9CNNBlocks reproduces Fig. 9: the per-step cost of the student model's
// SQL pipeline (Conv1..3, Reshape1..2, BN/ReLU per block, Classification),
// from each statement's median over stepRounds inferences.
func (s *Suite) Fig9CNNBlocks() (*Table, error) {
	db := sqldb.New()
	tr := dl2sql.NewTranslator(db, "fig9")
	model := s.Ctx.Bindings["nudf_detect"].Entry.Model
	sm, err := tr.StoreModel(model)
	if err != nil {
		return nil, err
	}
	// Collections run between inferences, never inside one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runs, err := measure.Rounds(stepRounds, func(round int) ([]dl2sql.StepCost, error) {
		_, _, err := tr.Infer(sm, randomInput(model.InputShape, s.Cfg.Seed+int64(round)))
		return slices.Clone(tr.Steps), err
	})
	if err != nil {
		return nil, err
	}
	steps, err := stepMedians(runs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Fig. 9",
		Title:   "Costs of CNN Blocks in DL2SQL (median seconds/inference)",
		Columns: []string{"Step", "Time(s)"},
		Notes: []string{
			"shape check: convolution steps dominate; deeper convs cost more than reshapes and elementwise steps",
		},
	}
	for _, step := range steps[0] {
		t.AddRow(step.label, f6(step.secs))
	}
	return t, nil
}

// Fig10RelOps reproduces Fig. 10: the running-time distribution across
// relational operators while DL2SQL executes inference SQL. Each operator's
// time is the self time of its spans: every statement of three inferences
// is traced, and the spans are summed per kind, the span name without its
// table ("Scan fig10_w" counts as Scan).
func (s *Suite) Fig10RelOps() (*Table, error) {
	db := sqldb.New()
	tr := dl2sql.NewTranslator(db, "fig10")
	model := s.Ctx.Bindings["nudf_detect"].Entry.Model
	sm, err := tr.StoreModel(model)
	if err != nil {
		return nil, err
	}
	// Armed after StoreModel, so its inserts stay out of the figure.
	db.Traces = obs.NewTraceStore(obs.TraceStoreConfig{SampleEvery: 1, MaxTraces: 1 << 16, MaxSpansPerTrace: 1 << 20})
	for i := 0; i < 3; i++ {
		in := randomInput(model.InputShape, s.Cfg.Seed+int64(i))
		if _, _, err := tr.Infer(sm, in); err != nil {
			return nil, err
		}
	}
	self, rows := map[string]time.Duration{}, map[string]int{}
	var total time.Duration
	for _, st := range db.Traces.Snapshot() {
		for _, sp := range st.Spans {
			// The statement span's self time is parsing and planning.
			if sp.Name == "query" || sp.Name == "sql" {
				continue
			}
			kind, _, _ := strings.Cut(sp.Name, " ")
			n, _ := strconv.Atoi(strings.TrimPrefix(sp.Attrs, "rows="))
			self[kind] += sp.Self
			rows[kind] += n
			total += sp.Self
		}
	}
	kinds := make([]string, 0, len(self))
	for k := range self {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return self[kinds[i]] > self[kinds[j]] })
	topTwo := len(kinds) >= 2 && slices.Contains(kinds[:2], "Aggregate") &&
		(strings.HasSuffix(kinds[0], "Join") || strings.HasSuffix(kinds[1], "Join"))
	t := &Table{
		ID:      "Fig. 10",
		Title:   "Costs of Relational Operations in Generated Queries",
		Columns: []string{"Operator", "Time(s)", "Share(%)", "Rows"},
		Notes:   []string{shapeNote(topTwo, fig10Claim)},
	}
	for _, k := range kinds {
		t.AddRow(k,
			f6(self[k].Seconds()),
			fmt.Sprintf("%.1f", 100*float64(self[k])/float64(total)),
			fmt.Sprintf("%d", rows[k]))
	}
	return t, nil
}

// fig10Claim is the paper's Fig. 10 finding in span names.
const fig10Claim = "Join and GroupBy (Aggregate and a *Join span) are the two most expensive operators"

// Fig11PreJoin reproduces Fig. 11: the cost of the CNN blocks under the
// three pre-join strategies.
//
// The strategies differ by a few hundred microseconds per inference, about
// what one GC cycle, one scheduler stall or a different heap layout of the
// model tables costs. So the strategies share one database and one stored
// model (pre-joining happens at inference time, not in the stored tables),
// and every strategy of a round infers the same input.
func (s *Suite) Fig11PreJoin() (*Table, error) {
	t := &Table{
		ID:      "Fig. 11",
		Title:   "Performance of CNN Blocks with Pre-Join Strategies (seconds/inference)",
		Columns: []string{"Strategy", "Conv+Reshape(s)", "Other(s)", "Total(s)"},
		Notes: []string{
			"shape check: each pre-join level reduces the conv+reshape cost: none > prejoin-mapping > prejoin-input",
		},
	}
	model := s.Ctx.Bindings["nudf_detect"].Entry.Model
	strats := []dl2sql.PreJoinStrategy{dl2sql.PreJoinNone, dl2sql.PreJoinMapping, dl2sql.PreJoinInput}
	db := sqldb.New()
	tr := dl2sql.NewTranslator(db, "fig11")
	sm, err := tr.StoreModel(model)
	if err != nil {
		return nil, err
	}
	// Collections run between inferences, never inside one. Rounds is
	// called here rather than from a shared helper: with the timed loop
	// one call deeper, TestFig11Shape's failures rose from about one in ten
	// isolated runs to one in four, a code-shape effect the size of the
	// pre-joins' margin.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	arms := make([]func(int) ([]dl2sql.StepCost, error), len(strats))
	for i, strat := range strats {
		arms[i] = func(round int) ([]dl2sql.StepCost, error) {
			tr.PreJoin = strat
			_, _, err := tr.Infer(sm, randomInput(model.InputShape, s.Cfg.Seed+int64(round)))
			return slices.Clone(tr.Steps), err
		}
	}
	runs, err := measure.Rounds(stepRounds, arms...)
	if err != nil {
		return nil, err
	}
	steps, err := stepMedians(runs)
	if err != nil {
		return nil, err
	}
	for i, strat := range strats {
		var convSecs, otherSecs float64
		for _, step := range steps[i] {
			if strings.HasPrefix(step.label, "Conv") || strings.HasPrefix(step.label, "Reshape") {
				convSecs += step.secs
			} else {
				otherSecs += step.secs
			}
		}
		t.AddRow(strat.String(), f6(convSecs), f6(otherSecs), f6(convSecs+otherSecs))
	}
	return t, nil
}

// stepRounds is the number of measure.Rounds rounds behind every per-step
// figure (Fig. 9, 11 and 13). Round r infers randomInput(shape, seed+r), and
// the collector is off during the rounds, so the collection owed by one
// run's untimed input encoding cannot land in another's steps.
const stepRounds = 15

// stepTime is one SQL pipeline step's time.
type stepTime struct {
	label string
	secs  float64
}

// stepMedians reduces the statement costs measure.Rounds returned,
// runs[arm][round], to each arm's steps in pipeline order. A statement's
// time is its median over the rounds, which a stall in any one round does
// not move, and a step's time is the sum over its statements (consecutive,
// sharing the step's label).
func stepMedians(runs [][][]dl2sql.StepCost) ([][]stepTime, error) {
	out := make([][]stepTime, len(runs))
	for i, arm := range runs {
		secs := make([]float64, len(arm))
		for j, stmt := range arm[0] {
			for r, run := range arm {
				if len(run) != len(arm[0]) || run[j].Label != stmt.Label {
					return nil, fmt.Errorf("bench: arm %d round %d ran other statements than round 0", i, r)
				}
				secs[r] = run[j].Time.Seconds()
			}
			if n := len(out[i]); n > 0 && out[i][n-1].label == stmt.Label {
				out[i][n-1].secs += measure.Median(secs)
			} else {
				out[i] = append(out[i], stepTime{stmt.Label, measure.Median(secs)})
			}
		}
	}
	return out, nil
}

// randomInput builds a deterministic input tensor for a model.
func randomInput(shape []int, seed int64) *tensor.Tensor {
	out := tensor.New(shape...)
	state := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for i := range out.Data() {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		out.Data()[i] = float64(z>>11) / float64(1<<53)
	}
	return out
}
