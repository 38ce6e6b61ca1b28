package bench

import (
	"bytes"
	"compress/flate"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dl2sql"
	"repro/internal/hwprofile"
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
// averaged over several inferences.
func (s *Suite) Fig9CNNBlocks() (*Table, error) {
	const runs = 3
	db := sqldb.New()
	tr := dl2sql.NewTranslator(db, "fig9")
	model := s.Ctx.Bindings["nudf_detect"].Entry.Model
	sm, err := tr.StoreModel(model)
	if err != nil {
		return nil, err
	}
	agg := map[string]time.Duration{}
	var order []string
	for i := 0; i < runs; i++ {
		in := randomInput(model.InputShape, s.Cfg.Seed+int64(i))
		if _, _, err := tr.Infer(sm, in); err != nil {
			return nil, err
		}
		for _, step := range tr.Steps {
			if _, ok := agg[step.Label]; !ok {
				order = append(order, step.Label)
			}
			agg[step.Label] += step.Time
		}
	}
	t := &Table{
		ID:      "Fig. 9",
		Title:   "Costs of CNN Blocks in DL2SQL (avg seconds/inference)",
		Columns: []string{"Step", "Time(s)"},
		Notes: []string{
			"shape check: convolution steps dominate; deeper convs cost more than reshapes and elementwise steps",
		},
	}
	for _, label := range order {
		t.AddRow(label, f6(agg[label].Seconds()/runs))
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
// every strategy is warmed up once, the timed inferences alternate between
// strategies on the same inputs, the heap is collected before each and not
// during it (otherwise the collection owed by one strategy's untimed input
// encoding lands in its SQL steps), and every pipeline step reports its
// median run, which a stall in any one run does not move.
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
	for _, strat := range strats {
		tr.PreJoin = strat
		if _, _, err := tr.Infer(sm, randomInput(model.InputShape, s.Cfg.Seed)); err != nil {
			return nil, err
		}
	}
	// Collections run between inferences, never inside one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 15
	// steps[i] is strategy i's step sequence, the same in every run, and
	// secs[i][j] its step j's time over the runs.
	steps := make([][]dl2sql.StepCost, len(strats))
	secs := make([][][]float64, len(strats))
	for r := 0; r < runs; r++ {
		in := randomInput(model.InputShape, s.Cfg.Seed+int64(r))
		for k := range strats {
			i := (r + k) % len(strats) // each strategy leads a third of the rounds
			strat := strats[i]
			tr.PreJoin = strat
			runtime.GC()
			if _, _, err := tr.Infer(sm, in); err != nil {
				return nil, err
			}
			if r == 0 {
				steps[i] = slices.Clone(tr.Steps)
				secs[i] = make([][]float64, len(tr.Steps))
			} else if len(tr.Steps) != len(steps[i]) {
				return nil, fmt.Errorf("bench: fig11 %s ran %d steps, first run %d", strat, len(tr.Steps), len(steps[i]))
			}
			for j, step := range tr.Steps {
				secs[i][j] = append(secs[i][j], step.Time.Seconds())
			}
		}
	}
	runtime.GC()
	for i, strat := range strats {
		var convSecs, otherSecs float64
		for j, step := range steps[i] {
			v := secs[i][j]
			sort.Float64s(v)
			if strings.HasPrefix(step.Label, "Conv") || strings.HasPrefix(step.Label, "Reshape") {
				convSecs += v[len(v)/2]
			} else {
				otherSecs += v[len(v)/2]
			}
		}
		t.AddRow(strat.String(), f6(convSecs), f6(otherSecs), f6(convSecs+otherSecs))
	}
	return t, nil
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
