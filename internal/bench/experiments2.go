package bench

import (
	"fmt"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/colquery"
	"repro/internal/costmodel"
	"repro/internal/dl2sql"
	"repro/internal/measure"
	"repro/internal/modelrepo"
	"repro/internal/nn"
	"repro/internal/sqldb"
	"repro/internal/strategies"
)

// Table5Selectivity reproduces Table V: DL2SQL-OP cost vs. the accumulated
// relational selectivity, with the flat DB-UDF / DB-PyTorch totals
// alongside (the narrowing-gap observation).
func (s *Suite) Table5Selectivity(sels []float64) (*Table, error) {
	t := &Table{
		ID:      "Table V",
		Title:   "Performance vs. Relational Selectivity (Type 3 queries, edge)",
		Columns: []string{"Selectivity", "OP-Inference(s)", "OP-Loading(s)", "OP-All(s)", "DB-UDF All(s)", "DB-PyTorch All(s)"},
		Notes: []string{
			"shape check: DL2SQL-OP inference grows with selectivity; DB-UDF / DB-PyTorch stay nearly flat; the gap narrows as selectivity rises",
		},
	}
	op := &strategies.DL2SQL{Optimized: true}
	udf := &strategies.DBUDF{}
	pt := &strategies.DBPyTorch{}
	for _, sel := range sels {
		opBD, err := s.runType(op, colquery.Type3, s.Cfg.QueriesPerType, sel)
		if err != nil {
			return nil, err
		}
		udfBD, err := s.runType(udf, colquery.Type3, s.Cfg.QueriesPerType, sel)
		if err != nil {
			return nil, err
		}
		ptBD, err := s.runType(pt, colquery.Type3, s.Cfg.QueriesPerType, sel)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.2f%%", sel*100),
			f4(opBD.Inference), f4(opBD.Loading), f4(opBD.Total()),
			f4(udfBD.Total()), f4(ptBD.Total()))
	}
	return t, nil
}

// Table6Depth reproduces Table VI: parameters, inference and loading cost
// vs. ResNet depth for DL2SQL-OP, with DB-UDF / DB-PyTorch totals. The
// relational algebra cost is omitted, as in the paper (orders of magnitude
// below inference/loading for deep models).
func (s *Suite) Table6Depth(depths []int) (*Table, error) {
	t := &Table{
		ID:      "Table VI",
		Title:   "Performance vs. Model Depth (selectivity 0.1%-scaled, edge)",
		Columns: []string{"Depth", "Params", "OP-Inference(s)", "OP-Loading(s)", "DB-UDF All(s)", "DB-PyTorch All(s)"},
	}
	for _, depth := range depths {
		m, err := modelrepo.NewResNet(depth, modelrepo.TaskDefectDetection, s.Cfg.KeyframeSide, s.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		entry := &modelrepo.Entry{
			Name:  fmt.Sprintf("resnet%d", depth),
			Task:  modelrepo.TaskDefectDetection,
			Model: m,
		}
		if err := entry.Calibrate(s.Cfg.CalibrationSamples, s.Cfg.KeyframeSide, s.Cfg.Seed); err != nil {
			return nil, err
		}
		if err := s.Ctx.Bind("nudf_detect", entry, strategies.UDFBool); err != nil {
			return nil, err
		}
		if err := s.Ctx.HintProvider.RegisterModel("nudf_detect", entry); err != nil {
			return nil, err
		}
		op := &strategies.DL2SQL{Optimized: true}
		opBD, err := s.runType(op, colquery.Type3, 1, s.Cfg.Selectivity)
		if err != nil {
			return nil, err
		}
		udfBD, err := s.runType(&strategies.DBUDF{}, colquery.Type3, 1, s.Cfg.Selectivity)
		if err != nil {
			return nil, err
		}
		ptBD, err := s.runType(&strategies.DBPyTorch{}, colquery.Type3, 1, s.Cfg.Selectivity)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", depth), fmt.Sprintf("%d", m.ParamCount()),
			f4(opBD.Inference), f4(opBD.Loading), f4(udfBD.Total()), f4(ptBD.Total()))
	}
	// Restore the student binding for subsequent experiments.
	if err := s.Ctx.BindDefaults(s.Repo, s.Cfg.CalibrationSamples); err != nil {
		return nil, err
	}
	linear, steep, overtakes := table6Claims(t)
	t.Notes = []string{
		shapeNote(linear, table6Linear),
		shapeNote(steep, table6Steep),
		shapeNote(overtakes, table6Overtakes),
	}
	return t, nil
}

// Table VI's three claims, and the predicates that check them over its
// rows (depth, params, OP-Inference, OP-Loading, DB-UDF All, DB-PyTorch
// All).
const (
	table6Linear    = "params grow linearly with depth (each step adds params per layer at 1/2x to 2x the first step's rate)"
	table6Steep     = "DL2SQL loading grows steeply with depth (at every step, and faster than depth overall)"
	table6Overtakes = "DB-PyTorch overtakes DL2SQL for the deepest models (DL2SQL-OP Inference+Loading below DB-PyTorch All at the shallowest depth, above it at the deepest)"
)

func table6Claims(t *Table) (linear, steep, overtakes bool) {
	n := len(t.Rows)
	if n < 2 {
		return false, false, false
	}
	slope := func(i int) float64 { return (t.num(i, 1) - t.num(i-1, 1)) / (t.num(i, 0) - t.num(i-1, 0)) }
	linear, steep = true, t.num(n-1, 3)/t.num(0, 3) > t.num(n-1, 0)/t.num(0, 0)
	for i := 1; i < n; i++ {
		linear = linear && slope(i) > 0 && slope(i) <= 2*slope(1) && slope(1) <= 2*slope(i)
		steep = steep && t.num(i, 3) > t.num(i-1, 3)
	}
	opTotal := func(i int) float64 { return t.num(i, 2) + t.num(i, 3) }
	return linear, steep, opTotal(0) < t.num(0, 5) && opTotal(n-1) > t.num(n-1, 5)
}

// Fig12CostModel reproduces Fig. 12: the default DBMS estimate, the
// customized estimate, and the actual running time of Type-1-style conv
// queries, sweeping (a) kernel size and (b) input feature-map size. Costs
// are normalized to seconds with the measured ratio r.
func (s *Suite) Fig12CostModel() (*Table, error) {
	db := sqldb.New()
	u, err := costmodel.Calibrate(db)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Fig. 12",
		Title:   "Cost Model Estimations vs. Actual (normalized seconds, log-scale in the paper)",
		Columns: []string{"Sweep", "Value", "Default(s)", "Customized(s)", "Actual(s)"},
		Notes: []string{
			fmt.Sprintf("normalization ratios: %.3e s per scanned row, %.3e s per join pair", u.Scan, u.Pair),
			"shape check: customized tracks actual within ~an order of magnitude; default overshoots by many orders",
		},
	}
	measure := func(side, k int) (def, custom, actual float64, err error) {
		// Three stacked same-padded convolutions: the estimation error of
		// the default model compounds across layers, which is the paper's
		// observed pathology ("exaggerated exponentially after several
		// iterations" — single layers can even be under-estimated).
		pad := (k - 1) / 2
		m := nn.NewModel("sweep", []int{3, side, side}, nil)
		m.Add(
			nn.NewConv2D("c1", 3, 8, k, 1, pad, s.Cfg.Seed),
			nn.NewConv2D("c2", 8, 8, k, 1, pad, s.Cfg.Seed+1),
			nn.NewConv2D("c3", 8, 8, k, 1, pad, s.Cfg.Seed+2),
		)
		mc, err := costmodel.EstimateModel(m)
		if err != nil {
			return 0, 0, 0, err
		}
		dc, err := costmodel.DefaultEstimateModel(m)
		if err != nil {
			return 0, 0, 0, err
		}
		db := sqldb.New()
		tr := dl2sql.NewTranslator(db, "fig12")
		sm, err := tr.StoreModel(m)
		if err != nil {
			return 0, 0, 0, err
		}
		start := time.Now()
		if _, _, err := tr.Infer(sm, randomInput(m.InputShape, s.Cfg.Seed)); err != nil {
			return 0, 0, 0, err
		}
		actual = time.Since(start).Seconds()
		return dc.Seconds(u), mc.Seconds(u), actual, nil
	}
	for _, k := range []int{3, 5, 7, 9} {
		def, custom, actual, err := measure(16, k)
		if err != nil {
			return nil, err
		}
		t.AddRow("kernel-size", fmt.Sprintf("%d", k), fe(def), fe(custom), fe(actual))
	}
	for _, side := range []int{8, 12, 16, 20} {
		def, custom, actual, err := measure(side, 3)
		if err != nil {
			return nil, err
		}
		t.AddRow("featuremap-size", fmt.Sprintf("%d", side), fe(def), fe(custom), fe(actual))
	}
	return t, nil
}

// Fig13PerOp reproduces Fig. 13: per-neural-operator estimation accuracy —
// customized estimate vs. actual SQL execution time (stepMedians) for conv,
// BN, ReLU, pooling, and FC.
func (s *Suite) Fig13PerOp() (*Table, error) {
	db := sqldb.New()
	u, err := costmodel.Calibrate(db)
	if err != nil {
		return nil, err
	}
	side := 16
	model := nn.NewModel("ops", []int{3, side, side}, nil)
	model.Add(
		nn.NewConv2D("conv", 3, 8, 3, 1, 0, s.Cfg.Seed),
		nn.NewBatchNorm("bn", 8),
		&nn.ReLU{LayerName: "relu"},
		&nn.MaxPool{LayerName: "pool", K: 2, Stride: 2},
		&nn.GlobalAvgPool{LayerName: "gap"},
		nn.NewLinear("fc", 8, 4, s.Cfg.Seed+1),
	)
	mc, err := costmodel.EstimateModel(model)
	if err != nil {
		return nil, err
	}
	execDB := sqldb.New()
	tr := dl2sql.NewTranslator(execDB, "fig13")
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
	actualByLabel := map[string]float64{}
	for _, step := range steps[0] {
		actualByLabel[step.label] = step.secs
	}
	t := &Table{
		ID:      "Fig. 13",
		Title:   "Per-Operator Cost Estimation (customized model vs. actual)",
		Columns: []string{"Operator", "Estimated(s)", "Actual(s)"},
		Notes: []string{
			"shape check: the customized estimates track the per-operator actuals' ordering (conv most expensive)",
		},
	}
	labelFor := map[string]string{
		"conv": "Conv1", "bn": "BN1", "relu": "ReLU1", "pool": "Pool", "gap": "Pool", "fc": "FC",
	}
	seenLabel := map[string]bool{}
	for _, lc := range mc.PerLayer {
		stepLabel, ok := labelFor[lc.Name]
		if !ok || seenLabel[stepLabel] {
			continue
		}
		seenLabel[stepLabel] = true
		t.AddRow(lc.Name, fe(lc.Seconds(u)), fe(actualByLabel[stepLabel]))
	}
	return t, nil
}

// Fig14Hints reproduces Fig. 14: the effect of the hint rules across
// selectivities — plain DL2SQL (scan-time nUDF evaluation) vs. DL2SQL-OP
// (cost-model-driven placement).
func (s *Suite) Fig14Hints(sels []float64) (*Table, error) {
	t := &Table{
		ID:      "Fig. 14",
		Title:   "Effect of Hints for Collaborative Queries (Type 3, edge)",
		Columns: []string{"Selectivity", "DL2SQL All(s)", "DL2SQL-OP All(s)", "Speedup"},
		Notes: []string{
			"shape check: hints help most at low selectivity (pruned inference) and converge toward 1x as selectivity rises",
		},
	}
	plain := &strategies.DL2SQL{Optimized: false}
	op := &strategies.DL2SQL{Optimized: true}
	for _, sel := range sels {
		pBD, err := s.runType(plain, colquery.Type3, s.Cfg.QueriesPerType, sel)
		if err != nil {
			return nil, err
		}
		oBD, err := s.runType(op, colquery.Type3, s.Cfg.QueriesPerType, sel)
		if err != nil {
			return nil, err
		}
		speedup := pBD.Total() / oBD.Total()
		t.AddRow(fmt.Sprintf("%.2f%%", sel*100), f4(pBD.Total()), f4(oBD.Total()), fmt.Sprintf("%.2fx", speedup))
	}
	return t, nil
}

// TableITypes runs each query type once under every strategy — the
// executable companion of Table I.
func (s *Suite) TableITypes() (*Table, error) {
	t := &Table{
		ID:      "Table I",
		Title:   "Query Types: avg total seconds per strategy",
		Columns: []string{"Type", "Difficulty", "DL2SQL(s)", "DL2SQL-OP(s)", "DB-UDF(s)", "DB-PyTorch(s)"},
	}
	for _, typ := range []colquery.QueryType{colquery.Type1, colquery.Type2, colquery.Type3, colquery.Type4} {
		cells := []string{typ.String(), typ.Difficulty()}
		for _, strat := range strategies.All() {
			bd, err := s.runType(strat, typ, 1, s.Cfg.Selectivity)
			if err != nil {
				return nil, err
			}
			cells = append(cells, f4(bd.Total()))
		}
		t.AddRow(cells...)
	}
	return t, nil
}
