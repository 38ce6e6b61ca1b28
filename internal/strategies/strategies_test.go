package strategies

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/colquery"
	"repro/internal/hwprofile"
	"repro/internal/iotdata"
	"repro/internal/measure"
	"repro/internal/modelrepo"
	"repro/internal/obs"
	"repro/internal/sqldb"
)

// testContext builds a tiny dataset + bound models shared by the strategy
// tests. Keyframes are 8×8 to keep SQL inference fast.
func testContext(t *testing.T) *Context {
	t.Helper()
	ds, err := iotdata.Generate(iotdata.Config{Scale: 2, KeyframeSide: 8, Seed: 7, PatternCount: 6})
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(ds)
	repo := modelrepo.NewRepository(8, 99)
	if err := ctx.BindDefaults(repo, 20); err != nil {
		t.Fatal(err)
	}
	return ctx
}

// resultKey renders a result into an order-independent canonical string.
func resultKey(res *sqldb.Result) string {
	n := res.NumRows()
	rows := make([]string, n)
	for i := 0; i < n; i++ {
		var sb strings.Builder
		for _, c := range res.Cols {
			d := c.Get(i)
			if d.T == sqldb.TFloat {
				// round to avoid fp noise in comparisons
				sb.WriteString(trim(d.F))
			} else {
				sb.WriteString(d.String())
			}
			sb.WriteByte('|')
		}
		rows[i] = sb.String()
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

func trim(f float64) string {
	return strings.TrimRight(strings.TrimRight(
		sqldb.Float(float64(int64(f*1e6))/1e6).String(), "0"), ".")
}

func TestAllStrategiesAgreeType1(t *testing.T) { agreeOnType(t, colquery.Type1) }
func TestAllStrategiesAgreeType2(t *testing.T) { agreeOnType(t, colquery.Type2) }
func TestAllStrategiesAgreeType3(t *testing.T) { agreeOnType(t, colquery.Type3) }
func TestAllStrategiesAgreeType4(t *testing.T) { agreeOnType(t, colquery.Type4) }

func agreeOnType(t *testing.T, typ colquery.QueryType) {
	t.Helper()
	q, err := colquery.GenerateAnalyzed(typ, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	agreeOn(t, q)
}

// TestAllStrategiesAgreeCaseAcrossRelations: a conjunct whose CASE reads
// the fabric relation is not a video-only predicate, so no strategy may
// push it into its video-side candidate scan.
func TestAllStrategiesAgreeCaseAcrossRelations(t *testing.T) {
	q, err := colquery.Analyze(`SELECT patternID, F.transID AS transID FROM fabric F, video V
		WHERE F.transID = V.transID
		and V.videoID + CASE WHEN F.meter > 0 THEN 0 ELSE 0 END >= 0
		and nUDF_detect(V.keyframe) = TRUE`)
	if err != nil {
		t.Fatal(err)
	}
	agreeOn(t, q)
}

// agreeOn requires every strategy to return the same rows for q.
func agreeOn(t *testing.T, q *colquery.Query) {
	t.Helper()
	ctx := testContext(t)
	var wantKey string
	var wantFrom string
	for _, s := range All() {
		res, bd, err := s.Execute(context.Background(), ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if bd.Total() <= 0 {
			t.Fatalf("%s: zero cost breakdown", s.Name())
		}
		key := resultKey(res)
		if wantFrom == "" {
			wantKey, wantFrom = key, s.Name()
			continue
		}
		if key != wantKey {
			t.Fatalf("%s result differs from %s on %v:\n--- %s ---\n%s\n--- %s ---\n%s",
				s.Name(), wantFrom, q.Type, wantFrom, wantKey, s.Name(), key)
		}
	}
}

func TestCostBucketsPopulated(t *testing.T) {
	ctx := testContext(t)
	q, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range All() {
		_, bd, err := s.Execute(context.Background(), ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if bd.Loading < 0 || bd.Inference < 0 || bd.Relational < 0 {
			t.Fatalf("%s: negative bucket: %+v", s.Name(), bd)
		}
		if bd.Inference == 0 {
			t.Fatalf("%s: inference bucket empty", s.Name())
		}
	}
}

func TestOPPrunesInference(t *testing.T) {
	ctx := testContext(t)
	// Very selective relational predicates: OP must infer far fewer
	// keyframes than plain DL2SQL.
	q, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// infer_calls of each run's strategy-level record counts the keyframes
	// it inferred.
	ctx.History = obs.NewQueryHistory(8)
	infers := func(s Strategy) int64 {
		if _, _, err := ExecuteWithFallback(context.Background(), ctx, s, q); err != nil {
			t.Fatal(err)
		}
		recs := ctx.History.Snapshot()
		return recs[len(recs)-1].InferCalls
	}
	plainInfers := infers(&DL2SQL{Optimized: false})
	opInfers := infers(&DL2SQL{Optimized: true})
	if opInfers >= plainInfers {
		t.Fatalf("OP ran %d inferences, plain %d — hints must prune", opInfers, plainInfers)
	}
}

func TestGPUProfileShiftsCosts(t *testing.T) {
	ctx := testContext(t)
	q, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	s := &DBPyTorch{}
	// Loading includes real wall time of the serving pipe, so the profiles
	// run in measure.Rounds: each warmed up once (the first execution pays
	// one-off costs, allocator growth and goroutine start, that would
	// inflate whichever profile ran first), then alternating which runs
	// first. Each run starts from a collected heap: a GC cycle owed by the
	// set-up would otherwise land in whichever run comes first, and a GC
	// assist inside the model decode is multiplied by the profile's
	// DLModelLoadFactor — tens of milliseconds of "loading" that swamp the
	// few-millisecond device transfer this test is about. Each profile is
	// judged by its median run, so one scheduler stall on a loaded machine
	// cannot decide the comparison.
	profile := func(prof hwprofile.Profile) func(int) (CostBreakdown, error) {
		return func(int) (CostBreakdown, error) {
			ctx.Profile = prof
			_, bd, err := s.Execute(context.Background(), ctx, q)
			return bd, err
		}
	}
	runs, err := measure.Rounds(5, profile(hwprofile.EdgeCPU), profile(hwprofile.ServerGPU))
	if err != nil {
		t.Fatal(err)
	}
	median := func(runs []CostBreakdown) CostBreakdown {
		var inference, loading []float64
		for _, bd := range runs {
			inference, loading = append(inference, bd.Inference), append(loading, bd.Loading)
		}
		return CostBreakdown{Inference: measure.Median(inference), Loading: measure.Median(loading)}
	}
	cpu, gpu := median(runs[0]), median(runs[1])
	if gpu.Inference >= cpu.Inference {
		t.Fatalf("GPU inference %v should beat CPU %v", gpu.Inference, cpu.Inference)
	}
	if gpu.Loading <= cpu.Loading {
		t.Fatalf("GPU loading %v should exceed CPU %v (device transfer)", gpu.Loading, cpu.Loading)
	}
}

func TestDBUDFBlackBoxCallsEveryWindowRow(t *testing.T) {
	ctx := testContext(t)
	q, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	db := ctx.Dataset.DB
	db.History = obs.NewQueryHistory(16)
	s := &DBUDF{}
	if _, _, err := s.Execute(context.Background(), ctx, q); err != nil {
		t.Fatal(err)
	}
	recs := db.History.Snapshot()
	calls := int(recs[len(recs)-1].UDFCalls)
	// The black-box UDF is evaluated per date-window video row: its call
	// count must not shrink with the fabric-side selectivity.
	res, err := db.Query(`SELECT count(*) c FROM video V WHERE V.date > '2021-01-01' AND V.date < '2021-01-31'`)
	if err != nil {
		t.Fatal(err)
	}
	window := int(res.Cols[0].Get(0).I)
	if calls < window {
		t.Fatalf("UDF called %d times, expected at least the %d window rows", calls, window)
	}
}

func TestBindingsRequired(t *testing.T) {
	ds, err := iotdata.Generate(iotdata.Config{Scale: 1, KeyframeSide: 8, Seed: 7, PatternCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(ds) // no bindings
	q, err := colquery.GenerateAnalyzed(colquery.Type1, colquery.TemplateParams{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range All() {
		if _, _, err := s.Execute(context.Background(), ctx, q); err == nil {
			t.Fatalf("%s must fail without bindings", s.Name())
		}
	}
}

func TestPredictionDatumKinds(t *testing.T) {
	ctx := testContext(t)
	b := ctx.Bindings["nudf_detect"]
	if d := b.predictionDatum(1); d.T != sqldb.TBool || d.I != 1 {
		t.Fatalf("bool kind: %v", d)
	}
	b2 := ctx.Bindings["nudf_classify"]
	if d := b2.predictionDatum(0); d.T != sqldb.TString {
		t.Fatalf("label kind: %v", d)
	}
	b3 := ctx.Bindings["nudf_recog"]
	if d := b3.predictionDatum(3); d.T != sqldb.TInt || d.I != 3 {
		t.Fatalf("index kind: %v", d)
	}
}

func TestRewriteWithPredictions(t *testing.T) {
	q, err := colquery.Analyze(`SELECT patternID FROM fabric F, video V
		WHERE F.transID = V.transID AND nUDF_detect(V.keyframe) = TRUE`)
	if err != nil {
		t.Fatal(err)
	}
	re := rewriteWithPredictions(q, "npred_x")
	s := re.String()
	if strings.Contains(strings.ToLower(s), "nudf_detect(") {
		t.Fatalf("rewrite left an nUDF call:\n%s", s)
	}
	if !strings.Contains(s, "NPRED.p_nudf_detect") {
		t.Fatalf("rewrite missing prediction column:\n%s", s)
	}
	if !strings.Contains(s, "npred_x") {
		t.Fatalf("rewrite missing prediction table:\n%s", s)
	}
}

func TestStripUDFConjuncts(t *testing.T) {
	q, err := colquery.Analyze(`SELECT patternID FROM fabric F, video V
		WHERE F.humidity > 80 AND F.transID = V.transID AND nUDF_detect(V.keyframe) = TRUE`)
	if err != nil {
		t.Fatal(err)
	}
	stripped := stripUDFConjuncts(q.Stmt)
	s := strings.ToLower(stripped.String())
	if strings.Contains(s, "nudf") {
		t.Fatalf("strip left an nUDF:\n%s", s)
	}
	if !strings.Contains(s, "humidity") || !strings.Contains(s, "transid") {
		t.Fatalf("strip dropped relational predicates:\n%s", s)
	}
}

func TestBatchedDL2SQLAgreesWithPerSample(t *testing.T) {
	ctx := testContext(t)
	q, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	per := &DL2SQL{Optimized: true}
	bat := &DL2SQL{Optimized: true, Batched: true}
	resP, _, err := per.Execute(context.Background(), ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	resB, bdB, err := bat.Execute(context.Background(), ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(resP) != resultKey(resB) {
		t.Fatal("batched and per-sample DL2SQL must return identical results")
	}
	if bdB.Inference <= 0 {
		t.Fatal("batched inference must record cost")
	}
}

func TestBatchedDL2SQLIssuesFewerStatements(t *testing.T) {
	ctx := tracedContext(t)
	q, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	per, _ := tracedExecute(t, ctx, &DL2SQL{Optimized: false}, q)
	bat, _ := tracedExecute(t, ctx, &DL2SQL{Optimized: false, Batched: true}, q)
	if stepSpans(bat)*2 > stepSpans(per) {
		t.Fatalf("batched pipeline should issue far fewer statements: %d vs %d",
			stepSpans(bat), stepSpans(per))
	}
}

func TestDeviceTableQueryAllStrategies(t *testing.T) {
	ctx := testContext(t)
	q, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.2, UseDeviceTable: true})
	if err != nil {
		t.Fatal(err)
	}
	var wantKey, wantFrom string
	for _, s := range All() {
		res, _, err := s.Execute(context.Background(), ctx, q)
		if err != nil {
			t.Fatalf("%s on device-table query: %v", s.Name(), err)
		}
		key := resultKey(res)
		if wantFrom == "" {
			wantKey, wantFrom = key, s.Name()
			continue
		}
		if key != wantKey {
			t.Fatalf("%s disagrees with %s on the three-way device join", s.Name(), wantFrom)
		}
	}
}

func TestGPUTransferGranularity(t *testing.T) {
	// DB-UDF ships per-call (row-at-a-time UDF); DB-PyTorch ships one batch.
	// On the GPU profile the per-call path must pay more loading.
	ctx := testContext(t)
	ctx.Profile = hwprofile.ServerGPU
	q, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	_, udfBD, err := (&DBUDF{}).Execute(context.Background(), ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	_, ptBD, err := (&DBPyTorch{}).Execute(context.Background(), ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if udfBD.Loading <= ptBD.Loading {
		t.Fatalf("per-call GPU transfers must exceed batched: DB-UDF %v vs DB-PyTorch %v",
			udfBD.Loading, ptBD.Loading)
	}
}
