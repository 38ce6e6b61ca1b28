package dl2sql

import (
	"strings"
	"testing"

	"repro/internal/modelrepo"
	"repro/internal/nn"
	"repro/internal/sqldb"
	"repro/internal/tensor"
)

// checkBatchAgreement verifies InferBatch matches per-sample native
// prediction for every sample.
func checkBatchAgreement(t *testing.T, m *nn.Model, inputs []*tensor.Tensor) {
	t.Helper()
	tr := newTr(t)
	sm, err := tr.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.InferBatch(sm, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(inputs) {
		t.Fatalf("batch returned %d results for %d inputs", len(got), len(inputs))
	}
	for i, in := range inputs {
		want, _, err := m.Predict(in)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("sample %d: batch SQL class %d vs native %d", i, got[i], want)
		}
	}
}

func batchInputs(shape []int, n int, seed int64) []*tensor.Tensor {
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = randTensor(shape, seed+int64(i)*17)
	}
	return out
}

func TestBatchStudentModelAgreement(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskPatternRecog, 8, 200)
	checkBatchAgreement(t, m, batchInputs([]int{3, 8, 8}, 5, 300))
}

func TestBatchSingleSample(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 201)
	checkBatchAgreement(t, m, batchInputs([]int{3, 8, 8}, 1, 301))
}

func TestBatchEmpty(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 202)
	tr := newTr(t)
	sm, err := tr.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.InferBatch(sm, nil)
	if err != nil || got != nil {
		t.Fatalf("empty batch: %v %v", got, err)
	}
}

func TestBatchResNetAgreement(t *testing.T) {
	m, err := modelrepo.NewResNet(5, modelrepo.TaskTextileType, 8, 203)
	if err != nil {
		t.Fatal(err)
	}
	checkBatchAgreement(t, m, batchInputs([]int{3, 8, 8}, 3, 302))
}

func TestBatchDenseAndDeconv(t *testing.T) {
	m := nn.NewModel("bd", []int{2, 4, 4}, nil)
	m.Add(
		nn.NewDenseBlock("db", 2, 2, 2, 204),
		nn.NewDeconv2D("dc", 6, 2, 2, 2, 0, 205),
		&nn.GlobalAvgPool{LayerName: "gap"},
		nn.NewLinear("fc", 2, 3, 206),
		&nn.Softmax{LayerName: "sm"},
	)
	if _, err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	checkBatchAgreement(t, m, batchInputs([]int{2, 4, 4}, 3, 303))
}

func TestBatchAttention(t *testing.T) {
	m := nn.NewModel("ba", []int{1, 2, 2}, nil)
	m.Add(
		&nn.Flatten{LayerName: "fl"},
		nn.NewBasicAttention("att", 4, 207),
		&nn.Softmax{LayerName: "sm"},
	)
	checkBatchAgreement(t, m, batchInputs([]int{1, 2, 2}, 4, 304))
}

func TestBatchWithBNParams(t *testing.T) {
	m := nn.NewModel("bbn", []int{1, 4, 4}, nil)
	bn := nn.NewBatchNorm("bn1", 2)
	bn.Gamma[0], bn.Gamma[1] = 2, 0.5
	bn.Beta[0], bn.Beta[1] = 0.1, -0.1
	m.Add(
		nn.NewConv2D("c1", 1, 2, 2, 1, 0, 208),
		bn,
		&nn.ReLU{LayerName: "r"},
		&nn.GlobalAvgPool{LayerName: "gap"},
		nn.NewLinear("fc", 2, 2, 209),
		&nn.Softmax{LayerName: "sm"},
	)
	checkBatchAgreement(t, m, batchInputs([]int{1, 4, 4}, 3, 305))
}

func TestBatchPreJoinStrategies(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 210)
	inputs := batchInputs([]int{3, 8, 8}, 3, 306)
	want := make([]int, len(inputs))
	for i, in := range inputs {
		want[i], _, _ = m.Predict(in)
	}
	for _, strat := range []PreJoinStrategy{PreJoinNone, PreJoinMapping, PreJoinInput} {
		db := sqldb.New()
		tr := NewTranslator(db, "m")
		tr.PreJoin = strat
		sm, err := tr.StoreModel(m)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		steps := stepSQL(t, tr, func() (err error) {
			got, err = tr.InferBatch(sm, inputs)
			return err
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v sample %d: %d vs %d", strat, i, got[i], want[i])
			}
		}
		// The model opens with a conv, so the first statement is Conv1:
		// under PreJoinInput the input was encoded pre-multiplied and the
		// kernel join is gone.
		first := steps[0]
		if !strings.Contains(first, "SUM(") || (strat == PreJoinInput) == strings.Contains(first, "JOIN") {
			t.Fatalf("%v: first conv statement %q", strat, first)
		}
	}
}

func TestBatchTempTablesCleanedUp(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 211)
	tr := newTr(t)
	sm, err := tr.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	before := len(tr.DB.TableNames())
	if _, err := tr.InferBatch(sm, batchInputs([]int{3, 8, 8}, 2, 307)); err != nil {
		t.Fatal(err)
	}
	if after := len(tr.DB.TableNames()); after != before {
		t.Fatalf("batch leaked tables: %d -> %d", before, after)
	}
}

// Batched inference must issue far fewer SQL statements than per-sample
// inference for the same work.
func TestBatchAmortizesStatements(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 212)
	inputs := batchInputs([]int{3, 8, 8}, 6, 308)

	perSample := newTr(t)
	sm1, err := perSample.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	perSteps := 0
	for _, in := range inputs {
		if _, _, err := perSample.Infer(sm1, in); err != nil {
			t.Fatal(err)
		}
		perSteps += len(perSample.Steps)
	}
	batched := newTr(t)
	sm2, err := batched.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batched.InferBatch(sm2, inputs); err != nil {
		t.Fatal(err)
	}
	if len(batched.Steps)*3 > perSteps {
		t.Fatalf("batch should amortize statements: %d batched vs %d per-sample",
			len(batched.Steps), perSteps)
	}
}

func TestVerifyPasses(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 400)
	tr := newTr(t)
	sm, err := tr.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tr.Verify(sm, 3, 1e-9)
	if err != nil {
		t.Fatalf("verify: %v (report %+v)", err, rep)
	}
	if rep.Trials != 3 || rep.Misclassified != 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	// A logit-output model (no softmax): saturated probabilities could mask
	// a corrupted weight below the epsilon, logits cannot.
	m := nn.NewModel("vc", []int{1, 6, 6}, nil)
	m.Add(
		nn.NewConv2D("c1", 1, 4, 3, 1, 0, 401),
		&nn.GlobalAvgPool{LayerName: "gap"},
		nn.NewLinear("fc", 4, 2, 402),
	)
	tr := newTr(t)
	sm, err := tr.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a kernel table: flip one weight.
	for _, name := range sm.TableNames() {
		tbl := tr.DB.GetTable(name)
		if tbl == nil || tbl.Schema.ColIndex("OrderID") < 0 || tbl.Schema.ColIndex("KernelID") < 0 {
			continue
		}
		if _, err := tr.DB.Exec("UPDATE " + name + " SET Value = Value + 100 WHERE OrderID = 0 AND KernelID = 0"); err != nil {
			t.Fatal(err)
		}
		break
	}
	if _, err := tr.Verify(sm, 2, 1e-9); err == nil {
		t.Fatal("verify must detect corrupted kernel tables")
	}
}

func TestMustSupport(t *testing.T) {
	good := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 402)
	if err := MustSupport(good); err != nil {
		t.Fatalf("student model should be supported: %v", err)
	}
	bad := nn.NewModel("bad", []int{4}, nil)
	bad.Add(&fakeLSTM{})
	if err := MustSupport(bad); err == nil {
		t.Fatal("LSTM model must be rejected")
	}
}

func TestTraceRecordsPipelineSQL(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 403)
	tr := newTr(t)
	sm, err := tr.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	ctx, root := tracedCtx()
	tr.Ctx = ctx
	if _, _, err := tr.Infer(sm, randTensor([]int{3, 8, 8}, 404)); err != nil {
		t.Fatal(err)
	}
	// One span per recorded step, each with its statement's operator spans
	// beneath it and its SQL text as attribute sql.
	steps := root.Children()
	if len(steps) == 0 || len(steps) != len(tr.Steps) {
		t.Fatalf("%d step spans for %d steps", len(steps), len(tr.Steps))
	}
	joined := ""
	for i, sp := range steps {
		if sp.Name != tr.Steps[i].Label || len(sp.Children()) == 0 {
			t.Fatalf("step span %d: %q with %d children, want %q with its operators", i, sp.Name, len(sp.Children()), tr.Steps[i].Label)
		}
		for _, a := range sp.Attrs() {
			if a.Key == "sql" {
				joined += a.Value.(string) + "\n"
			}
		}
	}
	// The paper's query shapes must appear in the trace.
	for _, want := range []string{
		"INNER JOIN",                   // Q1 conv join
		"GROUP BY",                     // Q1 aggregation
		"stddevSamp",                   // Q4 batch norm
		"CASE WHEN Value < 0 THEN 0.0", // ReLU projection
		"ORDER BY Value",               // classification argmax
	} {
		if !containsStr(joined, want) {
			t.Fatalf("trace missing %q", want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
