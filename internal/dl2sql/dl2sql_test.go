package dl2sql

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/modelrepo"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sqldb"
	"repro/internal/tensor"
)

func newTr(t *testing.T) *Translator {
	t.Helper()
	db := sqldb.New()
	return NewTranslator(db, "m")
}

// tracedCtx is a context whose active span is the root of a fresh keep-all
// trace: a translator running under it opens one child span per step.
func tracedCtx() (context.Context, *obs.Span) {
	store := obs.NewTraceStore(obs.TraceStoreConfig{SampleEvery: 1, MaxSpansPerTrace: 1 << 20})
	tr := store.StartTrace(context.Background(), "test")
	return obs.ContextWithTraceSpan(context.Background(), tr, tr.Root()), tr.Root()
}

// stepSQL runs fn with tr under a fresh trace and returns the sql attribute
// of every step span the run opened, in execution order.
func stepSQL(t *testing.T, tr *Translator, fn func() error) []string {
	t.Helper()
	ctx, root := tracedCtx()
	tr.Ctx = ctx
	defer func() { tr.Ctx = nil }()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, sp := range root.Children() {
		for _, a := range sp.Attrs() {
			if a.Key == "sql" {
				out = append(out, a.Value.(string))
			}
		}
	}
	return out
}

func randTensor(shape []int, seed int64) *tensor.Tensor {
	out := tensor.New(shape...)
	s := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for i := range out.Data() {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		out.Data()[i] = float64(z>>11)/float64(1<<53)*2 - 1
	}
	return out
}

// checkEquivalence stores the model, runs both the native and the SQL
// pipeline on the same input, and compares outputs elementwise. It then
// runs a 3-sample batch (the input and two more) through the batched
// rendering of the same pipeline and compares every sample's full output.
func checkEquivalence(t *testing.T, m *nn.Model, in *tensor.Tensor, eps float64) {
	t.Helper()
	tr := newTr(t)
	sm, err := tr.StoreModel(m)
	if err != nil {
		t.Fatalf("StoreModel: %v", err)
	}
	got, err := tr.InferTensor(sm, in)
	if err != nil {
		t.Fatalf("SQL forward: %v", err)
	}
	checkClose(t, "single", m, in, got, eps)

	ins := []*tensor.Tensor{in, randTensor(in.Shape(), 1001), randTensor(in.Shape(), 1002)}
	var outs []*tensor.Tensor
	if err := tr.run(sm, ins, func(prog *program) (err error) {
		outs, err = tr.tensors(prog, len(ins))
		return err
	}); err != nil {
		t.Fatalf("batched SQL forward: %v", err)
	}
	for i, in := range ins {
		checkClose(t, fmt.Sprintf("batch sample %d", i), m, in, outs[i], eps)
	}
}

// checkClose compares got with the native forward pass of in.
func checkClose(t *testing.T, what string, m *nn.Model, in, got *tensor.Tensor, eps float64) {
	t.Helper()
	want, err := m.Forward(in)
	if err != nil {
		t.Fatalf("%s: native forward: %v", what, err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: size mismatch: sql %v vs native %v", what, got.Shape(), want.Shape())
	}
	for i := range want.Data() {
		if math.Abs(got.Data()[i]-want.Data()[i]) > eps {
			t.Fatalf("%s: element %d: sql %v vs native %v", what, i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestEveryOperatorEquivalence(t *testing.T) {
	checkEquivalence(t, everyOperatorModel(), randTensor([]int{2, 6, 6}, 93), 1e-9)
}

// TestWrongInputShapeRejected: every entry point refuses an input whose
// shape differs from the model's, alone or beside a well-shaped input in a
// batch, and leaves no temp table behind.
func TestWrongInputShapeRejected(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 7)
	tr := newTr(t)
	sm, err := tr.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	before := len(tr.DB.TableNames())
	good := randTensor([]int{3, 8, 8}, 1)
	for _, shape := range [][]int{{1, 8, 8}, {3, 4, 4}, {3, 16, 16}} {
		bad := randTensor(shape, 2)
		if idx, p, err := tr.Infer(sm, bad); err == nil {
			t.Errorf("Infer accepted a %v input: class %d, p = %v", shape, idx, p)
		}
		if _, err := tr.InferTensor(sm, bad); err == nil {
			t.Errorf("InferTensor accepted a %v input", shape)
		}
		for _, batch := range [][]*tensor.Tensor{{bad}, {bad, bad}, {good, bad}} {
			if _, err := tr.InferBatch(sm, batch); err == nil {
				t.Errorf("InferBatch accepted a batch holding a %v input (batch of %d)", shape, len(batch))
			}
		}
	}
	if after := len(tr.DB.TableNames()); after != before {
		t.Fatalf("temp tables leaked: %d before, %d after", before, after)
	}
}

func TestConvOnlyEquivalence(t *testing.T) {
	m := nn.NewModel("conv", []int{1, 5, 5}, nil)
	m.Add(nn.NewConv2D("c1", 1, 2, 3, 2, 0, 7))
	checkEquivalence(t, m, randTensor([]int{1, 5, 5}, 1), 1e-9)
}

func TestConvWithPaddingEquivalence(t *testing.T) {
	m := nn.NewModel("convp", []int{3, 6, 6}, nil)
	m.Add(nn.NewConv2D("c1", 3, 4, 3, 1, 1, 8))
	checkEquivalence(t, m, randTensor([]int{3, 6, 6}, 2), 1e-9)
}

func TestTwoConvsWithReshapeEquivalence(t *testing.T) {
	m := nn.NewModel("conv2", []int{1, 8, 8}, nil)
	m.Add(
		nn.NewConv2D("c1", 1, 3, 3, 1, 1, 9),
		nn.NewConv2D("c2", 3, 2, 3, 2, 1, 10),
	)
	checkEquivalence(t, m, randTensor([]int{1, 8, 8}, 3), 1e-9)
}

func TestConvBNReLUEquivalence(t *testing.T) {
	m := nn.NewModel("cbr", []int{2, 6, 6}, nil)
	m.Add(
		nn.NewConv2D("c1", 2, 4, 3, 1, 0, 11),
		nn.NewBatchNorm("bn1", 4),
		&nn.ReLU{LayerName: "r1"},
	)
	checkEquivalence(t, m, randTensor([]int{2, 6, 6}, 4), 1e-9)
}

func TestMaxPoolEquivalence(t *testing.T) {
	m := nn.NewModel("pool", []int{2, 6, 6}, nil)
	m.Add(
		nn.NewConv2D("c1", 2, 2, 3, 1, 1, 12),
		&nn.MaxPool{LayerName: "p1", K: 2, Stride: 2},
	)
	checkEquivalence(t, m, randTensor([]int{2, 6, 6}, 5), 1e-9)
}

func TestAvgPoolEquivalence(t *testing.T) {
	m := nn.NewModel("apool", []int{1, 4, 4}, nil)
	m.Add(
		nn.NewConv2D("c1", 1, 2, 1, 1, 0, 13),
		&nn.AvgPool{LayerName: "p1", K: 2, Stride: 2},
	)
	checkEquivalence(t, m, randTensor([]int{1, 4, 4}, 6), 1e-9)
}

func TestGlobalAvgAndLinearEquivalence(t *testing.T) {
	m := nn.NewModel("gfl", []int{1, 6, 6}, nil)
	m.Add(
		nn.NewConv2D("c1", 1, 4, 3, 1, 0, 14),
		&nn.GlobalAvgPool{LayerName: "gap"},
		nn.NewLinear("fc", 4, 3, 15),
	)
	checkEquivalence(t, m, randTensor([]int{1, 6, 6}, 7), 1e-9)
}

func TestSoftmaxEquivalence(t *testing.T) {
	m := nn.NewModel("sm", []int{1, 4, 4}, nil)
	m.Add(
		nn.NewConv2D("c1", 1, 2, 1, 1, 0, 16),
		&nn.GlobalAvgPool{LayerName: "gap"},
		nn.NewLinear("fc", 2, 3, 17),
		&nn.Softmax{LayerName: "sm"},
	)
	checkEquivalence(t, m, randTensor([]int{1, 4, 4}, 8), 1e-9)
}

func TestSigmoidEquivalence(t *testing.T) {
	m := nn.NewModel("sig", []int{1, 4, 4}, nil)
	m.Add(
		nn.NewConv2D("c1", 1, 2, 1, 1, 0, 18),
		&nn.Sigmoid{LayerName: "s"},
	)
	checkEquivalence(t, m, randTensor([]int{1, 4, 4}, 9), 1e-9)
}

func TestResidualBlockEquivalence(t *testing.T) {
	m := nn.NewModel("res", []int{2, 6, 6}, nil)
	m.Add(nn.NewResidualBlock("rb", 2, 4, 2, 19))
	checkEquivalence(t, m, randTensor([]int{2, 6, 6}, 10), 1e-9)
}

func TestIdentityBlockEquivalence(t *testing.T) {
	m := nn.NewModel("idb", []int{3, 5, 5}, nil)
	m.Add(nn.NewIdentityResidualBlock("ib", 3, 20))
	checkEquivalence(t, m, randTensor([]int{3, 5, 5}, 11), 1e-9)
}

func TestDenseBlockEquivalence(t *testing.T) {
	m := nn.NewModel("dense", []int{2, 4, 4}, nil)
	m.Add(nn.NewDenseBlock("db", 2, 3, 2, 21))
	checkEquivalence(t, m, randTensor([]int{2, 4, 4}, 12), 1e-9)
}

func TestDeconvEquivalence(t *testing.T) {
	m := nn.NewModel("deconv", []int{1, 3, 3}, nil)
	m.Add(&nn.Flatten{LayerName: "noop"}) // force flat encoding path
	m2 := nn.NewModel("deconv", []int{2, 3, 3}, nil)
	m2.Add(nn.NewDeconv2D("d1", 2, 3, 2, 2, 0, 22))
	checkEquivalence(t, m2, randTensor([]int{2, 3, 3}, 13), 1e-9)
	_ = m
}

func TestAttentionEquivalence(t *testing.T) {
	m := nn.NewModel("attn", []int{1, 2, 2}, nil)
	m.Add(
		&nn.Flatten{LayerName: "fl"},
		nn.NewBasicAttention("att", 4, 23),
	)
	checkEquivalence(t, m, randTensor([]int{1, 2, 2}, 14), 1e-9)
}

func TestInstanceNormEquivalence(t *testing.T) {
	m := nn.NewModel("in", []int{2, 4, 4}, nil)
	m.Add(
		nn.NewConv2D("c1", 2, 3, 1, 1, 0, 24),
		nn.NewInstanceNorm("in1", 3),
	)
	checkEquivalence(t, m, randTensor([]int{2, 4, 4}, 15), 1e-9)
}

func TestStudentModelEquivalence(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 16, 99)
	checkEquivalence(t, m, randTensor([]int{3, 16, 16}, 16), 1e-9)
}

func TestStudentModelPredictionAgreement(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskPatternRecog, 16, 100)
	tr := newTr(t)
	sm, err := tr.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		in := randTensor([]int{3, 16, 16}, 50+seed)
		wantIdx, wantP, err := m.Predict(in)
		if err != nil {
			t.Fatal(err)
		}
		gotIdx, gotP, err := tr.Infer(sm, in)
		if err != nil {
			t.Fatal(err)
		}
		if gotIdx != wantIdx {
			t.Fatalf("seed %d: sql class %d vs native %d", seed, gotIdx, wantIdx)
		}
		if math.Abs(gotP-wantP) > 1e-9 {
			t.Fatalf("seed %d: sql prob %v vs native %v", seed, gotP, wantP)
		}
	}
}

func TestPreJoinStrategiesEquivalence(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 101)
	in := randTensor([]int{3, 8, 8}, 60)
	want, err := m.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []PreJoinStrategy{PreJoinNone, PreJoinMapping, PreJoinInput} {
		db := sqldb.New()
		tr := NewTranslator(db, "m")
		tr.PreJoin = strat
		sm, err := tr.StoreModel(m)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		got, err := tr.InferTensor(sm, in)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if !tensor.Equal(got, want.Reshape(got.Shape()...), 1e-9) {
			t.Fatalf("strategy %v diverges from native", strat)
		}
	}
}

func TestPreJoinReducesJoinSteps(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 102)
	in := randTensor([]int{3, 8, 8}, 61)
	countSteps := func(strat PreJoinStrategy, label string) int {
		db := sqldb.New()
		tr := NewTranslator(db, "m")
		tr.PreJoin = strat
		sm, err := tr.StoreModel(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := tr.Infer(sm, in); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, s := range tr.Steps {
			if len(s.Label) >= len(label) && s.Label[:len(label)] == label {
				n++
			}
		}
		return n
	}
	// Strategy 2 eliminates the Reshape (Q2) steps entirely.
	if n := countSteps(PreJoinNone, "Reshape"); n == 0 {
		t.Fatal("default strategy should have reshape steps")
	}
	if n := countSteps(PreJoinMapping, "Reshape"); n != 0 {
		t.Fatalf("pre-join mapping should remove reshape steps, still have %d", n)
	}
}

func TestStorageBytesGrowsWithDepth(t *testing.T) {
	var prev int64
	for _, depth := range []int{5, 10, 15} {
		db := sqldb.New()
		tr := NewTranslator(db, "m")
		m, err := modelrepo.NewResNet(depth, modelrepo.TaskDefectDetection, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := tr.StoreModel(m)
		if err != nil {
			t.Fatal(err)
		}
		b := sm.StorageBytes(db)
		if b <= prev {
			t.Fatalf("storage must grow with depth: %d bytes at depth %d", b, depth)
		}
		prev = b
	}
}

func TestResNet5SQLInference(t *testing.T) {
	m, err := modelrepo.NewResNet(5, modelrepo.TaskDefectDetection, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, m, randTensor([]int{3, 16, 16}, 70), 1e-8)
}

func TestUnsupportedOperatorRejected(t *testing.T) {
	m := nn.NewModel("bad", []int{4}, nil)
	m.Add(&fakeLSTM{})
	tr := newTr(t)
	if _, err := tr.StoreModel(m); err == nil {
		t.Fatal("expected ErrUnsupported")
	}
}

// fakeLSTM stands in for the operators Table II marks unsupported.
type fakeLSTM struct{}

func (f *fakeLSTM) Name() string                                      { return "lstm1" }
func (f *fakeLSTM) Kind() string                                      { return "lstm" }
func (f *fakeLSTM) Forward(in *tensor.Tensor) (*tensor.Tensor, error) { return in, nil }
func (f *fakeLSTM) OutShape(in []int) ([]int, error)                  { return in, nil }
func (f *fakeLSTM) ParamCount() int64                                 { return 0 }
func (f *fakeLSTM) FLOPs(in []int) int64                              { return 0 }

// TestSupportedOperators is the executable form of Table II.
func TestSupportedOperators(t *testing.T) {
	supported := []nn.Layer{
		&nn.MaxPool{LayerName: "p", K: 2, Stride: 2},
		&nn.AvgPool{LayerName: "p", K: 2, Stride: 2},
		&nn.ReLU{LayerName: "r"},
		&nn.Sigmoid{LayerName: "s"},
		nn.NewBatchNorm("bn", 2),
		nn.NewInstanceNorm("in", 2),
		nn.NewLinear("fc", 2, 2, 1),
		nn.NewConv2D("c", 1, 1, 3, 1, 0, 1),
		nn.NewDeconv2D("d", 1, 1, 2, 2, 0, 1),
		nn.NewResidualBlock("rb", 2, 2, 1, 1),
		nn.NewIdentityResidualBlock("ib", 2, 1),
		nn.NewDenseBlock("db", 2, 2, 2, 1),
		nn.NewBasicAttention("at", 4, 1),
		&nn.Softmax{LayerName: "sm"},
		&nn.Flatten{LayerName: "fl"},
		&nn.GlobalAvgPool{LayerName: "gap"},
	}
	for _, l := range supported {
		if !Supported(l) {
			t.Fatalf("layer %s (%s) should be supported per Table II", l.Name(), l.Kind())
		}
	}
	if Supported(&fakeLSTM{}) {
		t.Fatal("LSTM must be unsupported per Table II")
	}
}

func TestStepsRecorded(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 103)
	tr := newTr(t)
	sm, err := tr.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Infer(sm, randTensor([]int{3, 8, 8}, 80)); err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for _, s := range tr.Steps {
		labels[s.Label] = true
	}
	for _, want := range []string{"Conv1", "Conv2", "Conv3", "Reshape1", "Reshape2", "BN1", "ReLU1", "Classification"} {
		if !labels[want] {
			t.Fatalf("missing step label %s; have %v", want, labels)
		}
	}
	if tr.StepTotal() <= 0 {
		t.Fatal("step total must be positive")
	}
	n := len(tr.Steps)
	if _, _, err := tr.Infer(sm, randTensor([]int{3, 8, 8}, 81)); err != nil {
		t.Fatal(err)
	}
	if len(tr.Steps) != n {
		t.Fatalf("a second run left %d steps, want its own %d", len(tr.Steps), n)
	}
}

func TestTempTablesCleanedUp(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 104)
	tr := newTr(t)
	sm, err := tr.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	before := len(tr.DB.TableNames())
	if _, _, err := tr.Infer(sm, randTensor([]int{3, 8, 8}, 81)); err != nil {
		t.Fatal(err)
	}
	after := len(tr.DB.TableNames())
	if after != before {
		t.Fatalf("temp tables leaked: %d before, %d after", before, after)
	}
}

func TestModelTablesExist(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 105)
	tr := newTr(t)
	sm, err := tr.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(sm.TableNames()) < 7 { // meta + 3 kernels + 3 biases at minimum
		t.Fatalf("too few model tables: %v", sm.TableNames())
	}
	for _, name := range sm.TableNames() {
		if tr.DB.GetTable(name) == nil {
			t.Fatalf("missing table %s", name)
		}
	}
	// Metadata table carries conv hyper-parameters.
	res, err := tr.DB.Query("SELECT count(*) c FROM m_meta")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols[0].Get(0).I != 3 {
		t.Fatalf("meta rows = %v, want 3 convs", res.Cols[0].Get(0))
	}
}

func TestBatchNormLearnedParamsEquivalence(t *testing.T) {
	m := nn.NewModel("bnp", []int{2, 5, 5}, nil)
	bn := nn.NewBatchNorm("bn1", 3)
	rng := int64(77)
	for i := range bn.Gamma {
		bn.Gamma[i] = 0.5 + float64(i)
		bn.Beta[i] = -0.25 * float64(i+1)
		_ = rng
	}
	m.Add(nn.NewConv2D("c1", 2, 3, 3, 1, 0, 30), bn)
	checkEquivalence(t, m, randTensor([]int{2, 5, 5}, 90), 1e-9)
}

func TestBatchNormRunningStatsEquivalence(t *testing.T) {
	m := nn.NewModel("bnr", []int{1, 4, 4}, nil)
	bn := nn.NewBatchNorm("bn1", 2)
	bn.UseBatchStats = false
	for i := range bn.Gamma {
		bn.Gamma[i] = 1.5
		bn.Beta[i] = 0.1 * float64(i)
		bn.Mean[i] = 0.2 * float64(i+1)
		bn.Var[i] = 0.8 + 0.3*float64(i)
	}
	m.Add(nn.NewConv2D("c1", 1, 2, 2, 1, 0, 31), bn)
	checkEquivalence(t, m, randTensor([]int{1, 4, 4}, 91), 1e-9)
}

func TestInstanceNormLearnedParamsEquivalence(t *testing.T) {
	m := nn.NewModel("inp", []int{1, 4, 4}, nil)
	in := nn.NewInstanceNorm("in1", 2)
	in.Gamma[0], in.Gamma[1] = 2, 0.5
	in.Beta[0], in.Beta[1] = 0.3, -0.7
	m.Add(nn.NewConv2D("c1", 1, 2, 2, 1, 0, 32), in)
	checkEquivalence(t, m, randTensor([]int{1, 4, 4}, 92), 1e-9)
}
