package costmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/modelrepo"
	"repro/internal/nn"
	"repro/internal/sqldb"
)

func TestOutDimsMatchEq3(t *testing.T) {
	d := ConvDims{HIn: 5, WIn: 5, NIn: 1, NOut: 2, K: 3, Stride: 2, Pad: 0}
	h, w := d.OutDims()
	if h != 2 || w != 2 {
		t.Fatalf("OutDims = %d,%d want 2,2", h, w)
	}
	d2 := ConvDims{HIn: 224, WIn: 224, NIn: 3, NOut: 64, K: 7, Stride: 2, Pad: 3}
	h2, _ := d2.OutDims()
	if h2 != 112 {
		t.Fatalf("OutDims = %d want 112", h2)
	}
}

func TestCardinalitiesPaperExample(t *testing.T) {
	// 5x5x1 input, two 3x3 kernels, stride 2: 4 output positions.
	d := ConvDims{HIn: 5, WIn: 5, NIn: 1, NOut: 2, K: 3, Stride: 2, Pad: 0}
	if d.KIn() != 9 {
		t.Fatalf("KIn = %v", d.KIn())
	}
	if d.KOut() != 18 {
		t.Fatalf("KOut = %v", d.KOut())
	}
	if d.TIn() != 36 { // 4 positions × 9 patch elements
		t.Fatalf("TIn = %v", d.TIn())
	}
	if d.JoinSelectivity() != 1.0/9.0 {
		t.Fatalf("S_J = %v", d.JoinSelectivity())
	}
	// Eq. 5 literally: T_out = 36 · (1/9) · 18 = 72 (patch-form output).
	if d.TOut() != 72 {
		t.Fatalf("TOut = %v, want 72", d.TOut())
	}
	if d.FlatOut() != 8 { // 4 positions × 2 kernels: exact element count
		t.Fatalf("FlatOut = %v, want 8", d.FlatOut())
	}
	if d.JoinCost() != 36+72*9 { // Eq. 6
		t.Fatalf("C_join = %v", d.JoinCost())
	}
	if d.TotalCost() != d.JoinCost()+72 { // Eq. 7
		t.Fatalf("C_out = %v", d.TotalCost())
	}
	// Eq. 4 on the join itself: 36 feature-map rows × 18 kernel rows × 1/9.
	if d.JoinPairs() != 72 {
		t.Fatalf("JoinPairs = %v, want 72", d.JoinPairs())
	}
}

// Property: FlatOut always equals the true conv output element count
// (H_out·W_out·N_out) — the customized model is exact by construction — and
// Eq. 5's T_out relates to it by exactly the k_out/N_out duplication factor.
func TestFlatOutExactProperty(t *testing.T) {
	f := func(seed uint8) bool {
		k := int(seed%2)*2 + 1 // 1 or 3
		s := int(seed/2%2) + 1 // 1 or 2
		nIn := int(seed/4%3) + 1
		nOut := int(seed/12%3) + 1
		in := k + s + int(seed%5) // big enough
		d := ConvDims{HIn: in, WIn: in, NIn: nIn, NOut: nOut, K: k, Stride: s, Pad: 0}
		h, w := d.OutDims()
		if math.Abs(d.FlatOut()-float64(h*w*nOut)) > 1e-9 {
			return false
		}
		return math.Abs(d.TOut()-d.FlatOut()*float64(k*k)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateModelStudent(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 32, 1)
	mc, err := EstimateModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Total <= 0 {
		t.Fatal("total cost must be positive")
	}
	if len(mc.PerLayer) != len(m.Layers) {
		t.Fatalf("per-layer entries = %d, want %d", len(mc.PerLayer), len(m.Layers))
	}
	// Convolutions must dominate the estimate (the paper's Fig. 9 finding).
	convCost, otherCost := 0.0, 0.0
	for _, lc := range mc.PerLayer {
		if lc.Kind == nn.KindConv2D {
			convCost += lc.Cost
		} else {
			otherCost += lc.Cost
		}
	}
	if convCost <= otherCost {
		t.Fatalf("conv cost %v should dominate other cost %v", convCost, otherCost)
	}
}

func TestDefaultModelOverestimates(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 32, 1)
	custom, err := EstimateModel(m)
	if err != nil {
		t.Fatal(err)
	}
	def, err := DefaultEstimateModel(m)
	if err != nil {
		t.Fatal(err)
	}
	// The default estimator must overestimate by orders of magnitude
	// (Fig. 12's log-scale gap).
	if def.Total < custom.Total*100 {
		t.Fatalf("default %v should exceed customized %v by >=100x", def.Total, custom.Total)
	}
}

func TestDefaultModelCompoundsAcrossLayers(t *testing.T) {
	// Over-estimation "exaggerated exponentially after several iterations":
	// the ratio default/custom grows with depth.
	shallow := nn.NewModel("s", []int{3, 16, 16}, nil)
	shallow.Add(nn.NewConv2D("c1", 3, 8, 3, 1, 1, 1))
	deep := nn.NewModel("d", []int{3, 16, 16}, nil)
	deep.Add(
		nn.NewConv2D("c1", 3, 8, 3, 1, 1, 1),
		nn.NewConv2D("c2", 8, 8, 3, 1, 1, 2),
		nn.NewConv2D("c3", 8, 8, 3, 1, 1, 3),
	)
	ratio := func(m *nn.Model) float64 {
		c, _ := EstimateModel(m)
		d, _ := DefaultEstimateModel(m)
		return d.Total / c.Total
	}
	if ratio(deep) <= ratio(shallow)*10 {
		t.Fatalf("over-estimation should compound: shallow ratio %v, deep ratio %v", ratio(shallow), ratio(deep))
	}
}

func TestNextTIn(t *testing.T) {
	d := ConvDims{HIn: 8, WIn: 8, NIn: 2, NOut: 4, K: 3, Stride: 1, Pad: 1}
	// Output is 4x8x8; the next 3x3 stride-1 pad-1 conv over it has
	// T'_in = 8*8 * (3*3*4) = 2304.
	if got := d.NextTIn(3, 1, 1); got != 2304 {
		t.Fatalf("NextTIn = %v, want 2304", got)
	}
}

func TestNormalizationRatio(t *testing.T) {
	db := sqldb.New()
	r, err := NormalizationRatio(db)
	if err != nil {
		t.Fatal(err)
	}
	if r <= 0 || r > 1e-3 {
		t.Fatalf("ratio %v out of plausible range", r)
	}
	if ToSeconds(1000, r) != 1000*r {
		t.Fatal("ToSeconds is a simple scale")
	}
	// The calibration table must not leak.
	if db.GetTable("costmodel_calib") != nil {
		t.Fatal("calibration table leaked")
	}
}

func TestCalibrate(t *testing.T) {
	db := sqldb.New()
	u, err := Calibrate(db)
	if err != nil {
		t.Fatal(err)
	}
	if u.Scan <= 0 || u.Scan > 1e-3 || u.Pair <= 0 || u.Pair > 1e-3 {
		t.Fatalf("ratios %+v out of plausible range", u)
	}
	if got, want := u.Seconds(10, 1000), 10*u.Scan+1000*u.Pair; got != want {
		t.Fatalf("Seconds = %v, want %v", got, want)
	}
	for _, name := range []string{"costmodel_calib", "costmodel_calib_fm", "costmodel_calib_k"} {
		if db.GetTable(name) != nil {
			t.Fatalf("calibration table %s leaked", name)
		}
	}
}

// The scanned rows and join pairs that Seconds prices partition each conv
// layer's row operations: the feature-map and output scans of Eqs. 6–7 and
// one pair per (patch element, kernel) match.
func TestEstimateModelCountsScansAndPairs(t *testing.T) {
	m := nn.NewModel("pairs", []int{3, 16, 16}, nil)
	m.Add(
		nn.NewConv2D("c1", 3, 8, 3, 1, 1, 1),
		&nn.ReLU{LayerName: "relu"},
		nn.NewConv2D("c2", 8, 4, 5, 1, 2, 2),
	)
	mc, err := EstimateModel(m)
	if err != nil {
		t.Fatal(err)
	}
	c1 := ConvDims{HIn: 16, WIn: 16, NIn: 3, NOut: 8, K: 3, Stride: 1, Pad: 1}
	c2 := ConvDims{HIn: 16, WIn: 16, NIn: 8, NOut: 4, K: 5, Stride: 1, Pad: 2}
	if want := float64(16*16*27*8 + 16*16*200*4); mc.Pairs != want {
		t.Fatalf("pairs = %v, want %v", mc.Pairs, want)
	}
	if want := c1.TIn() + c1.TOut() + 16*16*8 + c2.TIn() + c2.TOut(); mc.Scan != want {
		t.Fatalf("scan = %v, want %v", mc.Scan, want)
	}
	if want := c1.TotalCost() + 16*16*8 + c2.TotalCost(); mc.Total != want {
		t.Fatalf("total = %v, want %v", mc.Total, want)
	}
	u := Ratios{Scan: 2, Pair: 3}
	if got := mc.Seconds(u); got != 2*mc.Scan+3*mc.Pairs {
		t.Fatalf("Seconds = %v", got)
	}
}

func TestEstimateModelResNet(t *testing.T) {
	m, err := modelrepo.NewResNet(10, modelrepo.TaskDefectDetection, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := EstimateModel(m)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := modelrepo.NewResNet(20, modelrepo.TaskDefectDetection, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	mc2, err := EstimateModel(m2)
	if err != nil {
		t.Fatal(err)
	}
	if mc2.Total <= mc.Total {
		t.Fatalf("deeper model must cost more: %v vs %v", mc2.Total, mc.Total)
	}
}
