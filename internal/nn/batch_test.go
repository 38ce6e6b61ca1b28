package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
	"repro/internal/tensor"
)

// batchFixture is a conv→pool→linear chain exercising both batched
// kernels plus per-sample-only layers in between.
func batchFixture() *Model {
	m := NewModel("batchy", []int{1, 8, 8}, []string{"a", "b", "c"})
	m.Add(
		NewConv2D("c1", 1, 4, 3, 1, 1, 7),
		&ReLU{LayerName: "r1"},
		&MaxPool{LayerName: "p1", K: 2, Stride: 2},
		NewConv2D("c2", 4, 8, 3, 1, 0, 8),
		&ReLU{LayerName: "r2"},
		&Flatten{LayerName: "f"},
		NewLinear("fc", 8*2*2, 3, 9),
		&Softmax{LayerName: "sm"},
	)
	return m
}

func randInputs(n int, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	ins := make([]*tensor.Tensor, n)
	for i := range ins {
		in := tensor.New(1, 8, 8)
		d := in.Data()
		for j := range d {
			d[j] = rng.NormFloat64()
		}
		ins[i] = in
	}
	return ins
}

// TestForwardBatchBitIdentical is the kernel-level determinism contract:
// ForwardBatch over N inputs must produce bit-for-bit the outputs of N
// independent Forward calls — same operands, same accumulation order,
// just a wider MatMul.
func TestForwardBatchBitIdentical(t *testing.T) {
	m := batchFixture()
	for _, n := range []int{1, 2, 3, 7, 16} {
		ins := randInputs(n, int64(100+n))
		batched, err := m.ForwardBatch(ins)
		if err != nil {
			t.Fatalf("n=%d: ForwardBatch: %v", n, err)
		}
		if len(batched) != n {
			t.Fatalf("n=%d: got %d outputs", n, len(batched))
		}
		for i, in := range ins {
			single, err := m.Forward(in)
			if err != nil {
				t.Fatalf("n=%d sample %d: Forward: %v", n, i, err)
			}
			bd, sd := batched[i].Data(), single.Data()
			if len(bd) != len(sd) {
				t.Fatalf("n=%d sample %d: output sizes %d vs %d", n, i, len(bd), len(sd))
			}
			for j := range bd {
				if math.Float64bits(bd[j]) != math.Float64bits(sd[j]) {
					t.Fatalf("n=%d sample %d elem %d: batched %v != single %v (bit mismatch)",
						n, i, j, bd[j], sd[j])
				}
			}
		}
	}
}

// TestPredictBatchMatchesPredict pins the argmax layer on top.
func TestPredictBatchMatchesPredict(t *testing.T) {
	m := batchFixture()
	ins := randInputs(9, 42)
	idxs, err := m.PredictBatch(ins)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range ins {
		want, _, err := m.Predict(in)
		if err != nil {
			t.Fatal(err)
		}
		if idxs[i] != want {
			t.Fatalf("sample %d: PredictBatch=%d Predict=%d", i, idxs[i], want)
		}
	}
}

// TestPredictBatchEmpty: a zero-length batch is a no-op, not a panic.
func TestPredictBatchEmpty(t *testing.T) {
	m := batchFixture()
	idxs, err := m.PredictBatch(nil)
	if err != nil || idxs != nil {
		t.Fatalf("empty batch: %v %v", idxs, err)
	}
}

// TestForwardBatchMixedShapes: shape-heterogeneous batches fall back to
// the per-sample loop rather than mis-stacking.
func TestForwardBatchMixedShapes(t *testing.T) {
	m := NewModel("flex", []int{4}, nil)
	m.Add(&ReLU{LayerName: "r"})
	ins := []*tensor.Tensor{tensor.New(4).Fill(-1), tensor.New(2, 2).Fill(2)}
	outs, err := m.ForwardBatch(ins)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Data()[0] != 0 || outs[1].Data()[0] != 2 {
		t.Fatalf("mixed-shape batch mis-applied: %v %v", outs[0].Data(), outs[1].Data())
	}
}

// TestConvLoweringBitIdentical pins Conv2D's sparse-patch kernel — patch
// rows gathered as nonzero (column, value) pairs from a zero-bordered copy
// of the stack, dot products written straight into CHW outputs — to the
// explicit lowering Pad2D → Im2Col → Transpose → MatMul, plus the bias.
// Forward and every sample of a ForwardBatch must match it bit for bit.
// The first sweep covers kernel sizes, strides, paddings, odd and even
// sides and inputs taller than wide and wider than tall (with and without
// bias, so that a padded plane laid out with the wrong side fails) on
// dense inputs; the second covers the inputs the kernel skips work on
// (ReLU'd normals, an all-zero channel plane, -0 entries) over channel
// counts below, at and past one 16-channel block, spanning several blocks
// and ending in a partial one, batches of 1, 3 and 16, serial and
// parallel.
func TestConvLoweringBitIdentical(t *testing.T) {
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				for _, hw := range [][2]int{{7, 7}, {8, 8}, {7, 10}, {10, 7}} {
					h, w := hw[0], hw[1]
					conv := NewConv2D("c", 3, 4, k, stride, pad, int64(k*100+stride*10+pad))
					if k == 3 && h == 8 {
						conv.Bias = nil
					}
					ins := make([]*tensor.Tensor, 3)
					for i := range ins {
						ins[i] = randTensor(int64(h*100+w*10+i), 3, h, w)
					}
					label := fmt.Sprintf("k=%d s=%d p=%d %dx%d", k, stride, pad, h, w)
					checkConvLowering(t, label, conv, ins)
					if h != w {
						conv.Bias = nil
						checkConvLowering(t, label+" no bias", conv, ins)
					}
				}
			}
		}
	}
	defer par.SetDefaultDegree(par.DefaultDegree())
	for _, inC := range []int{1, 3, 16} {
		for _, outC := range []int{1, 5, 7, 16, 17, 33, 64} {
			conv := NewConv2D("c", inC, outC, 3, 1+outC%2, 1, int64(inC*100+outC))
			if outC == 7 {
				conv.Bias = nil // an all-zero patch must then give +0
			}
			for _, kind := range []string{"relu", "zero-plane", "neg-zero"} {
				ins := make([]*tensor.Tensor, 16)
				for i := range ins {
					ins[i] = sparseTensor(kind, int64(inC*1000+outC*10+i), inC, 8, 8)
				}
				for _, n := range []int{1, 3, 16} {
					for _, deg := range []int{1, max(2, par.DefaultDegree())} {
						par.SetDefaultDegree(deg)
						checkConvLowering(t, fmt.Sprintf("inC=%d outC=%d %s n=%d deg=%d", inC, outC, kind, n, deg), conv, ins[:n])
					}
				}
			}
		}
	}
}

// checkConvLowering fails t unless Forward and ForwardBatch give every
// input exactly referenceConv's bits.
func checkConvLowering(t *testing.T, label string, conv *Conv2D, ins []*tensor.Tensor) {
	t.Helper()
	batched, err := conv.ForwardBatch(ins)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i, in := range ins {
		want := referenceConv(t, conv, in)
		single, err := conv.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*tensor.Tensor{"Forward": single, "ForwardBatch": batched[i]} {
			if fmt.Sprint(got.Shape()) != fmt.Sprint(want.Shape()) || got.Hash() != want.Hash() {
				t.Fatalf("%s sample %d: %s differs from the reference lowering", label, i, name)
			}
		}
	}
}

// sparseTensor returns a CHW tensor of normals shaped like a ReLU's
// output: "relu" clamps the negatives to +0, "zero-plane" also zeroes the
// whole first channel, and "neg-zero" turns the negatives into -0.
func sparseTensor(kind string, seed int64, shape ...int) *tensor.Tensor {
	x := randTensor(seed, shape...)
	d := x.Data()
	for i, v := range d {
		if v < 0 {
			d[i] = 0
			if kind == "neg-zero" {
				d[i] = math.Copysign(0, -1)
			}
		}
	}
	if kind == "zero-plane" {
		clear(d[:x.Dim(1)*x.Dim(2)])
	}
	return x
}

// referenceConv is the explicit lowering: pad, one patch row per output
// pixel, transpose, multiply, add the bias.
func referenceConv(t *testing.T, c *Conv2D, in *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	padded, err := tensor.Pad2D(in, c.Pad)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := tensor.Im2Col(padded, c.K, c.Stride, 0)
	if err != nil {
		t.Fatal(err)
	}
	colsT, err := tensor.Transpose(cols)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tensor.MatMul(c.Weight, colsT)
	if err != nil {
		t.Fatal(err)
	}
	ohw := cols.Dim(0)
	if c.Bias != nil {
		d := res.Data()
		for ch := 0; ch < c.OutC; ch++ {
			row := d[ch*ohw : (ch+1)*ohw]
			for i := range row {
				row[i] += c.Bias[ch]
			}
		}
	}
	out, err := c.OutShape(in.Shape())
	if err != nil {
		t.Fatal(err)
	}
	return res.Reshape(out...)
}

func randTensor(seed int64, shape ...int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(shape...)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	return x
}

// TestForwardBatchLeavesInputsUnchanged: BatchNorm and ReLU overwrite only
// tensors the chain allocated. Placed first, or after a Flatten whose
// output is a view of the input, they must leave the caller's tensors
// bit-for-bit as they were, and every output must still equal Forward's.
func TestForwardBatchLeavesInputsUnchanged(t *testing.T) {
	models := []*Model{
		NewModel("bn-first", []int{2, 6, 6}, nil).Add(
			NewBatchNorm("bn0", 2),
			&ReLU{LayerName: "r0"},
			NewConv2D("c1", 2, 4, 3, 1, 1, 3),
			NewBatchNorm("bn1", 4),
			&ReLU{LayerName: "r1"},
			&Flatten{LayerName: "f"},
			&ReLU{LayerName: "r2"},
			NewLinear("fc", 4*6*6, 3, 4),
		),
		NewModel("flatten-first", []int{2, 6, 6}, nil).Add(
			&Flatten{LayerName: "f"},
			&ReLU{LayerName: "r"},
			NewLinear("fc", 2*6*6, 3, 5),
		),
	}
	for _, m := range models {
		for _, n := range []int{1, 5} {
			ins := make([]*tensor.Tensor, n)
			before := make([]uint64, n)
			for i := range ins {
				ins[i] = randTensor(int64(7*n+i), 2, 6, 6)
				before[i] = ins[i].Hash()
			}
			outs, err := m.ForwardBatch(ins)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.PredictBatch(ins); err != nil {
				t.Fatal(err)
			}
			for i, in := range ins {
				if in.Hash() != before[i] {
					t.Fatalf("%s n=%d: input %d modified by ForwardBatch", m.ModelName, n, i)
				}
				want, err := m.Forward(in)
				if err != nil {
					t.Fatal(err)
				}
				if outs[i].Hash() != want.Hash() {
					t.Fatalf("%s n=%d: output %d differs from Forward", m.ModelName, n, i)
				}
			}
		}
	}
}

// TestForwardBatchNonFinite extends the determinism contract to non-finite
// arithmetic: a zero weight meeting a ±Inf or NaN input, and an infinite
// weight meeting zero inputs (and, in a convolution, padding), make NaN,
// and ForwardBatch must give exactly Forward's bits, NaNs included. The
// convolution is also held to a direct sum over its window that keeps every
// term, since its Forward is a ForwardBatch of one.
func TestForwardBatchNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()

	zeroW := NewLinear("fc0", 6, 4, 11)
	zeroW.Weight.Data()[2] = 0 // row 0 reads input 2 with weight 0
	infW := NewLinear("fcinf", 6, 4, 12)
	infW.Weight.Data()[6+3] = inf // row 1 reads input 3 with weight Inf
	linIns := func(vals ...float64) []*tensor.Tensor {
		ins := make([]*tensor.Tensor, len(vals))
		for i, v := range vals {
			ins[i] = randTensor(int64(40+i), 6)
			ins[i].Data()[2], ins[i].Data()[3] = v, 0
		}
		return ins
	}
	checkNonFinite(t, "linear zero weight", zeroW, linIns(inf, -inf, nan, 1), nil)
	checkNonFinite(t, "linear inf weight", infW, linIns(1, 2), nil)

	conv := NewConv2D("c0", 2, 5, 3, 1, 1, 13)
	conv.Weight.Data()[conv.Weight.Dim(1)+4] = 0 // channel 1, input channel 0, window centre
	ins := []*tensor.Tensor{
		sparseTensor("relu", 50, 2, 5, 5), sparseTensor("relu", 51, 2, 5, 5),
		sparseTensor("relu", 52, 2, 5, 5), sparseTensor("neg-zero", 53, 2, 5, 5),
	}
	ins[0].Data()[6], ins[1].Data()[12], ins[2].Data()[18] = inf, -inf, nan
	checkNonFinite(t, "conv zero weight", conv, ins, func(in *tensor.Tensor) *tensor.Tensor { return direct(conv, in) })

	convInf := NewConv2D("cinf", 2, 5, 3, 1, 1, 14)
	convInf.Weight.Data()[2*convInf.Weight.Dim(1)+9] = inf // channel 2, input channel 1, top-left
	zeros := []*tensor.Tensor{sparseTensor("zero-plane", 54, 2, 5, 5), sparseTensor("neg-zero", 55, 2, 5, 5), tensor.New(2, 5, 5)}
	checkNonFinite(t, "conv inf weight", convInf, zeros, func(in *tensor.Tensor) *tensor.Tensor { return direct(convInf, in) })
}

// checkNonFinite fails t unless ForwardBatch gives each input Forward's
// bits, the outputs hold a NaN (so the case is not vacuous), and, when ref
// is set, ref's bits too.
func checkNonFinite(t *testing.T, label string, l BatchLayer, ins []*tensor.Tensor, ref func(*tensor.Tensor) *tensor.Tensor) {
	t.Helper()
	batched, err := l.ForwardBatch(ins)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sawNaN := false
	for i, in := range ins {
		single, err := l.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		wants := []*tensor.Tensor{single}
		if ref != nil {
			wants = append(wants, ref(in))
		}
		got := batched[i].Data()
		for _, want := range wants {
			for j, w := range want.Data() {
				if math.Float64bits(got[j]) != math.Float64bits(w) {
					t.Fatalf("%s sample %d elem %d: ForwardBatch %v (%#x), want %v (%#x)",
						label, i, j, got[j], math.Float64bits(got[j]), w, math.Float64bits(w))
				}
			}
		}
		for _, v := range got {
			sawNaN = sawNaN || math.IsNaN(v)
		}
	}
	if !sawNaN {
		t.Fatalf("%s: no output is NaN", label)
	}
}

// direct is the textbook convolution: every output element sums all
// weight·input terms of its window in (channel, ky, kx) order from +0,
// padding read as +0, then adds the bias.
func direct(c *Conv2D, in *tensor.Tensor) *tensor.Tensor {
	h, w := in.Dim(1), in.Dim(2)
	oh := tensor.ConvOutDim(h, c.K, c.Stride, c.Pad)
	ow := tensor.ConvOutDim(w, c.K, c.Stride, c.Pad)
	out := tensor.New(c.OutC, oh, ow)
	for oc := 0; oc < c.OutC; oc++ {
		row := c.KernelRow(oc)
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				s := 0.0
				for ch := 0; ch < c.InC; ch++ {
					for ky := 0; ky < c.K; ky++ {
						for kx := 0; kx < c.K; kx++ {
							iy, ix := oy*c.Stride+ky-c.Pad, ox*c.Stride+kx-c.Pad
							x := 0.0
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								x = in.At(ch, iy, ix)
							}
							s += row[(ch*c.K+ky)*c.K+kx] * x
						}
					}
				}
				if c.Bias != nil {
					s += c.Bias[oc]
				}
				out.Set(s, oc, oy, ox)
			}
		}
	}
	return out
}

// TestReLUBits pins ReLU's output bits, through Forward and through the
// in-place path ForwardBatch takes on tensors the chain allocated: -3,
// -Inf and the smallest negative subnormal become +0; -0 stays -0; NaNs of
// either sign keep their sign and payload; +Inf and positive values are
// unchanged. A Conv2D → ReLU model runs the in-place path end to end on
// the values a 1×1 identity convolution reproduces exactly (every one but
// -0, which its sum from +0 turns into +0).
func TestReLUBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	posNaN := math.Float64frombits(0x7ff8_0000_0000_1234)
	negNaN := math.Float64frombits(0xfff8_0000_00ab_cdef)
	cases := []struct{ in, want float64 }{
		{-3, 0},
		{math.Inf(-1), 0},
		{-math.SmallestNonzeroFloat64, 0},
		{negZero, negZero},
		{0, 0},
		{posNaN, posNaN},
		{negNaN, negNaN},
		{math.Inf(1), math.Inf(1)},
		{math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64},
		{2.5, 2.5},
	}
	in := tensor.New(1, 1, len(cases))
	for i, c := range cases {
		in.Data()[i] = c.in
	}
	check := func(path string, got *tensor.Tensor, skipNegZero bool) {
		t.Helper()
		for i, c := range cases {
			if skipNegZero && math.Float64bits(c.in) == math.Float64bits(negZero) {
				continue
			}
			if g := got.Data()[i]; math.Float64bits(g) != math.Float64bits(c.want) {
				t.Fatalf("%s: relu(%v) = %v (%#x), want %v (%#x)",
					path, c.in, g, math.Float64bits(g), c.want, math.Float64bits(c.want))
			}
		}
	}
	r := &ReLU{LayerName: "r"}
	out, err := r.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	check("Forward", out, false)
	owned := in.Clone()
	outs, err := forwardBatchLayer(r, []*tensor.Tensor{owned}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !sharesData(outs[0], owned) {
		t.Fatal("an owned tensor did not take the in-place path")
	}
	check("in place", outs[0], false)

	conv := NewConv2D("id", 1, 1, 1, 1, 0, 1)
	conv.Weight.Data()[0], conv.Bias = 1, nil
	m := NewModel("conv-relu", []int{1, 1, len(cases)}, nil).Add(conv, r)
	batched, err := m.ForwardBatch([]*tensor.Tensor{in, in.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range batched {
		check("Conv2D → ReLU ForwardBatch", got, true)
	}
}
