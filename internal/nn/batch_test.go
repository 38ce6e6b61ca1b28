package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

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

// TestConvLoweringBitIdentical pins Conv2D's direct lowering — patches
// written straight into the stacked operand, padding by bounds checks —
// to the reference it replaced: Pad2D → Im2Col → Transpose → MatMul, plus
// the bias. Forward and every sample of a ForwardBatch must match it bit
// for bit over kernel sizes, strides, paddings and odd and even sides.
func TestConvLoweringBitIdentical(t *testing.T) {
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				for _, side := range []int{7, 8} {
					conv := NewConv2D("c", 3, 4, k, stride, pad, int64(k*100+stride*10+pad))
					if k == 3 && side == 8 {
						conv.Bias = nil
					}
					ins := make([]*tensor.Tensor, 3)
					for i := range ins {
						ins[i] = randTensor(int64(side*10+i), 3, side, side)
					}
					batched, err := conv.ForwardBatch(ins)
					if err != nil {
						t.Fatalf("k=%d s=%d p=%d side=%d: %v", k, stride, pad, side, err)
					}
					for i, in := range ins {
						want := referenceConv(t, conv, in)
						single, err := conv.Forward(in)
						if err != nil {
							t.Fatal(err)
						}
						for name, got := range map[string]*tensor.Tensor{"Forward": single, "ForwardBatch": batched[i]} {
							if fmt.Sprint(got.Shape()) != fmt.Sprint(want.Shape()) || got.Hash() != want.Hash() {
								t.Fatalf("k=%d s=%d p=%d side=%d sample %d: %s differs from the reference lowering",
									k, stride, pad, side, i, name)
							}
						}
					}
				}
			}
		}
	}
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
