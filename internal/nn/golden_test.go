package nn_test

import (
	"math/rand"
	"testing"

	"repro/internal/modelrepo"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestStudentForwardGoldenBits pins every output bit of ForwardBatch on the
// two models the native strategies serve: the side-16 student and
// ResNet-5. Fixed seeded inputs run at stacks of 1, 3 and 16, and each
// output's Hash (shape and exact float64 bits) folds into one digest per
// model. The constants were recorded before the sparse-patch convolution
// kernel replaced the stacked-operand MatMul lowering, so a kernel change
// that moves any bit of any output fails here.
func TestStudentForwardGoldenBits(t *testing.T) {
	resnet, err := modelrepo.NewResNet(5, modelrepo.TaskPatternRecog, 16, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		model *nn.Model
		want  uint64
	}{
		{"student16", modelrepo.NewStudentModel(modelrepo.TaskPatternRecog, 16, 99), 0x91185adce51a8f14},
		{"resnet5", resnet, 0x4b8f67339d979e6e},
	} {
		ins := pixelInputs(16, 16, 7)
		var h uint64
		for _, n := range []int{1, 3, 16} {
			outs, err := tc.model.ForwardBatch(ins[:n])
			if err != nil {
				t.Fatalf("%s n=%d: %v", tc.name, n, err)
			}
			for _, out := range outs {
				h = tensor.HashMix(h, out.Hash())
			}
		}
		if h != tc.want {
			t.Errorf("%s: output digest %#x, want %#x", tc.name, h, tc.want)
		}
	}
}

// pixelInputs returns n seeded 3×side×side keyframes with pixels in [0, 1).
func pixelInputs(n, side int, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	ins := make([]*tensor.Tensor, n)
	for i := range ins {
		ins[i] = tensor.New(3, side, side)
		for j := range ins[i].Data() {
			ins[i].Data()[j] = rng.Float64()
		}
	}
	return ins
}
