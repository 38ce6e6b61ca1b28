package nn_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/modelrepo"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// BenchmarkPredictBatch compares one Predict call per sample with
// PredictBatch at several batch sizes on the side-16 student model, the
// model and input size of the benchmark's native workloads. Each reports
// microseconds and allocated bytes per sample.
func BenchmarkPredictBatch(b *testing.B) {
	m := modelrepo.NewStudentModel(modelrepo.TaskPatternRecog, 16, 99)
	rng := rand.New(rand.NewSource(1))
	ins := make([]*tensor.Tensor, 64)
	for i := range ins {
		ins[i] = tensor.New(3, 16, 16)
		for j := range ins[i].Data() {
			ins[i].Data()[j] = rng.Float64()
		}
	}
	perSample := func(b *testing.B, batch int, run func(batch []*tensor.Tensor) error) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		allocs := ms.TotalAlloc
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := run(ins[:batch]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		samples := float64(b.N * batch)
		b.ReportMetric(float64(b.Elapsed().Microseconds())/samples, "us/sample")
		b.ReportMetric(float64(ms.TotalAlloc-allocs)/samples, "B/sample")
	}
	b.Run("Predict", func(b *testing.B) {
		perSample(b, 16, func(batch []*tensor.Tensor) error {
			for _, in := range batch {
				if _, _, err := m.Predict(in); err != nil {
					return err
				}
			}
			return nil
		})
	})
	for _, n := range []int{1, 8, 16, 64} {
		b.Run(fmt.Sprintf("PredictBatch/%d", n), func(b *testing.B) {
			perSample(b, n, func(batch []*tensor.Tensor) error {
				_, err := m.PredictBatch(batch)
				return err
			})
		})
	}
}

// BenchmarkConv2DForwardBatch runs each conv layer of the side-16 student
// alone, at stacks of 1 and 16, on the activations it sees inside the
// model: pixels in [0, 1) for conv1, and for conv2 and conv3 the output of
// batch-statistics BatchNorm followed by ReLU, about half of it exact
// zeros. It adds ResNet-5's one 3×3 stride-1 conv (rb1_conv2, 128 → 128
// channels on 4×4 activations at input side 32), where each input value
// lies in up to nine windows. It reports ns, bytes and allocations per
// ForwardBatch call.
func BenchmarkConv2DForwardBatch(b *testing.B) {
	m := modelrepo.NewStudentModel(modelrepo.TaskPatternRecog, 16, 99)
	cur := pixelInputs(16, 16, 1)
	for _, l := range m.Layers {
		if conv, ok := l.(*nn.Conv2D); ok {
			benchConvStacks(b, conv.Name(), conv, cur)
		}
		cur = forwardEach(b, l, cur)
	}
	resnet, err := modelrepo.NewResNet(5, modelrepo.TaskPatternRecog, 32, 99)
	if err != nil {
		b.Fatal(err)
	}
	cur = pixelInputs(16, 32, 1)
	for _, l := range resnet.Layers {
		rb, ok := l.(*nn.ResidualBlock)
		if !ok {
			cur = forwardEach(b, l, cur)
			continue
		}
		for _, ml := range rb.Main {
			if conv, ok := ml.(*nn.Conv2D); ok && conv.Stride == 1 {
				benchConvStacks(b, "resnet5_"+conv.Name(), conv, cur)
				return
			}
			cur = forwardEach(b, ml, cur)
		}
	}
	b.Fatal("ResNet-5 has no stride-1 conv")
}

// benchConvStacks runs conv.ForwardBatch over the first 1 and the first
// 16 of ins as sub-benchmarks name/1 and name/16.
func benchConvStacks(b *testing.B, name string, conv *nn.Conv2D, ins []*tensor.Tensor) {
	for _, n := range []int{1, 16} {
		b.Run(fmt.Sprintf("%s/%d", name, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := conv.ForwardBatch(ins[:n]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// forwardEach applies l to each input on its own.
func forwardEach(b *testing.B, l nn.Layer, ins []*tensor.Tensor) []*tensor.Tensor {
	outs := make([]*tensor.Tensor, len(ins))
	for i, in := range ins {
		out, err := l.Forward(in)
		if err != nil {
			b.Fatal(err)
		}
		outs[i] = out
	}
	return outs
}
