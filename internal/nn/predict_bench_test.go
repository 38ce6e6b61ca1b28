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
// zeros. It reports ns, bytes and allocations per ForwardBatch call.
func BenchmarkConv2DForwardBatch(b *testing.B) {
	m := modelrepo.NewStudentModel(modelrepo.TaskPatternRecog, 16, 99)
	cur := pixelInputs(16, 16, 1)
	for _, l := range m.Layers {
		if conv, ok := l.(*nn.Conv2D); ok {
			for _, n := range []int{1, 16} {
				b.Run(fmt.Sprintf("%s/%d", conv.Name(), n), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := conv.ForwardBatch(cur[:n]); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
		next := make([]*tensor.Tensor, len(cur))
		for i, in := range cur {
			out, err := l.Forward(in)
			if err != nil {
				b.Fatal(err)
			}
			next[i] = out
		}
		cur = next
	}
}
