package nn_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/modelrepo"
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
