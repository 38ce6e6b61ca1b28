package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/par"
)

// naiveMatMul is the reference triple loop: each output element sums all
// its products in k order.
func naiveMatMul(a, b *Tensor) []float64 {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += a.data[i*k+kk] * b.data[kk*n+j]
			}
			out[i*n+j] = s
		}
	}
	return out
}

func filledTensor(seed uint64, shape ...int) *Tensor {
	t := New(shape...)
	s := seed
	for i := range t.data {
		s = s*6364136223846793005 + 1442695040888963407
		if s>>60 == 0 {
			continue // leave some zeros
		}
		t.data[i] = float64(int64(s>>11))/float64(1<<52) - 1
	}
	return t
}

// TestMatMulBitsMatchNaive pins that the unrolled kernel gives every output
// element exactly the naive loop's bits, for row lengths around the unroll
// width, serial and parallel.
func TestMatMulBitsMatchNaive(t *testing.T) {
	defer par.SetDefaultDegree(par.DefaultDegree())
	for _, n := range []int{1, 3, 4, 5, 17} {
		for _, deg := range []int{1, 4} {
			m, k := 3, 5
			if deg > 1 {
				k = 64
				m = ParFlopThreshold/(k*n) + 1 // large enough to fan out
			}
			t.Run(fmt.Sprintf("n%d/deg%d", n, deg), func(t *testing.T) {
				par.SetDefaultDegree(deg)
				a, b := filledTensor(uint64(n), m, k), filledTensor(uint64(n)+100, k, n)
				got, err := MatMul(a, b)
				if err != nil {
					t.Fatal(err)
				}
				for i, w := range naiveMatMul(a, b) {
					if math.Float64bits(got.data[i]) != math.Float64bits(w) {
						t.Fatalf("element %d = %v, naive %v", i, got.data[i], w)
					}
				}
			})
		}
	}
}

// BenchmarkMatMul multiplies at the first conv layer's shape of the side-16
// student model: 16 kernels of 3×3×3 over 8×8 output positions.
func BenchmarkMatMul(b *testing.B) {
	w, cols := filledTensor(1, 16, 27), filledTensor(2, 27, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(w, cols); err != nil {
			b.Fatal(err)
		}
	}
}
