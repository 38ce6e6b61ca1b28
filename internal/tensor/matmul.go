package tensor

import (
	"fmt"

	"repro/internal/par"
)

// ParFlopThreshold is the approximate multiply-add count below which
// MatMul, MatVec and nn's convolution kernel stay serial: small products
// (the per-row inference calls of tiny models) would lose more to goroutine
// fan-out than they gain. Above it, morsels hold about this much work.
const ParFlopThreshold = 1 << 17

// MatMul multiplies two rank-2 tensors: (m×k) · (k×n) → (m×n). Large
// multiplies fan the output rows across the shared worker pool; every
// output row is computed wholly by one worker, so the parallel product is
// bit-identical to the serial one. The inner loop is unrolled 4-wide over
// an output row with the B row re-sliced to its length, so it compiles
// without bounds checks and its speed does not hinge on where the linker
// places it; each output element still gets its multiply-adds in k order.
// Zero entries of A are multiplied like any other, so 0·Inf and 0·NaN give
// NaN, as in MatVec.
func MatMul(a, b *Tensor) (*Tensor, error) {
	if a.Dims() != 2 || b.Dims() != 2 {
		return nil, fmt.Errorf("%w: MatMul needs rank-2 tensors, got %v and %v", ErrShape, a.shape, b.shape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("%w: inner dimensions %d and %d differ", ErrShape, k, k2)
	}
	out := New(m, n)
	degree := 1
	if m*k*n >= ParFlopThreshold {
		degree = par.DefaultDegree()
	}
	rowsPerMorsel := ParFlopThreshold / (k*n + 1)
	if rowsPerMorsel < 1 {
		rowsPerMorsel = 1
	}
	par.Run(degree, m, rowsPerMorsel, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.data[i*k : (i+1)*k]
			orow := out.data[i*n : (i+1)*n]
			// ikj order keeps the inner loop streaming over contiguous memory.
			for kk := 0; kk < k; kk++ {
				av := arow[kk]
				brow := b.data[kk*n : (kk+1)*n]
				brow = brow[:len(orow)]
				j := 0
				for ; j+4 <= len(orow); j += 4 {
					o, bb := orow[j:j+4:j+4], brow[j:j+4:j+4]
					o[0] += av * bb[0]
					o[1] += av * bb[1]
					o[2] += av * bb[2]
					o[3] += av * bb[3]
				}
				for ; j < len(orow); j++ {
					orow[j] += av * brow[j]
				}
			}
		}
	})
	return out, nil
}

// MatVec multiplies a rank-2 tensor (m×k) by a length-k vector, producing a
// length-m vector. Rows (a linear layer's output channels) fan across the
// worker pool above the FLOP threshold; each output element is one worker's
// dot product, so results are bit-identical to serial execution.
func MatVec(a *Tensor, x []float64) ([]float64, error) {
	if a.Dims() != 2 {
		return nil, fmt.Errorf("%w: MatVec needs a rank-2 tensor, got %v", ErrShape, a.shape)
	}
	m, k := a.shape[0], a.shape[1]
	if len(x) != k {
		return nil, fmt.Errorf("%w: vector length %d does not match %d columns", ErrShape, len(x), k)
	}
	out := make([]float64, m)
	degree := 1
	if m*k >= ParFlopThreshold {
		degree = par.DefaultDegree()
	}
	rowsPerMorsel := ParFlopThreshold / (k + 1)
	if rowsPerMorsel < 1 {
		rowsPerMorsel = 1
	}
	par.Run(degree, m, rowsPerMorsel, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := a.data[i*k : (i+1)*k]
			s := 0.0
			for j, v := range row {
				s += v * x[j]
			}
			out[i] = s
		}
	})
	return out, nil
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(a *Tensor) (*Tensor, error) {
	if a.Dims() != 2 {
		return nil, fmt.Errorf("%w: Transpose needs a rank-2 tensor, got %v", ErrShape, a.shape)
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out, nil
}
