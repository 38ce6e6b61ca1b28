package nn

import (
	"math"

	"repro/internal/tensor"
)

// BNEpsilon matches the constant the paper's Q4 adds to the denominator
// (0.00005) to avoid division by zero.
const BNEpsilon = 0.00005

// BatchNorm normalizes each channel of a CHW tensor. Two modes are
// supported:
//
//   - running-stat mode (UseBatchStats=false): the conventional frozen
//     inference form using trained Mean/Var, x̂ = γ(x-μ)/√(σ²+ε) + β.
//   - batch-stat mode (UseBatchStats=true): the form the paper's SQL
//     rewrite (Q4) actually computes — per-channel AVG and stddevSamp over
//     the current feature map, x̂ = γ(x-avg)/(stddevSamp+ε) + β. DL2SQL
//     equivalence tests run in this mode so both paths compute the same
//     arithmetic.
type BatchNorm struct {
	LayerName     string
	C             int
	Gamma, Beta   []float64
	Mean, Var     []float64
	UseBatchStats bool
}

// NewBatchNorm creates an identity-initialized batch norm (γ=1, β=0) in
// batch-stat mode, matching the paper's SQL implementation.
func NewBatchNorm(name string, c int) *BatchNorm {
	bn := &BatchNorm{
		LayerName: name, C: c,
		Gamma: make([]float64, c), Beta: make([]float64, c),
		Mean: make([]float64, c), Var: make([]float64, c),
		UseBatchStats: true,
	}
	for i := range bn.Gamma {
		bn.Gamma[i] = 1
		bn.Var[i] = 1
	}
	return bn
}

func (b *BatchNorm) Name() string { return b.LayerName }
func (b *BatchNorm) Kind() string { return KindBatchNorm }

func (b *BatchNorm) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != b.C {
		return nil, shapeErr(b.LayerName, "CHW matching channel count", in)
	}
	return in, nil
}

func (b *BatchNorm) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	if _, err := b.OutShape(in.Shape()); err != nil {
		return nil, err
	}
	out := tensor.New(in.Shape()...)
	b.normalize(out.Data(), in.Data(), in.Dim(1)*in.Dim(2))
	return out, nil
}

func (b *BatchNorm) forwardInPlace(t *tensor.Tensor) error {
	if _, err := b.OutShape(t.Shape()); err != nil {
		return err
	}
	b.normalize(t.Data(), t.Data(), t.Dim(1)*t.Dim(2))
	return nil
}

// normalize writes the normalized channels of in to out, n values per
// channel; out may be in, as each channel's statistics are read before it
// is written.
func (b *BatchNorm) normalize(out, in []float64, n int) {
	for c := 0; c < b.C; c++ {
		src := in[c*n : (c+1)*n]
		dst := out[c*n : (c+1)*n]
		var shift, scale float64
		if b.UseBatchStats {
			mean := 0.0
			for _, v := range src {
				mean += v
			}
			mean /= float64(n)
			ss := 0.0
			for _, v := range src {
				d := v - mean
				ss += d * d
			}
			std := 0.0
			if n > 1 {
				std = math.Sqrt(ss / float64(n-1)) // sample stddev = SQL stddevSamp
			}
			shift = mean
			scale = 1 / (std + BNEpsilon)
		} else {
			shift = b.Mean[c]
			scale = 1 / math.Sqrt(b.Var[c]+BNEpsilon)
		}
		g, be := b.Gamma[c], b.Beta[c]
		for i, v := range src {
			dst[i] = g*(v-shift)*scale + be
		}
	}
}

func (b *BatchNorm) ParamCount() int64 { return int64(2 * b.C) }

func (b *BatchNorm) FLOPs(in []int) int64 {
	return int64(prod(in)) * 4 // subtract, scale, gamma, beta
}

// InstanceNorm normalizes each channel independently using the current
// sample's statistics, always — it is BatchNorm's batch-stat mode without
// learned running statistics. The paper lists it as a supported
// normalization variant in Table II.
type InstanceNorm struct {
	LayerName   string
	C           int
	Gamma, Beta []float64
}

// NewInstanceNorm creates an identity-initialized instance norm.
func NewInstanceNorm(name string, c int) *InstanceNorm {
	in := &InstanceNorm{LayerName: name, C: c, Gamma: make([]float64, c), Beta: make([]float64, c)}
	for i := range in.Gamma {
		in.Gamma[i] = 1
	}
	return in
}

func (l *InstanceNorm) Name() string { return l.LayerName }
func (l *InstanceNorm) Kind() string { return KindInstanceNorm }

func (l *InstanceNorm) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != l.C {
		return nil, shapeErr(l.LayerName, "CHW matching channel count", in)
	}
	return in, nil
}

func (l *InstanceNorm) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	bn := &BatchNorm{LayerName: l.LayerName, C: l.C, Gamma: l.Gamma, Beta: l.Beta, UseBatchStats: true}
	return bn.Forward(in)
}

func (l *InstanceNorm) ParamCount() int64 { return int64(2 * l.C) }

func (l *InstanceNorm) FLOPs(in []int) int64 { return int64(prod(in)) * 4 }
