package nn

import (
	"math"

	"repro/internal/tensor"
)

// ReLU is max(0, x), the activation the paper rewrites as
// "UPDATE ... SET Value = 0 WHERE Value < 0".
type ReLU struct{ LayerName string }

func (r *ReLU) Name() string { return r.LayerName }
func (r *ReLU) Kind() string { return KindReLU }

func (r *ReLU) OutShape(in []int) ([]int, error) { return in, nil }

func (r *ReLU) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	out := in.Clone()
	return out, r.forwardInPlace(out)
}

// forwardInPlace selects between the bits of v and those of +0, so the
// compiler emits a conditional move rather than a branch that ReLU's
// random signs would mispredict. Only v < 0 selects +0: -0 and NaNs of
// either sign keep their bits, which max(v, 0) would not do for -0.
func (r *ReLU) forwardInPlace(t *tensor.Tensor) error {
	d := t.Data()
	for i, v := range d {
		b := math.Float64bits(v)
		if v < 0 {
			b = 0
		}
		d[i] = math.Float64frombits(b)
	}
	return nil
}

func (r *ReLU) ParamCount() int64    { return 0 }
func (r *ReLU) FLOPs(in []int) int64 { return int64(prod(in)) }

// Sigmoid is 1/(1+e^-x), listed alongside ReLU in Table II's activation row.
type Sigmoid struct{ LayerName string }

func (s *Sigmoid) Name() string { return s.LayerName }
func (s *Sigmoid) Kind() string { return KindSigmoid }

func (s *Sigmoid) OutShape(in []int) ([]int, error) { return in, nil }

func (s *Sigmoid) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	out := in.Clone()
	out.Apply(func(v float64) float64 { return 1 / (1 + math.Exp(-v)) })
	return out, nil
}

func (s *Sigmoid) ParamCount() int64    { return 0 }
func (s *Sigmoid) FLOPs(in []int) int64 { return int64(prod(in)) * 4 }

// Softmax converts a logit vector into a probability distribution. It is the
// classification head of every model in the repository; the DL2SQL compiler
// emits it as exp/SUM SQL over the final feature table.
type Softmax struct{ LayerName string }

func (s *Softmax) Name() string { return s.LayerName }
func (s *Softmax) Kind() string { return KindSoftmax }

func (s *Softmax) OutShape(in []int) ([]int, error) { return in, nil }

func (s *Softmax) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	out := in.Clone()
	d := out.Data()
	if len(d) == 0 {
		return out, nil
	}
	// Shift by max for numeric stability.
	m := d[0]
	for _, v := range d {
		if v > m {
			m = v
		}
	}
	sum := 0.0
	for i, v := range d {
		e := math.Exp(v - m)
		d[i] = e
		sum += e
	}
	for i := range d {
		d[i] /= sum
	}
	return out, nil
}

func (s *Softmax) ParamCount() int64    { return 0 }
func (s *Softmax) FLOPs(in []int) int64 { return int64(prod(in)) * 5 }

// Flatten reshapes any tensor into a rank-1 vector; it sits between the
// convolutional stack and the fully-connected classification head.
type Flatten struct{ LayerName string }

func (f *Flatten) Name() string { return f.LayerName }
func (f *Flatten) Kind() string { return KindFlatten }

func (f *Flatten) OutShape(in []int) ([]int, error) { return []int{prod(in)}, nil }

func (f *Flatten) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	return in.Reshape(in.Len()), nil
}

func (f *Flatten) ParamCount() int64    { return 0 }
func (f *Flatten) FLOPs(in []int) int64 { return 0 }
