package nn

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over CHW tensors with square kernels, the
// workhorse operator of the paper's CNN workloads. Weights are stored
// [outC][inC][k][k]; inference takes the dot product of each output
// channel's flattened weight row with each output pixel's im2col patch row
// (ForwardBatch). Weights must not change after the first forward pass,
// which caches whether they are all finite and the transposed weight
// panel the kernel reads.
type Conv2D struct {
	LayerName string
	InC, OutC int
	K         int // square kernel side
	Stride    int
	Pad       int
	Weight    *tensor.Tensor // shape [OutC, InC*K*K]
	Bias      []float64      // len OutC, may be nil

	prepOnce sync.Once
	finite   bool      // every weight is finite
	panel    []float64 // Weight transposed to [InC·K²][ldp], zero-padded
	ldp      int       // OutC rounded up to a multiple of blockLanes
}

// NewConv2D builds a convolution with deterministically initialized weights.
// The init is a seeded pseudo-He scheme: reproducible across runs so that the
// SQL-translated model and the native model share identical parameters.
func NewConv2D(name string, inC, outC, k, stride, pad int, seed int64) *Conv2D {
	c := &Conv2D{
		LayerName: name,
		InC:       inC, OutC: outC,
		K: k, Stride: stride, Pad: pad,
		Weight: tensor.New(outC, inC*k*k),
		Bias:   make([]float64, outC),
	}
	scale := math.Sqrt(2.0 / float64(inC*k*k))
	rng := newSplitMix(seed)
	for i := range c.Weight.Data() {
		c.Weight.Data()[i] = (rng.float() - 0.5) * 2 * scale
	}
	for i := range c.Bias {
		c.Bias[i] = (rng.float() - 0.5) * 0.1
	}
	return c
}

func (c *Conv2D) Name() string { return c.LayerName }
func (c *Conv2D) Kind() string { return KindConv2D }

func (c *Conv2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != c.InC {
		return nil, shapeErr(c.LayerName, fmt.Sprintf("CHW with C=%d", c.InC), in)
	}
	oh := tensor.ConvOutDim(in[1], c.K, c.Stride, c.Pad)
	ow := tensor.ConvOutDim(in[2], c.K, c.Stride, c.Pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: conv %s output collapses on input %v", c.LayerName, in)
	}
	return []int{c.OutC, oh, ow}, nil
}

// Forward is ForwardBatch over a batch of one.
func (c *Conv2D) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	outs, err := c.ForwardBatch([]*tensor.Tensor{in})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// prepare caches what ForwardBatch reads besides Weight and Bias: whether
// every weight is finite, the condition under which it may skip zero
// inputs, and the weight panel, Weight transposed so that one patch
// column's weights for 16 consecutive output channels are adjacent, with
// the lanes past OutC zero. Models are shared read-only, so both are
// computed once per layer.
func (c *Conv2D) prepare() {
	c.prepOnce.Do(func() {
		wd, kk := c.Weight.Data(), c.Weight.Dim(1)
		c.finite = true
		for _, v := range wd {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				c.finite = false
				break
			}
		}
		c.ldp = (c.OutC + blockLanes - 1) / blockLanes * blockLanes
		c.panel = make([]float64, kk*c.ldp)
		for ch := 0; ch < c.OutC; ch++ {
			for col, v := range wd[ch*kk : (ch+1)*kk] {
				c.panel[col*c.ldp+ch] = v
			}
		}
	})
}

func (c *Conv2D) ParamCount() int64 {
	n := int64(c.Weight.Len())
	if c.Bias != nil {
		n += int64(len(c.Bias))
	}
	return n
}

func (c *Conv2D) FLOPs(in []int) int64 {
	out, err := c.OutShape(in)
	if err != nil {
		return 0
	}
	// Each output element: inC*k*k multiply-adds.
	return int64(out[1]) * int64(out[2]) * int64(c.OutC) * int64(c.InC*c.K*c.K) * 2
}

// KernelRow returns the flattened kernel weights feeding output channel ch,
// in the same (channel-major, then row-major) order Im2Col and the DL2SQL
// Kernel table use.
func (c *Conv2D) KernelRow(ch int) []float64 {
	w := c.Weight.Data()
	n := c.InC * c.K * c.K
	return w[ch*n : (ch+1)*n]
}

// Deconv2D is a transposed convolution (fractionally-strided). It upsamples
// a CHW tensor; output side = (in-1)*stride - 2*pad + k.
type Deconv2D struct {
	LayerName string
	InC, OutC int
	K         int
	Stride    int
	Pad       int
	Weight    *tensor.Tensor // [InC, OutC*K*K]
	Bias      []float64
}

// NewDeconv2D builds a transposed convolution with seeded init.
func NewDeconv2D(name string, inC, outC, k, stride, pad int, seed int64) *Deconv2D {
	d := &Deconv2D{
		LayerName: name,
		InC:       inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		Weight: tensor.New(inC, outC*k*k),
		Bias:   make([]float64, outC),
	}
	scale := math.Sqrt(2.0 / float64(inC*k*k))
	rng := newSplitMix(seed)
	for i := range d.Weight.Data() {
		d.Weight.Data()[i] = (rng.float() - 0.5) * 2 * scale
	}
	return d
}

func (d *Deconv2D) Name() string { return d.LayerName }
func (d *Deconv2D) Kind() string { return KindDeconv2D }

func (d *Deconv2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != d.InC {
		return nil, shapeErr(d.LayerName, fmt.Sprintf("CHW with C=%d", d.InC), in)
	}
	oh := (in[1]-1)*d.Stride - 2*d.Pad + d.K
	ow := (in[2]-1)*d.Stride - 2*d.Pad + d.K
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: deconv %s output collapses on input %v", d.LayerName, in)
	}
	return []int{d.OutC, oh, ow}, nil
}

func (d *Deconv2D) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	outShape, err := d.OutShape(in.Shape())
	if err != nil {
		return nil, err
	}
	h, w := in.Dim(1), in.Dim(2)
	oh, ow := outShape[1], outShape[2]
	// Scatter-add each input pixel's contribution into the padded output.
	padOH, padOW := oh+2*d.Pad, ow+2*d.Pad
	acc := tensor.New(d.OutC, padOH, padOW)
	wdat := d.Weight.Data()
	for ic := 0; ic < d.InC; ic++ {
		wrow := wdat[ic*d.OutC*d.K*d.K : (ic+1)*d.OutC*d.K*d.K]
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v := in.At(ic, y, x)
				if v == 0 {
					continue
				}
				oy0, ox0 := y*d.Stride, x*d.Stride
				for oc := 0; oc < d.OutC; oc++ {
					kbase := oc * d.K * d.K
					abase := oc * padOH * padOW
					for ky := 0; ky < d.K; ky++ {
						arow := abase + (oy0+ky)*padOW + ox0
						krow := kbase + ky*d.K
						for kx := 0; kx < d.K; kx++ {
							acc.Data()[arow+kx] += v * wrow[krow+kx]
						}
					}
				}
			}
		}
	}
	out := tensor.New(d.OutC, oh, ow)
	for oc := 0; oc < d.OutC; oc++ {
		b := 0.0
		if d.Bias != nil {
			b = d.Bias[oc]
		}
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				out.Set(acc.At(oc, y+d.Pad, x+d.Pad)+b, oc, y, x)
			}
		}
	}
	return out, nil
}

func (d *Deconv2D) ParamCount() int64 {
	n := int64(d.Weight.Len())
	if d.Bias != nil {
		n += int64(len(d.Bias))
	}
	return n
}

func (d *Deconv2D) FLOPs(in []int) int64 {
	if len(in) != 3 {
		return 0
	}
	return int64(in[1]) * int64(in[2]) * int64(d.InC) * int64(d.OutC*d.K*d.K) * 2
}

// splitMix is a tiny deterministic PRNG (SplitMix64) used for reproducible
// weight init without importing math/rand's global state.
type splitMix struct{ state uint64 }

func newSplitMix(seed int64) *splitMix { return &splitMix{state: uint64(seed)*0x9E3779B97F4A7C15 + 1} }

func (s *splitMix) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitMix) float() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}
