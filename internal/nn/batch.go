package nn

// Batch-of-N forward entry, the one native inference path: DB-UDF's nUDF
// batches, DB-PyTorch's serving loop and the scheduler's native backend
// all predict through PredictBatch (via schedule.PredictKeyframes).
//
// A stacked batch is cheaper than N independent Forwards: batch-aware
// layers execute as ONE large MatMul over the stacked batch instead of N
// small ones. Layers without a batched kernel fall back to a per-sample
// loop, so ForwardBatch accepts every model Forward accepts.
//
// Determinism contract: ForwardBatch is bit-identical to calling Forward
// per sample. The batched kernels guarantee this by construction — each
// output element is computed from exactly the same operands accumulated in
// exactly the same order as its per-sample counterpart (the batch only
// widens the MatMul's second operand; rows of the weight matrix and the
// ascending-k accumulation order are unchanged). The scheduler-on vs
// scheduler-off differential suite in internal/bench pins this end to end.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/qerr"
	"repro/internal/tensor"
)

// BatchLayer is implemented by layers with a genuinely batched forward
// kernel. ForwardBatch must be bit-identical to per-sample Forward calls
// and must not mutate the inputs.
type BatchLayer interface {
	Layer
	ForwardBatch(ins []*tensor.Tensor) ([]*tensor.Tensor, error)
}

// inPlaceLayer is implemented by layers that can overwrite their input
// with their output, bit-identical to Forward. ForwardBatch uses it only
// on tensors the chain allocated itself.
type inPlaceLayer interface {
	forwardInPlace(t *tensor.Tensor) error
}

// MaxStack is the most samples PredictBatch stacks into one forward pass.
// On the side-16 student, stacks of 64 run no faster per sample than
// stacks of 16 (BenchmarkPredictBatch), while a stack's operands and
// outputs are alive at once for every sample in it.
const MaxStack = 16

// ForwardBatch runs the full chain over a batch of inputs, using each
// layer's batched kernel when it has one (Conv2D, Linear) and a per-sample
// loop otherwise; BatchNorm and ReLU overwrite intermediates the chain
// allocated instead of allocating again, and never touch the inputs.
// Results are bit-identical to calling Forward once per input. Panics
// inside layer kernels are recovered and returned as typed
// qerr.ErrInternal, mirroring Forward.
func (m *Model) ForwardBatch(ins []*tensor.Tensor) (outs []*tensor.Tensor, err error) {
	defer func() {
		if r := recover(); r != nil {
			outs, err = nil, qerr.Recovered("nn model "+m.ModelName, r)
		}
	}()
	cur := append([]*tensor.Tensor(nil), ins...)
	owned := false // cur was allocated by the chain, not the caller's inputs or views of them
	// Chained clock readings, as in Forward: one read per layer boundary.
	var now time.Time
	if m.Trace != nil {
		now = time.Now()
	}
	for _, l := range m.Layers {
		sp := m.Trace.StartChildAt(l.Kind()+":"+l.Name()+":batch", now)
		var next []*tensor.Tensor
		next, err = forwardBatchLayer(l, cur, owned)
		if sp != nil {
			now = time.Now()
			sp.FinishAt(now)
		}
		if err != nil {
			return nil, fmt.Errorf("nn: model %s layer %s: %w", m.ModelName, l.Name(), err)
		}
		if len(next) > 0 && !sharesData(next[0], cur[0]) {
			owned = true
		}
		cur = next
	}
	return cur, nil
}

// forwardBatchLayer applies one layer to the whole batch; owned says the
// layer may overwrite ins.
func forwardBatchLayer(l Layer, ins []*tensor.Tensor, owned bool) ([]*tensor.Tensor, error) {
	if ip, ok := l.(inPlaceLayer); ok && owned {
		for _, in := range ins {
			if err := ip.forwardInPlace(in); err != nil {
				return nil, err
			}
		}
		return ins, nil
	}
	if bl, ok := l.(BatchLayer); ok && len(ins) > 1 && sameShapes(ins) {
		return bl.ForwardBatch(ins)
	}
	outs := make([]*tensor.Tensor, len(ins))
	for i, in := range ins {
		out, err := l.Forward(in)
		if err != nil {
			return nil, err
		}
		outs[i] = out
	}
	return outs, nil
}

// sharesData reports whether out is a view of in's data (Flatten's
// reshape) rather than a freshly allocated tensor.
func sharesData(out, in *tensor.Tensor) bool {
	o, i := out.Data(), in.Data()
	return len(o) > 0 && len(i) > 0 && &o[0] == &i[0]
}

// PredictBatch runs batched inference and returns the argmax class index
// per input, in input order. It stacks at most MaxStack inputs per forward
// pass.
func (m *Model) PredictBatch(ins []*tensor.Tensor) ([]int, error) {
	if len(ins) == 0 {
		return nil, nil
	}
	idxs := make([]int, 0, len(ins))
	for lo := 0; lo < len(ins); lo += MaxStack {
		outs, err := m.ForwardBatch(ins[lo:min(lo+MaxStack, len(ins))])
		if err != nil {
			return nil, err
		}
		for _, out := range outs {
			idxs = append(idxs, out.ArgMax())
		}
	}
	return idxs, nil
}

// sameShapes reports whether every input has the first input's shape (the
// precondition for stacking a batch into one MatMul operand).
func sameShapes(ins []*tensor.Tensor) bool {
	if len(ins) == 0 {
		return false
	}
	first := ins[0].Shape()
	for _, in := range ins[1:] {
		s := in.Shape()
		if len(s) != len(first) {
			return false
		}
		for i := range s {
			if s[i] != first[i] {
				return false
			}
		}
	}
	return true
}

// ForwardBatch implements BatchLayer for Conv2D: every sample's im2col
// patches are written straight into one stacked operand, transposed and
// side by side, and convolved with the weight matrix in ONE MatMul of shape
// (outC × inC·k²)·(inC·k² × N·oh·ow). Padding is a bounds check on the
// source pixel, so no padded copy, per-sample patch matrix or transpose is
// built. The operand holds exactly the values of Pad2D → Im2Col →
// Transpose, and MatMul keeps rows and accumulation order, so each
// sample's slice of the product is bit-identical to that reference.
func (c *Conv2D) ForwardBatch(ins []*tensor.Tensor) ([]*tensor.Tensor, error) {
	out, err := c.OutShape(ins[0].Shape())
	if err != nil {
		return nil, err
	}
	h, w := ins[0].Dim(1), ins[0].Dim(2)
	oh, ow := out[1], out[2]
	ohw := oh * ow
	n := len(ins)
	width := n * ohw
	// stacked[(ch·k + ky)·k + kx][s·ohw + oy·ow + ox] =
	// sample s at (ch, oy·stride + ky − pad, ox·stride + kx − pad), 0 outside.
	k2 := c.Weight.Dim(1)
	sp := stackPool.Get().(*[]float64)
	defer stackPool.Put(sp)
	if cap(*sp) < k2*width {
		*sp = make([]float64, k2*width)
	}
	sd := (*sp)[:k2*width]
	clear(sd)
	stacked := tensor.FromSlice(sd, k2, width)
	for s, in := range ins {
		src := in.Data()
		for ch := 0; ch < c.InC; ch++ {
			plane := src[ch*h*w : (ch+1)*h*w]
			for ky := 0; ky < c.K; ky++ {
				for kx := 0; kx < c.K; kx++ {
					row := (ch*c.K+ky)*c.K + kx
					dst := sd[row*width+s*ohw : row*width+(s+1)*ohw]
					// Output columns whose source column lies inside the input.
					oxLo := ceilDiv(c.Pad-kx, c.Stride)
					oxHi := min(ow, ceilDiv(w+c.Pad-kx, c.Stride))
					for oy := 0; oy < oh; oy++ {
						iy := oy*c.Stride + ky - c.Pad
						if iy < 0 || iy >= h {
							continue
						}
						srow := plane[iy*w : (iy+1)*w]
						drow := dst[oy*ow : (oy+1)*ow]
						for ox := oxLo; ox < oxHi; ox++ {
							drow[ox] = srow[ox*c.Stride+kx-c.Pad]
						}
					}
				}
			}
		}
	}
	res, err := tensor.MatMul(c.Weight, stacked) // (outC × N·ohw)
	if err != nil {
		return nil, err
	}
	rd := res.Data()
	if n == 1 {
		// One sample's product is already its CHW output.
		for ch := 0; ch < c.OutC; ch++ {
			row := rd[ch*ohw : (ch+1)*ohw]
			c.addBias(row, row, ch)
		}
		return []*tensor.Tensor{res.Reshape(c.OutC, oh, ow)}, nil
	}
	outs := make([]*tensor.Tensor, n)
	buf := make([]float64, n*c.OutC*ohw)
	for s := range outs {
		od := buf[s*c.OutC*ohw : (s+1)*c.OutC*ohw]
		for ch := 0; ch < c.OutC; ch++ {
			c.addBias(od[ch*ohw:(ch+1)*ohw], rd[ch*width+s*ohw:ch*width+(s+1)*ohw], ch)
		}
		outs[s] = tensor.FromSlice(od, c.OutC, oh, ow)
	}
	return outs, nil
}

// stackPool recycles Conv2D.ForwardBatch's stacked operands. An operand is
// garbage once its MatMul returns, and it is the largest allocation of a
// stacked forward pass: allocated afresh, operands kept the collector's
// heap goal, and with it the resident set, about a tenth higher on the
// benchmark's native workload.
var stackPool = sync.Pool{New: func() any { return new([]float64) }}

// addBias writes one output channel's product row plus the channel's bias
// to dst; dst and src may be the same slice.
func (c *Conv2D) addBias(dst, src []float64, ch int) {
	if c.Bias == nil {
		copy(dst, src)
		return
	}
	b := c.Bias[ch]
	for i, v := range src {
		dst[i] = v + b
	}
}

// ceilDiv is ⌈a/b⌉ for b > 0, clamped below at 0.
func ceilDiv(a, b int) int {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// ForwardBatch implements BatchLayer for Linear: the batch's input vectors
// become the columns of one (In × N) matrix, multiplied by the weight
// matrix in ONE MatMul — per-sample MatVec dot products widen into a
// batched MatMul with identical operands and accumulation order.
func (l *Linear) ForwardBatch(ins []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if _, err := l.OutShape(ins[0].Shape()); err != nil {
		return nil, err
	}
	n := len(ins)
	xt := tensor.New(l.In, n)
	xd := xt.Data()
	for s, in := range ins {
		d := in.Data()
		for k := 0; k < l.In; k++ {
			xd[k*n+s] = d[k]
		}
	}
	res, err := tensor.MatMul(l.Weight, xt) // (Out × N)
	if err != nil {
		return nil, err
	}
	rd := res.Data()
	outs := make([]*tensor.Tensor, n)
	for s := 0; s < n; s++ {
		y := make([]float64, l.Out)
		for o := 0; o < l.Out; o++ {
			y[o] = rd[o*n+s] + l.Bias[o]
		}
		outs[s] = tensor.FromSlice(y, l.Out)
	}
	return outs, nil
}
