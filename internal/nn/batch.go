package nn

// Batch-of-N forward entry, the one native inference path: DB-UDF's nUDF
// batches, DB-PyTorch's serving loop and the scheduler's native backend
// all predict through PredictBatch (via schedule.PredictKeyframes).
//
// A stacked batch is cheaper than N independent Forwards: each batch-aware
// layer runs the whole batch in one kernel call, fanned across the worker
// pool — Conv2D over every sample's output pixels, Linear as ONE MatMul
// with a column per sample. Layers without a batched kernel fall back to a
// per-sample loop, so ForwardBatch accepts every model Forward accepts.
//
// Determinism contract: ForwardBatch is bit-identical to calling Forward
// per sample. The batched kernels guarantee this by construction — each
// output element is computed from exactly the same operands accumulated in
// exactly the same order as its per-sample counterpart (a conv output
// pixel's dot products never read another sample; Linear's batch only
// widens the MatMul's second operand, keeping the weight rows and the
// ascending-k accumulation order). The scheduler-on vs scheduler-off
// differential suite in internal/bench pins this end to end.

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/par"
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
// precondition for running a batch through one kernel call).
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

// ForwardBatch implements BatchLayer for Conv2D with a sparse-patch
// kernel that goes from input pixels to each sample's CHW output in one
// pass. It first copies the stack once into zero-bordered planes of
// (H+2·Pad) × (W+2·Pad), so that every output pixel's window lies inside
// its sample's padded planes, and builds one offset table for the layer's
// geometry: offs[col] is the distance from a window's top-left element in
// channel 0 to the element of im2col column col — Im2Col's order: channel,
// then ky, then kx. Each output pixel (sample, oy, ox) is one row of the
// work: the kernel gathers the pixel's patch row through the table as
// (column, value) pairs in ascending column order and computes every
// output channel as the dot product of its weight row with those pairs,
// sixteen channels per pass over the pairs (dotBlock, over the layer's
// transposed weight panel), writing acc + bias straight into the output.
//
// Exactness: each output element gets MatMul's products, accumulated in
// ascending column order from +0, so it equals the explicit Pad2D → Im2Col
// → Transpose → MatMul lowering bit for bit; the stored border is +0, as
// Pad2D writes it. The gather drops zero inputs, border included, only
// when every weight of the layer is finite: a dropped term is then
// ±0·w = ±0, and adding ±0 to an accumulator that starts at +0 never
// changes it. With an infinite or NaN weight, w·0 is NaN, so every term is
// kept.
func (c *Conv2D) ForwardBatch(ins []*tensor.Tensor) ([]*tensor.Tensor, error) {
	out, err := c.OutShape(ins[0].Shape())
	if err != nil {
		return nil, err
	}
	h, w := ins[0].Dim(1), ins[0].Dim(2)
	ph, pw := h+2*c.Pad, w+2*c.Pad
	psize := c.InC * ph * pw // one padded sample
	oh, ow := out[1], out[2]
	ohw := oh * ow
	size := c.OutC * ohw
	kk := c.Weight.Dim(1) // InC·K²
	buf := make([]float64, len(ins)*size)
	outs := make([]*tensor.Tensor, len(ins))
	for s := range outs {
		outs[s] = tensor.FromSlice(buf[s*size:(s+1)*size], c.OutC, oh, ow)
	}
	c.prepare()
	keepAll := 0 // 1 keeps zero terms too
	if !c.finite {
		keepAll = 1
	}
	rows := len(ins) * ohw
	degree := 1
	if rows*c.OutC*kk >= tensor.ParFlopThreshold {
		degree = par.DefaultDegree()
	}
	// One patch buffer per worker, spaced so that no two workers write to
	// one cache line.
	stride := kk + 16
	pb := patchBufs.Get().(*patchBuf)
	defer patchBufs.Put(pb)
	pb.cols, pb.vals = resized(pb.cols, degree*stride), resized(pb.vals, degree*stride)
	pb.pad, pb.offs = resized(pb.pad, len(ins)*psize), resized(pb.offs, kk)
	cols, vals, pad, offs := pb.cols, pb.vals, pb.pad, pb.offs
	if c.Pad > 0 {
		// Clearing the whole stack in one pass and then copying the rows
		// over it is faster than clearing each row's few border elements.
		clear(pad)
	}
	for s, in := range ins {
		padPlanes(pad[s*psize:(s+1)*psize], in.Data(), h, w, c.Pad)
	}
	k, col := c.K, 0
	for ch := 0; ch < c.InC; ch++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				offs[col] = (ch*ph+ky)*pw + kx
				col++
			}
		}
	}
	par.Run(degree, rows, max(1, tensor.ParFlopThreshold/(c.OutC*kk+1)), func(wk, lo, hi int) {
		pc, pv := cols[wk*stride:wk*stride+kk], vals[wk*stride:wk*stride+kk]
		var acc [blockLanes]float64
		for r := lo; r < hi; r++ {
			s, pix := r/ohw, r%ohw
			win := pad[s*psize+pix/ow*c.Stride*pw+pix%ow*c.Stride:]
			n := gatherWindow(pc, pv, win, offs, keepAll)
			c.dotChannels(&acc, buf[s*size:(s+1)*size], pix, ohw, pc[:n], pv[:n])
		}
	})
	return outs, nil
}

// patchBuf is ForwardBatch's per-call buffers, recycled through patchBufs
// so a forward allocates only its outputs: the per-worker patch pairs, the
// padded stack and the offset table.
type patchBuf struct {
	cols []int32
	vals []float64
	pad  []float64
	offs []int
}

var patchBufs = sync.Pool{New: func() any { return new(patchBuf) }}

// resized returns s with length n, reallocated only when its capacity is
// short. Its callers overwrite every element they read.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// padPlanes copies the CHW planes of src, each h×w, into the interiors of
// dst's planes of (h+2·pad) × (w+2·pad), leaving their borders as they
// are.
func padPlanes(dst, src []float64, h, w, pad int) {
	pw, ph := w+2*pad, h+2*pad
	for ch, r := 0, 0; r < len(src); ch++ {
		for y := 0; y < h; y, r = y+1, r+w {
			start := (ch*ph+pad+y)*pw + pad
			copy(dst[start:start+w], src[r:r+w])
		}
	}
}

// gatherWindow writes the patch row of the window whose top-left element
// in channel 0 is win[0] into cols and vals as (column, value) pairs in
// ascending column order, reading column col at win[offs[col]], and
// returns how many it kept: the nonzero values, or every value when
// keepAll is 1. Every pair is written and then kept or overwritten by the
// next, so whether a value is zero never steers a branch: ReLU's zeros
// fall at random. It is kept out of line: inlined into ForwardBatch's
// worker, the loop's counters spill to the stack.
//
//go:noinline
func gatherWindow(cols []int32, vals, win []float64, offs []int, keepAll int) int {
	vals = vals[:len(cols)] // one bounds check then covers both writes
	n := 0
	for col, off := range offs {
		v := win[off]
		cols[n], vals[n] = int32(col), v
		mag := math.Float64bits(v) << 1 // 0 only for ±0
		n += int((mag|-mag)>>63) | keepAll
	}
	return n
}

// dotChannels writes, for every output channel ch, the dot product of its
// weight row with the patch pairs, plus its bias, to out[ch·ohw + pix]:
// one dotBlock call per block of 16 channels of the panel, each channel's
// terms accumulated in pair order, then the bias added to each of the
// block's real channels.
func (c *Conv2D) dotChannels(acc *[blockLanes]float64, out []float64, pix, ohw int, cols []int32, vals []float64) {
	for b := 0; b < c.OutC; b += blockLanes {
		dotBlock(acc, c.panel[b:], c.ldp, cols, vals)
		for i, a := range acc[:min(blockLanes, c.OutC-b)] {
			if c.Bias != nil {
				a += c.Bias[b+i]
			}
			out[(b+i)*ohw+pix] = a
		}
	}
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
