package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/tensor"
)

// Binary model format — the repo's stand-in for a TorchScript artifact. The
// loose-integration strategy "compiles" a model by serializing it with
// Encode and links the resulting bytes into the database as a UDF; the
// independent strategy ships the same artifact to the serving component.
//
// Layout: magic, format version, model name, input shape, class labels,
// then a tagged record per layer. All integers are varint-free fixed-width
// little-endian for a predictable artifact size (Table IV measures it).

const modelMagic = "DL2SQLM1"

// ErrCorruptArtifact is wrapped by every decode failure: the bytes are not
// a model artifact Encode wrote.
var ErrCorruptArtifact = errors.New("nn: corrupt model artifact")

// maxNesting bounds how deeply a decoded artifact may nest blocks, so a
// crafted one cannot recurse without limit.
const maxNesting = 16

type modelWriter struct {
	b   []byte
	err error
}

func (mw *modelWriter) u32(v uint32) { mw.b = binary.LittleEndian.AppendUint32(mw.b, v) }
func (mw *modelWriter) u64(v uint64) { mw.b = binary.LittleEndian.AppendUint64(mw.b, v) }

func (mw *modelWriter) f64s(v []float64) {
	mw.u32(uint32(len(v)))
	for _, x := range v {
		mw.u64(math.Float64bits(x))
	}
}

func (mw *modelWriter) str(s string) {
	mw.u32(uint32(len(s)))
	mw.b = append(mw.b, s...)
}

func (mw *modelWriter) ints(v ...int) {
	mw.u32(uint32(len(v)))
	for _, x := range v {
		mw.u64(uint64(x))
	}
}

// modelReader is a cursor over an artifact. The first failure sticks in
// err, and every later read returns zero values, so decoders check once
// per record.
type modelReader struct {
	b   []byte
	err error
}

func (mr *modelReader) fail(format string, args ...any) {
	if mr.err == nil {
		mr.err = fmt.Errorf("%w: %s", ErrCorruptArtifact, fmt.Sprintf(format, args...))
	}
}

// take consumes the next n bytes. It checks n against the bytes that
// remain, so no length prefix is ever trusted before allocating.
func (mr *modelReader) take(n int) []byte {
	if mr.err != nil {
		return nil
	}
	if n > len(mr.b) {
		mr.fail("record of %d bytes, %d remain", n, len(mr.b))
		return nil
	}
	p := mr.b[:n:n]
	mr.b = mr.b[n:]
	return p
}

func (mr *modelReader) u32() uint32 {
	if p := mr.take(4); mr.err == nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

// count reads a length prefix of records at least size bytes each.
func (mr *modelReader) count(size int) int {
	n := int(mr.u32())
	if n*size > len(mr.b) {
		mr.fail("%d records of at least %d bytes, %d bytes remain", n, size, len(mr.b))
		return 0
	}
	return n
}

// f64s reads a length-prefixed float64 slice in one pass; an empty one
// decodes as nil, as layers without a bias hold it.
func (mr *modelReader) f64s() []float64 {
	p := mr.take(8 * mr.count(8))
	if len(p) == 0 {
		return nil
	}
	out := make([]float64, len(p)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out
}

func (mr *modelReader) str() string { return string(mr.take(mr.count(1))) }

func (mr *modelReader) ints() []int {
	p := mr.take(8 * mr.count(8))
	out := make([]int, len(p)/8)
	for i := range out {
		out[i] = int(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out
}

// dims reads a layer header of exactly n integers.
func (mr *modelReader) dims(n int, name string) []int {
	d := mr.ints()
	if len(d) != n {
		mr.fail("layer %s: header of %d integers, want %d", name, len(d), n)
		return make([]int, n)
	}
	return d
}

// shape checks that dims are positive and multiply to n, the length of the
// weights they describe, before tensor.FromSlice relies on it.
func (mr *modelReader) shape(name string, n int, dims ...int) {
	p := 1
	for _, d := range dims {
		if d < 1 || d > n/p {
			p = -1
			break
		}
		p *= d
	}
	if p != n {
		mr.fail("layer %s: %d weights do not fit shape %v", name, n, dims)
	}
}

// check marks the artifact corrupt unless ok.
func (mr *modelReader) check(ok bool, name, what string) {
	if !ok {
		mr.fail("layer %s: %s", name, what)
	}
}

// Encode serializes the model to w.
func Encode(m *Model, w io.Writer) error {
	b, err := EncodeBytes(m)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// EncodeBytes serializes the model to a byte slice — the "compiled binary
// artifact" the DB-UDF strategy links into the database kernel.
func EncodeBytes(m *Model) ([]byte, error) {
	mw := &modelWriter{b: []byte(modelMagic)}
	mw.str(m.ModelName)
	mw.ints(m.InputShape...)
	mw.u32(uint32(len(m.Classes)))
	for _, c := range m.Classes {
		mw.str(c)
	}
	mw.u32(uint32(len(m.Layers)))
	for _, l := range m.Layers {
		encodeLayer(mw, l)
	}
	if mw.err != nil {
		return nil, mw.err
	}
	return mw.b, nil
}

func encodeLayer(mw *modelWriter, l Layer) {
	mw.str(l.Kind())
	mw.str(l.Name())
	switch t := l.(type) {
	case *Conv2D:
		mw.ints(t.InC, t.OutC, t.K, t.Stride, t.Pad)
		mw.f64s(t.Weight.Data())
		mw.f64s(t.Bias)
	case *Deconv2D:
		mw.ints(t.InC, t.OutC, t.K, t.Stride, t.Pad)
		mw.f64s(t.Weight.Data())
		mw.f64s(t.Bias)
	case *BatchNorm:
		mw.u32(uint32(t.C))
		if t.UseBatchStats {
			mw.u32(1)
		} else {
			mw.u32(0)
		}
		mw.f64s(t.Gamma)
		mw.f64s(t.Beta)
		mw.f64s(t.Mean)
		mw.f64s(t.Var)
	case *InstanceNorm:
		mw.u32(uint32(t.C))
		mw.f64s(t.Gamma)
		mw.f64s(t.Beta)
	case *ReLU, *Sigmoid, *Softmax, *Flatten, *GlobalAvgPool:
		// kind + name suffice
	case *MaxPool:
		mw.ints(t.K, t.Stride)
	case *AvgPool:
		mw.ints(t.K, t.Stride)
	case *Linear:
		mw.ints(t.In, t.Out)
		mw.f64s(t.Weight.Data())
		mw.f64s(t.Bias)
	case *BasicAttention:
		mw.u32(uint32(t.Dim))
		mw.f64s(t.WScore.Data())
		mw.f64s(t.WValue.Data())
	case *ResidualBlock:
		mw.u32(uint32(len(t.Main)))
		for _, sub := range t.Main {
			encodeLayer(mw, sub)
		}
		mw.u32(uint32(len(t.Shortcut)))
		for _, sub := range t.Shortcut {
			encodeLayer(mw, sub)
		}
	case *DenseBlock:
		mw.ints(t.InC, t.Growth)
		mw.u32(uint32(len(t.Stages)))
		for _, sub := range t.Stages {
			encodeLayer(mw, sub)
		}
	default:
		if mw.err == nil {
			mw.err = fmt.Errorf("nn: cannot encode layer kind %q", l.Kind())
		}
	}
}

// Decode deserializes a model previously written by Encode.
func Decode(r io.Reader) (*Model, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("nn: reading model: %w", err)
	}
	return DecodeBytes(b)
}

// DecodeBytes deserializes a model from a compiled artifact. Every weight
// slice is copied out of b, so the model does not retain it. A corrupt
// artifact returns an error wrapping ErrCorruptArtifact, never a panic.
func DecodeBytes(b []byte) (*Model, error) {
	mr := &modelReader{b: b}
	if magic := mr.take(len(modelMagic)); mr.err != nil || string(magic) != modelMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptArtifact)
	}
	m := &Model{ModelName: mr.str(), InputShape: mr.ints()}
	m.Classes = make([]string, mr.count(4))
	for i := range m.Classes {
		m.Classes[i] = mr.str()
	}
	m.Layers = decodeLayers(mr, 0)
	mr.check(len(mr.b) == 0, m.ModelName, "trailing bytes")
	if mr.err != nil {
		return nil, mr.err
	}
	return m, nil
}

// decodeLayers reads a count-prefixed layer list; a layer record is at
// least its two string prefixes.
func decodeLayers(mr *modelReader, depth int) []Layer {
	n := mr.count(8)
	out := make([]Layer, 0, n)
	for i := 0; i < n && mr.err == nil; i++ {
		out = append(out, decodeLayer(mr, depth))
	}
	return out
}

func decodeLayer(mr *modelReader, depth int) Layer {
	kind, name := mr.str(), mr.str()
	if mr.err != nil {
		return nil
	}
	switch kind {
	case KindConv2D, KindDeconv2D:
		d, w, b := mr.dims(5, name), mr.f64s(), mr.f64s()
		inC, outC, k, stride, pad := d[0], d[1], d[2], d[3], d[4]
		mr.shape(name, len(w), outC, inC, k, k)
		mr.check(len(b) == 0 || len(b) == outC, name, "bias length")
		mr.check(stride >= 1 && pad >= 0, name, "bad stride or padding")
		if mr.err != nil {
			return nil
		}
		if kind == KindConv2D {
			return &Conv2D{LayerName: name, InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad, Bias: b,
				Weight: tensor.FromSlice(w, outC, inC*k*k)}
		}
		return &Deconv2D{LayerName: name, InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad, Bias: b,
			Weight: tensor.FromSlice(w, inC, outC*k*k)}
	case KindBatchNorm:
		c, stats := int(mr.u32()), mr.u32()
		bn := &BatchNorm{LayerName: name, C: c, UseBatchStats: stats == 1,
			Gamma: mr.f64s(), Beta: mr.f64s(), Mean: mr.f64s(), Var: mr.f64s()}
		mr.check(stats <= 1, name, "bad statistics flag")
		for _, v := range [][]float64{bn.Gamma, bn.Beta, bn.Mean, bn.Var} {
			mr.check(len(v) == c, name, "per-channel vector length")
		}
		return bn
	case KindInstanceNorm:
		c := int(mr.u32())
		in := &InstanceNorm{LayerName: name, C: c, Gamma: mr.f64s(), Beta: mr.f64s()}
		mr.check(len(in.Gamma) == c && len(in.Beta) == c, name, "per-channel vector length")
		return in
	case KindReLU:
		return &ReLU{LayerName: name}
	case KindSigmoid:
		return &Sigmoid{LayerName: name}
	case KindSoftmax:
		return &Softmax{LayerName: name}
	case KindFlatten:
		return &Flatten{LayerName: name}
	case KindGlobalAvg:
		return &GlobalAvgPool{LayerName: name}
	case KindMaxPool, KindAvgPool:
		d := mr.dims(2, name)
		mr.check(d[0] >= 1 && d[1] >= 1, name, "bad pooling window")
		if kind == KindMaxPool {
			return &MaxPool{LayerName: name, K: d[0], Stride: d[1]}
		}
		return &AvgPool{LayerName: name, K: d[0], Stride: d[1]}
	case KindLinear:
		d, w, b := mr.dims(2, name), mr.f64s(), mr.f64s()
		mr.shape(name, len(w), d[1], d[0])
		mr.check(len(b) == d[1], name, "bias length")
		if mr.err != nil {
			return nil
		}
		return &Linear{LayerName: name, In: d[0], Out: d[1], Bias: b, Weight: tensor.FromSlice(w, d[1], d[0])}
	case KindAttention:
		dim, ws, wv := int(mr.u32()), mr.f64s(), mr.f64s()
		mr.shape(name, len(ws), dim, dim)
		mr.shape(name, len(wv), dim, dim)
		if mr.err != nil {
			return nil
		}
		return &BasicAttention{LayerName: name, Dim: dim,
			WScore: tensor.FromSlice(ws, dim, dim), WValue: tensor.FromSlice(wv, dim, dim)}
	case KindResidual, KindIdentity:
		mr.check(depth < maxNesting, name, "blocks nested too deeply")
		b := &ResidualBlock{LayerName: name}
		b.Main = decodeLayers(mr, depth+1)
		b.Shortcut = decodeLayers(mr, depth+1)
		// The kind records whether a shortcut exists; a mismatch would
		// re-encode as different bytes.
		mr.check(b.Kind() == kind, name, "block kind disagrees with its shortcut")
		return b
	case KindDense:
		d := mr.dims(2, name)
		mr.check(depth < maxNesting, name, "blocks nested too deeply")
		b := &DenseBlock{LayerName: name, InC: d[0], Growth: d[1]}
		for _, sub := range decodeLayers(mr, depth+1) {
			conv, ok := sub.(*Conv2D)
			if !ok {
				mr.fail("dense block %s stage is %T, want conv", name, sub)
				break
			}
			b.Stages = append(b.Stages, conv)
		}
		return b
	}
	mr.fail("unknown layer kind %q", kind)
	return nil
}
