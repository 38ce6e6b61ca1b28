package dl2sql

import (
	"repro/internal/sqldb"
	"repro/internal/tensor"
)

// storeConvMapping implements (a multi-channel, padding-aware
// generalization of) Algorithm 2: it creates the Kernel_Mapping table
// {MatrixID, OrderID, TupleID} that re-indexes a layer's flat output into
// the next convolution's patch layout.
//
// TupleID is the flat channel-major index into the previous output tensor
// (shape inShape = [C, H, W]); MatrixID enumerates output positions of the
// next convolution row-major; OrderID = c*k*k + ky*k + kx matches the
// kernel table's serialization. Patch positions that fall into padding emit
// no row — the subsequent inner join then contributes nothing for them,
// which is exactly the zero-padding semantics under SUM aggregation.
//
// The mapping depends only on (inShape, k, stride, pad) — as the paper
// notes, it is generated offline once per layer geometry.
func (t *Translator) storeConvMapping(name string, inShape []int, k, stride, pad int) error {
	c, h, w := inShape[0], inShape[1], inShape[2]
	outH := tensor.ConvOutDim(h, k, stride, pad)
	outW := tensor.ConvOutDim(w, k, stride, pad)
	var matrixIDs, orders, tuples []int64
	matrix := 0
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			for ch := 0; ch < c; ch++ {
				for ky := 0; ky < k; ky++ {
					y := oy*stride + ky - pad
					if y < 0 || y >= h {
						continue
					}
					for kx := 0; kx < k; kx++ {
						x := ox*stride + kx - pad
						if x < 0 || x >= w {
							continue
						}
						matrixIDs = append(matrixIDs, int64(matrix))
						orders = append(orders, int64(ch*k*k+ky*k+kx))
						tuples = append(tuples, int64(ch*h*w+y*w+x))
					}
				}
			}
			matrix++
		}
	}
	return t.createTable(name, sqldb.Schema{
		{Name: "MatrixID", Type: sqldb.TInt},
		{Name: "OrderID", Type: sqldb.TInt},
		{Name: "TupleID", Type: sqldb.TInt},
	}, intCol(matrixIDs), intCol(orders), intCol(tuples))
}

// storePoolMapping creates the pooling window mapping
// {MatrixID, KernelID, TupleID}: output position MatrixID of channel
// KernelID aggregates the input elements TupleID. Q3 then reduces it with
// MAX or AVG grouped by (KernelID, MatrixID). Pooling never pads.
func (t *Translator) storePoolMapping(name string, inShape []int, k, stride int) error {
	c, h, w := inShape[0], inShape[1], inShape[2]
	outH := tensor.ConvOutDim(h, k, stride, 0)
	outW := tensor.ConvOutDim(w, k, stride, 0)
	var matrixIDs, kernels, tuples []int64
	for ch := 0; ch < c; ch++ {
		matrix := 0
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						matrixIDs = append(matrixIDs, int64(matrix))
						kernels = append(kernels, int64(ch))
						tuples = append(tuples, int64(ch*h*w+(oy*stride+ky)*w+(ox*stride+kx)))
					}
				}
				matrix++
			}
		}
	}
	return t.createTable(name, sqldb.Schema{
		{Name: "MatrixID", Type: sqldb.TInt},
		{Name: "KernelID", Type: sqldb.TInt},
		{Name: "TupleID", Type: sqldb.TInt},
	}, intCol(matrixIDs), intCol(kernels), intCol(tuples))
}
