package dl2sql

import (
	"slices"

	"repro/internal/nn"
	"repro/internal/sqldb"
	"repro/internal/tensor"
)

// preJoinedInputSchema is the layout of the strategy-3 pre-multiplied input
// encoding: {KernelID, MatrixID, Value=feature*weight}. Only the grouped SUM
// of Q1 remains at inference time.
func preJoinedInputSchema() sqldb.Schema {
	return sqldb.Schema{
		{Name: "KernelID", Type: sqldb.TInt},
		{Name: "MatrixID", Type: sqldb.TInt},
		{Name: "Value", Type: sqldb.TFloat},
	}
}

// appendPreJoined appends one input's strategy-3 encoding to the column
// slices: every im2col patch element multiplied by the first kernel's
// matching weight, one row per (KernelID, MatrixID, OrderID).
func appendPreJoined(kernel, matrix []int64, product []float64, in *tensor.Tensor, conv *nn.Conv2D) ([]int64, []int64, []float64, error) {
	cols, err := tensor.Im2Col(in, conv.K, conv.Stride, conv.Pad)
	if err != nil {
		return kernel, matrix, product, err
	}
	nm, no := cols.Dim(0), cols.Dim(1)
	rows := conv.OutC * nm * no
	kernel, matrix, product = slices.Grow(kernel, rows), slices.Grow(matrix, rows), slices.Grow(product, rows)
	for kID := 0; kID < conv.OutC; kID++ {
		w := conv.KernelRow(kID)
		for m := 0; m < nm; m++ {
			for o := 0; o < no; o++ {
				kernel = append(kernel, int64(kID))
				matrix = append(matrix, int64(m))
				product = append(product, cols.At(m, o)*w[o])
			}
		}
	}
	return kernel, matrix, product, nil
}
