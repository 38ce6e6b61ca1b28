package dl2sql

import (
	"slices"

	"repro/internal/nn"
	"repro/internal/sqldb"
	"repro/internal/tensor"
)

// The input encoders implement the loading step. Each builds all of a
// run's inputs into one relation outside the catalog, which the run binds
// to its statements; a batch leads every row with its SampleID, a single
// input has no such column.

// EncodeInput implements Algorithm 1: it turns an input tensor into the
// patch-form FeatureMap table name, (re)created in the catalog, for the
// model's first convolution (kernel k, stride s, padding p). Rows are
// {MatrixID, OrderID, Value}; overlapping receptive fields duplicate
// elements, exactly as the paper notes.
func (t *Translator) EncodeInput(name string, in *tensor.Tensor, k, stride, pad int) (rows int, err error) {
	tbl, err := encodePatch(name, false, []*tensor.Tensor{in}, k, stride, pad)
	if err != nil {
		return 0, err
	}
	return tbl.NumRows(), t.createTable(name, tbl.Schema, tbl.Cols...)
}

// encodePatch is Algorithm 1 over every input.
func encodePatch(name string, key sampleKey, inputs []*tensor.Tensor, k, stride, pad int) (*sqldb.Table, error) {
	return encode(name, key, "MatrixID", "OrderID", inputs, func(in *tensor.Tensor) (matrix, order []int64, value []float64, err error) {
		cols, err := tensor.Im2Col(in, k, stride, pad)
		if err != nil {
			return nil, nil, nil, err
		}
		nm, no := cols.Dim(0), cols.Dim(1)
		matrix, order = make([]int64, 0, nm*no), make([]int64, 0, nm*no)
		for m := 0; m < nm; m++ {
			for o := 0; o < no; o++ {
				matrix = append(matrix, int64(m))
				order = append(order, int64(o))
			}
		}
		// Im2Col's row-major data is already the (MatrixID, OrderID) order.
		return matrix, order, cols.Data(), nil
	})
}

// encodeFlat stores every input in flat form {TupleID, KernelID, Value}
// with TupleID the channel-major flat index.
func encodeFlat(name string, key sampleKey, inputs []*tensor.Tensor) (*sqldb.Table, error) {
	return encode(name, key, "TupleID", "KernelID", inputs, func(in *tensor.Tensor) (tuple, kernel []int64, value []float64, err error) {
		per := in.Len() / in.Shape()[0]
		tuple, kernel = make([]int64, in.Len()), make([]int64, in.Len())
		for i := range tuple {
			tuple[i], kernel[i] = int64(i), int64(i/per)
		}
		return tuple, kernel, slices.Clone(in.Data()), nil
	})
}

// encodePreJoined implements pre-join strategy 3: the input encoding is
// joined with the first kernel during data generation. Every im2col patch
// element is multiplied by the kernel's matching weight, one row
// {KernelID, MatrixID, Value} per (KernelID, MatrixID, OrderID); only the
// grouped SUM of Q1 remains at inference time.
func encodePreJoined(name string, key sampleKey, inputs []*tensor.Tensor, conv *nn.Conv2D) (*sqldb.Table, error) {
	return encode(name, key, "KernelID", "MatrixID", inputs, func(in *tensor.Tensor) (kernel, matrix []int64, product []float64, err error) {
		cols, err := tensor.Im2Col(in, conv.K, conv.Stride, conv.Pad)
		if err != nil {
			return nil, nil, nil, err
		}
		nm, no := cols.Dim(0), cols.Dim(1)
		rows := conv.OutC * nm * no
		kernel, matrix, product = make([]int64, 0, rows), make([]int64, 0, rows), make([]float64, 0, rows)
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
	})
}

// encode builds the relation {a, b, Value}, a and b Int, of every input's
// rows, led by a SampleID column when the run is a batch. The relation
// takes the rows' columns over: the first input's become its columns.
func encode(name string, key sampleKey, a, b string, inputs []*tensor.Tensor, rows func(in *tensor.Tensor) ([]int64, []int64, []float64, error)) (*sqldb.Table, error) {
	schema := sqldb.Schema{{Name: a, Type: sqldb.TInt}, {Name: b, Type: sqldb.TInt}, {Name: "Value", Type: sqldb.TFloat}}
	if key {
		schema = append(sqldb.Schema{{Name: "SampleID", Type: sqldb.TInt}}, schema...)
	}
	tbl := sqldb.NewTable(name, schema)
	for sid, in := range inputs {
		x, y, v, err := rows(in)
		if err != nil {
			return nil, err
		}
		cols := []*sqldb.Column{intCol(x), intCol(y), floatCol(v)}
		if key {
			ids := make([]int64, len(x))
			for i := range ids {
				ids[i] = int64(sid)
			}
			cols = append([]*sqldb.Column{intCol(ids)}, cols...)
		}
		if sid == 0 {
			tbl.Cols = cols // no statement reads the relation yet
		} else if err := tbl.AppendColumns(cols); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}
