package dl2sql

import (
	"slices"

	"repro/internal/nn"
	"repro/internal/sqldb"
	"repro/internal/tensor"
)

// The input encoders implement the loading step. Each writes all of a
// run's inputs into one relation; a batch leads every row with its
// SampleID, a single input has no such column.

// EncodeInput implements Algorithm 1: it turns an input tensor into the
// patch-form FeatureMap table for the model's first convolution (kernel k,
// stride s, padding p). Rows are {MatrixID, OrderID, Value}; overlapping
// receptive fields duplicate elements, exactly as the paper notes.
func (t *Translator) EncodeInput(name string, in *tensor.Tensor, k, stride, pad int) (rows int, err error) {
	return t.encodePatch(name, false, []*tensor.Tensor{in}, k, stride, pad)
}

// encodePatch is Algorithm 1 over every input. On error it leaves no table
// named name behind.
func (t *Translator) encodePatch(name string, key sampleKey, inputs []*tensor.Tensor, k, stride, pad int) (rows int, err error) {
	tbl, err := t.createInput(name, key, sqldb.Schema{
		{Name: "MatrixID", Type: sqldb.TInt},
		{Name: "OrderID", Type: sqldb.TInt},
		{Name: "Value", Type: sqldb.TFloat},
	})
	if err != nil {
		return 0, err
	}
	for sid, in := range inputs {
		cols, err := tensor.Im2Col(in, k, stride, pad)
		if err != nil {
			t.DB.DropTable(name)
			return 0, err
		}
		nm, no := cols.Dim(0), cols.Dim(1)
		matrix, order := make([]int64, 0, nm*no), make([]int64, 0, nm*no)
		for m := 0; m < nm; m++ {
			for o := 0; o < no; o++ {
				matrix = append(matrix, int64(m))
				order = append(order, int64(o))
			}
		}
		// Im2Col's row-major data is already the (MatrixID, OrderID) order.
		if err := appendInput(tbl, key, sid, intCol(matrix), intCol(order), floatCol(cols.Data())); err != nil {
			return 0, err
		}
		rows += nm * no
	}
	return rows, nil
}

// encodeFlat stores every input in flat form {TupleID, KernelID, Value}
// with TupleID the channel-major flat index.
func (t *Translator) encodeFlat(name string, key sampleKey, inputs []*tensor.Tensor) error {
	tbl, err := t.createInput(name, key, sqldb.Schema{
		{Name: "TupleID", Type: sqldb.TInt},
		{Name: "KernelID", Type: sqldb.TInt},
		{Name: "Value", Type: sqldb.TFloat},
	})
	if err != nil {
		return err
	}
	for sid, in := range inputs {
		per := in.Len() / in.Shape()[0]
		tuple, kernel := make([]int64, in.Len()), make([]int64, in.Len())
		for i := range tuple {
			tuple[i], kernel[i] = int64(i), int64(i/per)
		}
		if err := appendInput(tbl, key, sid, intCol(tuple), intCol(kernel), floatCol(slices.Clone(in.Data()))); err != nil {
			return err
		}
	}
	return nil
}

// encodePreJoined implements pre-join strategy 3: the input encoding is
// joined with the first kernel during data generation. Every im2col patch
// element is multiplied by the kernel's matching weight, one row
// {KernelID, MatrixID, Value} per (KernelID, MatrixID, OrderID); only the
// grouped SUM of Q1 remains at inference time.
func (t *Translator) encodePreJoined(name string, key sampleKey, inputs []*tensor.Tensor, conv *nn.Conv2D) error {
	tbl, err := t.createInput(name, key, sqldb.Schema{
		{Name: "KernelID", Type: sqldb.TInt},
		{Name: "MatrixID", Type: sqldb.TInt},
		{Name: "Value", Type: sqldb.TFloat},
	})
	if err != nil {
		return err
	}
	for sid, in := range inputs {
		cols, err := tensor.Im2Col(in, conv.K, conv.Stride, conv.Pad)
		if err != nil {
			return err
		}
		nm, no := cols.Dim(0), cols.Dim(1)
		rows := conv.OutC * nm * no
		kernel, matrix, product := make([]int64, 0, rows), make([]int64, 0, rows), make([]float64, 0, rows)
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
		if err := appendInput(tbl, key, sid, intCol(kernel), intCol(matrix), floatCol(product)); err != nil {
			return err
		}
	}
	return nil
}

// createInput (re)creates an encoded-input relation, led by a SampleID
// column when the run is a batch.
func (t *Translator) createInput(name string, key sampleKey, schema sqldb.Schema) (*sqldb.Table, error) {
	if key {
		schema = append(sqldb.Schema{{Name: "SampleID", Type: sqldb.TInt}}, schema...)
	}
	t.DB.DropTable(name)
	return t.DB.CreateTable(name, schema)
}

// appendInput appends input sid's rows to an encoded-input relation. The
// relation takes cols over: the first input's become its columns.
func appendInput(tbl *sqldb.Table, key sampleKey, sid int, cols ...*sqldb.Column) error {
	if key {
		ids := make([]int64, cols[0].Len())
		for i := range ids {
			ids[i] = int64(sid)
		}
		cols = append([]*sqldb.Column{intCol(ids)}, cols...)
	}
	return tbl.AdoptColumns(cols)
}
