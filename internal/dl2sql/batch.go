package dl2sql

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/sqldb"
	"repro/internal/tensor"
)

// Batched inference: the paper performs nUDFs "in a batch manner (a batch
// of feature maps are fed to the model together)". The batched pipeline
// threads a SampleID column through every relational form, so each layer
// executes as ONE SQL statement for the whole batch instead of one per
// sample — amortizing per-statement planning/materialization overhead the
// same way the paper's batching amortizes model invocation.
//
// Batched forms:
//
//	patch: {SampleID, MatrixID, OrderID, Value}
//	flat:  {SampleID, TupleID, KernelID, Value}

// InferBatch runs SQL inference for a batch of inputs, returning the
// argmax class index per sample (in input order).
func (t *Translator) InferBatch(sm *StoredModel, inputs []*tensor.Tensor) ([]int, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	var temps []string
	defer func() {
		for _, name := range temps {
			t.DB.DropTable(name)
		}
	}()
	cur, err := t.encodeBatchForFirstLayer(sm, inputs, &temps)
	if err != nil {
		return nil, err
	}
	lastConv := 0
	cur, err = t.runBatchChain(sm.layers, cur, &temps, &lastConv)
	if err != nil {
		return nil, err
	}
	// Per-sample argmax: join each sample's rows with its maximum score.
	res, err := t.exec("Classification", fmt.Sprintf(
		`SELECT A.SampleID AS SampleID, MIN(A.TupleID) AS TupleID FROM %s A, (SELECT SampleID, MAX(Value) AS mx FROM %s GROUP BY SampleID) S WHERE A.SampleID = S.SampleID AND A.Value = S.mx GROUP BY A.SampleID`,
		cur.table, cur.table))
	if err != nil {
		return nil, err
	}
	out := make([]int, len(inputs))
	for i := range out {
		out[i] = -1
	}
	n := res.NumRows()
	for i := 0; i < n; i++ {
		sid, _ := res.Cols[0].Get(i).AsInt()
		cls, _ := res.Cols[1].Get(i).AsInt()
		if sid >= 0 && int(sid) < len(out) {
			out[sid] = int(cls)
		}
	}
	for i, v := range out {
		if v < 0 {
			return nil, fmt.Errorf("dl2sql: batch inference lost sample %d", i)
		}
	}
	return out, nil
}

// encodeBatchForFirstLayer bulk-loads the whole batch into one relational
// table (Algorithm 1 per sample, sharing the table). Under PreJoinInput the
// encoding is pre-multiplied with the first kernel.
func (t *Translator) encodeBatchForFirstLayer(sm *StoredModel, inputs []*tensor.Tensor, temps *[]string) (relForm, error) {
	in := sm.Model.InputShape
	if len(sm.layers) > 0 && sm.layers[0].mappingTable == "" {
		if conv, ok := sm.layers[0].layer.(*nn.Conv2D); ok {
			name := t.nextTemp("bfm0")
			*temps = append(*temps, name)
			if t.PreJoin == PreJoinInput {
				if err := t.encodeBatchPreJoined(name, inputs, conv); err != nil {
					return relForm{}, err
				}
				return relForm{table: name, flat: false, c: in[0], h: in[1], w: in[2]}, nil
			}
			var sample, matrix, order []int64
			var value []float64
			for sid, input := range inputs {
				cols, err := tensor.Im2Col(input, conv.K, conv.Stride, conv.Pad)
				if err != nil {
					return relForm{}, err
				}
				nm, no := cols.Dim(0), cols.Dim(1)
				for m := 0; m < nm; m++ {
					for o := 0; o < no; o++ {
						sample = append(sample, int64(sid))
						matrix = append(matrix, int64(m))
						order = append(order, int64(o))
					}
				}
				value = append(value, cols.Data()...)
			}
			if err := t.createTable(name, sqldb.Schema{
				{Name: "SampleID", Type: sqldb.TInt},
				{Name: "MatrixID", Type: sqldb.TInt},
				{Name: "OrderID", Type: sqldb.TInt},
				{Name: "Value", Type: sqldb.TFloat},
			}, intCol(sample), intCol(matrix), intCol(order), floatCol(value)); err != nil {
				return relForm{}, err
			}
			return relForm{table: name, flat: false, c: in[0], h: in[1], w: in[2]}, nil
		}
	}
	name := t.nextTemp("bflat0")
	*temps = append(*temps, name)
	c, h, w := 1, 1, inputs[0].Len()
	if len(in) == 3 {
		c, h, w = in[0], in[1], in[2]
	}
	per := inputs[0].Len() / c
	var sample, tuple, kernel []int64
	var value []float64
	for sid, input := range inputs {
		for i := range input.Data() {
			sample = append(sample, int64(sid))
			tuple = append(tuple, int64(i))
			kernel = append(kernel, int64(i/per))
		}
		value = append(value, input.Data()...)
	}
	if err := t.createTable(name, sqldb.Schema{
		{Name: "SampleID", Type: sqldb.TInt},
		{Name: "TupleID", Type: sqldb.TInt},
		{Name: "KernelID", Type: sqldb.TInt},
		{Name: "Value", Type: sqldb.TFloat},
	}, intCol(sample), intCol(tuple), intCol(kernel), floatCol(value)); err != nil {
		return relForm{}, err
	}
	return relForm{table: name, flat: true, c: c, h: h, w: w}, nil
}

// encodeBatchPreJoined is encodeInputPreJoined for a batch:
// {SampleID, KernelID, MatrixID, Value}.
func (t *Translator) encodeBatchPreJoined(name string, inputs []*tensor.Tensor, conv *nn.Conv2D) error {
	var sample, kernel, matrix []int64
	var product []float64
	for sid, input := range inputs {
		n := len(kernel)
		var err error
		kernel, matrix, product, err = appendPreJoined(kernel, matrix, product, input, conv)
		if err != nil {
			return err
		}
		for range kernel[n:] {
			sample = append(sample, int64(sid))
		}
	}
	schema := append(sqldb.Schema{{Name: "SampleID", Type: sqldb.TInt}}, preJoinedInputSchema()...)
	return t.createTable(name, schema, intCol(sample), intCol(kernel), intCol(matrix), floatCol(product))
}

func (t *Translator) runBatchChain(layers []storedLayer, cur relForm, temps *[]string, lastConv *int) (relForm, error) {
	var err error
	for i := range layers {
		cur, err = t.runBatchLayer(&layers[i], cur, temps, lastConv)
		if err != nil {
			return cur, err
		}
	}
	return cur, nil
}

func (t *Translator) runBatchLayer(sl *storedLayer, cur relForm, temps *[]string, lastConv *int) (relForm, error) {
	switch v := sl.layer.(type) {
	case *nn.Conv2D:
		*lastConv = sl.ordinal
		return t.runBatchConv(sl, v, cur, temps)
	case *nn.Linear:
		return t.runBatchLinear(sl, v, cur, temps)
	case *nn.BatchNorm, *nn.InstanceNorm:
		return t.runBatchNorm(sl, cur, temps, *lastConv)
	case *nn.ReLU:
		return t.runReLU(cur, *lastConv) // same UPDATE works batched
	case *nn.Sigmoid:
		return t.runBatchSigmoid(cur, temps)
	case *nn.MaxPool:
		return t.runBatchPool(sl, cur, temps, "MAX")
	case *nn.AvgPool:
		return t.runBatchPool(sl, cur, temps, "AVG")
	case *nn.GlobalAvgPool:
		return t.runBatchGlobalAvg(sl, cur, temps)
	case *nn.Flatten:
		return relForm{table: cur.table, flat: true, c: cur.size(), h: 1, w: 1}, nil
	case *nn.Softmax:
		return t.runBatchSoftmax(cur, temps)
	case *nn.ResidualBlock:
		return t.runBatchResidual(sl, cur, temps, lastConv)
	case *nn.DenseBlock:
		return t.runBatchDense(sl, v, cur, temps, lastConv)
	case *nn.Deconv2D:
		*lastConv = sl.ordinal
		return t.runBatchDeconv(sl, v, cur, temps)
	case *nn.BasicAttention:
		return t.runBatchAttention(sl, v, cur, temps)
	}
	return cur, fmt.Errorf("%w: %s (%s) in batch mode", ErrUnsupported, sl.layer.Name(), sl.layer.Kind())
}

func (t *Translator) runBatchConv(sl *storedLayer, conv *nn.Conv2D, cur relForm, temps *[]string) (relForm, error) {
	outC, outH, outW := sl.outShape[0], sl.outShape[1], sl.outShape[2]
	ohw := outH * outW
	label := fmt.Sprintf("Conv%d", sl.ordinal)
	var out string

	switch {
	case cur.flat && sl.mappingTable != "" && t.PreJoin != PreJoinNone:
		out = t.nextTemp("bconv")
		*temps = append(*temps, out)
		sql := fmt.Sprintf(
			`CREATE TEMP TABLE %s AS SELECT X.SampleID AS SampleID, K.KernelID * %d + X.MatrixID AS TupleID, K.KernelID AS KernelID, SUM(X.Value * K.Value) AS Value FROM (SELECT A.SampleID AS SampleID, B.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value FROM %s A, %s B WHERE A.TupleID = B.TupleID) X INNER JOIN %s K ON X.OrderID = K.OrderID GROUP BY X.SampleID, K.KernelID, X.MatrixID`,
			out, ohw, cur.table, sl.mappingTable, sl.kernelTable)
		if err := t.execToTable(label, out, sql); err != nil {
			return cur, err
		}
	case cur.flat:
		fm := t.nextTemp("bfm")
		*temps = append(*temps, fm)
		sqlQ2 := fmt.Sprintf(
			`CREATE TEMP TABLE %s AS SELECT A.SampleID AS SampleID, B.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value FROM %s A, %s B WHERE A.TupleID = B.TupleID`,
			fm, cur.table, sl.mappingTable)
		if err := t.execToTable(fmt.Sprintf("Reshape%d", sl.ordinal-1), fm, sqlQ2); err != nil {
			return cur, err
		}
		cur = relForm{table: fm, flat: false, c: cur.c, h: cur.h, w: cur.w}
		fallthrough
	default:
		if cur.flat {
			return cur, fmt.Errorf("dl2sql: batch conv %s received flat input without a mapping table", conv.Name())
		}
		out = t.nextTemp("bconv")
		*temps = append(*temps, out)
		var sql string
		if t.PreJoin == PreJoinInput && sl.mappingTable == "" {
			// Strategy 3 on the first layer: the batch was encoded
			// pre-multiplied — only the aggregation remains.
			sql = fmt.Sprintf(
				`CREATE TEMP TABLE %s AS SELECT SampleID, KernelID * %d + MatrixID AS TupleID, KernelID AS KernelID, SUM(Value) AS Value FROM %s GROUP BY SampleID, KernelID, MatrixID`,
				out, ohw, cur.table)
		} else {
			// Q1: the convolution join.
			sql = fmt.Sprintf(
				`CREATE TEMP TABLE %s AS SELECT A.SampleID AS SampleID, B.KernelID * %d + A.MatrixID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM %s A INNER JOIN %s B ON A.OrderID = B.OrderID GROUP BY A.SampleID, B.KernelID, A.MatrixID`,
				out, ohw, cur.table, sl.kernelTable)
		}
		if err := t.execToTable(label, out, sql); err != nil {
			return cur, err
		}
	}
	next := relForm{table: out, flat: true, c: outC, h: outH, w: outW}
	return t.applyBatchBias(sl, next, temps, label)
}

func (t *Translator) applyBatchBias(sl *storedLayer, cur relForm, temps *[]string, label string) (relForm, error) {
	if sl.biasTable == "" {
		return cur, nil
	}
	out := t.nextTemp("bbias")
	*temps = append(*temps, out)
	sql := fmt.Sprintf(
		`CREATE TEMP TABLE %s AS SELECT A.SampleID AS SampleID, A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM %s A, %s B WHERE A.KernelID = B.KernelID`,
		out, cur.table, sl.biasTable)
	if err := t.execToTable(label, out, sql); err != nil {
		return cur, err
	}
	cur.table = out
	return cur, nil
}

func (t *Translator) runBatchLinear(sl *storedLayer, lin *nn.Linear, cur relForm, temps *[]string) (relForm, error) {
	if !cur.flat {
		return cur, fmt.Errorf("dl2sql: batch linear %s needs flat input", lin.Name())
	}
	out := t.nextTemp("bfc")
	*temps = append(*temps, out)
	sql := fmt.Sprintf(
		`CREATE TEMP TABLE %s AS SELECT A.SampleID AS SampleID, B.KernelID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM %s A, %s B WHERE A.TupleID = B.OrderID GROUP BY A.SampleID, B.KernelID`,
		out, cur.table, sl.kernelTable)
	if err := t.execToTable("FC", out, sql); err != nil {
		return cur, err
	}
	next := relForm{table: out, flat: true, c: lin.Out, h: 1, w: 1}
	return t.applyBatchBias(sl, next, temps, "FC")
}

func (t *Translator) runBatchNorm(sl *storedLayer, cur relForm, temps *[]string, lastConv int) (relForm, error) {
	if !cur.flat {
		return cur, fmt.Errorf("dl2sql: batch norm %s needs flat input", sl.layer.Name())
	}
	useBatchStats := true
	if bn, ok := sl.layer.(*nn.BatchNorm); ok {
		useBatchStats = bn.UseBatchStats
	}
	out := t.nextTemp("bbn")
	*temps = append(*temps, out)
	var sql string
	switch {
	case sl.kernelTable == "":
		sql = fmt.Sprintf(
			`CREATE TEMP TABLE %s AS SELECT A.SampleID AS SampleID, A.TupleID AS TupleID, A.KernelID AS KernelID, ((A.Value - S.mu) / (S.sd + %g)) AS Value FROM %s A, (SELECT SampleID, KernelID, AVG(Value) AS mu, stddevSamp(Value) AS sd FROM %s GROUP BY SampleID, KernelID) S WHERE A.SampleID = S.SampleID AND A.KernelID = S.KernelID`,
			out, nn.BNEpsilon, cur.table, cur.table)
	case useBatchStats:
		sql = fmt.Sprintf(
			`CREATE TEMP TABLE %s AS SELECT A.SampleID AS SampleID, A.TupleID AS TupleID, A.KernelID AS KernelID, (P.Gamma * (A.Value - S.mu) / (S.sd + %g)) + P.Beta AS Value FROM %s A, (SELECT SampleID, KernelID, AVG(Value) AS mu, stddevSamp(Value) AS sd FROM %s GROUP BY SampleID, KernelID) S, %s P WHERE A.SampleID = S.SampleID AND A.KernelID = S.KernelID AND A.KernelID = P.KernelID`,
			out, nn.BNEpsilon, cur.table, cur.table, sl.kernelTable)
	default:
		sql = fmt.Sprintf(
			`CREATE TEMP TABLE %s AS SELECT A.SampleID AS SampleID, A.TupleID AS TupleID, A.KernelID AS KernelID, (P.Gamma * (A.Value - P.Mean) / sqrt(P.Var + %g)) + P.Beta AS Value FROM %s A, %s P WHERE A.KernelID = P.KernelID`,
			out, nn.BNEpsilon, cur.table, sl.kernelTable)
	}
	if err := t.execToTable(fmt.Sprintf("BN%d", lastConv), out, sql); err != nil {
		return cur, err
	}
	cur.table = out
	return cur, nil
}

func (t *Translator) runBatchSigmoid(cur relForm, temps *[]string) (relForm, error) {
	out := t.nextTemp("bsig")
	*temps = append(*temps, out)
	sql := fmt.Sprintf(
		`CREATE TEMP TABLE %s AS SELECT SampleID, TupleID, KernelID, 1 / (1 + exp(0 - Value)) AS Value FROM %s`,
		out, cur.table)
	if err := t.execToTable("Sigmoid", out, sql); err != nil {
		return cur, err
	}
	cur.table = out
	return cur, nil
}

func (t *Translator) runBatchPool(sl *storedLayer, cur relForm, temps *[]string, agg string) (relForm, error) {
	if !cur.flat {
		return cur, fmt.Errorf("dl2sql: batch pooling needs flat input")
	}
	outC, outH, outW := sl.outShape[0], sl.outShape[1], sl.outShape[2]
	ohw := outH * outW
	out := t.nextTemp("bpool")
	*temps = append(*temps, out)
	sql := fmt.Sprintf(
		`CREATE TEMP TABLE %s AS SELECT A.SampleID AS SampleID, B.KernelID * %d + B.MatrixID AS TupleID, B.KernelID AS KernelID, %s(A.Value) AS Value FROM %s A, %s B WHERE A.TupleID = B.TupleID GROUP BY A.SampleID, B.KernelID, B.MatrixID`,
		out, ohw, agg, cur.table, sl.mappingTable)
	if err := t.execToTable("Pool", out, sql); err != nil {
		return cur, err
	}
	return relForm{table: out, flat: true, c: outC, h: outH, w: outW}, nil
}

func (t *Translator) runBatchGlobalAvg(sl *storedLayer, cur relForm, temps *[]string) (relForm, error) {
	out := t.nextTemp("bgap")
	*temps = append(*temps, out)
	sql := fmt.Sprintf(
		`CREATE TEMP TABLE %s AS SELECT SampleID, KernelID AS TupleID, KernelID AS KernelID, AVG(Value) AS Value FROM %s GROUP BY SampleID, KernelID`,
		out, cur.table)
	if err := t.execToTable("Pool", out, sql); err != nil {
		return cur, err
	}
	return relForm{table: out, flat: true, c: sl.outShape[0], h: 1, w: 1}, nil
}

func (t *Translator) runBatchSoftmax(cur relForm, temps *[]string) (relForm, error) {
	shifted := t.nextTemp("bsm1")
	*temps = append(*temps, shifted)
	sql := fmt.Sprintf(
		`CREATE TEMP TABLE %s AS SELECT A.SampleID AS SampleID, A.TupleID AS TupleID, A.KernelID AS KernelID, exp(A.Value - S.mx) AS Value FROM %s A, (SELECT SampleID, MAX(Value) AS mx FROM %s GROUP BY SampleID) S WHERE A.SampleID = S.SampleID`,
		shifted, cur.table, cur.table)
	if err := t.execToTable("Classification", shifted, sql); err != nil {
		return cur, err
	}
	out := t.nextTemp("bsm2")
	*temps = append(*temps, out)
	sql = fmt.Sprintf(
		`CREATE TEMP TABLE %s AS SELECT A.SampleID AS SampleID, A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value / S.sm AS Value FROM %s A, (SELECT SampleID, SUM(Value) AS sm FROM %s GROUP BY SampleID) S WHERE A.SampleID = S.SampleID`,
		out, shifted, shifted)
	if err := t.execToTable("Classification", out, sql); err != nil {
		return cur, err
	}
	cur.table = out
	return cur, nil
}

func (t *Translator) runBatchResidual(sl *storedLayer, cur relForm, temps *[]string, lastConv *int) (relForm, error) {
	mainOut, err := t.runBatchChain(sl.main, cur, temps, lastConv)
	if err != nil {
		return cur, err
	}
	shortOut := cur
	if len(sl.shortcut) > 0 {
		shortOut, err = t.runBatchChain(sl.shortcut, cur, temps, lastConv)
		if err != nil {
			return cur, err
		}
	}
	out := t.nextTemp("bres")
	*temps = append(*temps, out)
	sql := fmt.Sprintf(
		`CREATE TEMP TABLE %s AS SELECT A.SampleID AS SampleID, A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM %s A, %s B WHERE A.SampleID = B.SampleID AND A.TupleID = B.TupleID`,
		out, mainOut.table, shortOut.table)
	if err := t.execToTable(fmt.Sprintf("Residual%d", *lastConv), out, sql); err != nil {
		return cur, err
	}
	next := relForm{table: out, flat: true, c: mainOut.c, h: mainOut.h, w: mainOut.w}
	return t.runReLU(next, *lastConv)
}

func (t *Translator) runBatchDense(sl *storedLayer, blk *nn.DenseBlock, cur relForm, temps *[]string, lastConv *int) (relForm, error) {
	acc := cur
	for i := range sl.main {
		stage := &sl.main[i]
		conv := stage.layer.(*nn.Conv2D)
		*lastConv = stage.ordinal
		stageOut, err := t.runBatchConv(stage, conv, acc, temps)
		if err != nil {
			return cur, err
		}
		concat := t.nextTemp("bcat")
		*temps = append(*temps, concat)
		hw := acc.h * acc.w
		sqls := fmt.Sprintf(
			`CREATE TEMP TABLE %s AS SELECT SampleID, TupleID, KernelID, Value FROM %s;
			 INSERT INTO %s (SELECT SampleID, TupleID + %d, KernelID + %d, Value FROM %s);`,
			concat, acc.table,
			concat, acc.c*hw, acc.c, stageOut.table)
		if err := t.execToTable(fmt.Sprintf("Dense%d", *lastConv), concat, sqls); err != nil {
			return cur, err
		}
		acc = relForm{table: concat, flat: true, c: acc.c + blk.Growth, h: acc.h, w: acc.w}
	}
	return acc, nil
}

func (t *Translator) runBatchDeconv(sl *storedLayer, d *nn.Deconv2D, cur relForm, temps *[]string) (relForm, error) {
	if !cur.flat {
		return cur, fmt.Errorf("dl2sql: batch deconv %s needs flat input", d.Name())
	}
	outC, outH, outW := sl.outShape[0], sl.outShape[1], sl.outShape[2]
	ohw := outH * outW
	out := t.nextTemp("bdeconv")
	*temps = append(*temps, out)
	sql := fmt.Sprintf(
		`CREATE TEMP TABLE %s AS SELECT A.SampleID AS SampleID, C.KernelID * %d + C.OutID AS TupleID, C.KernelID AS KernelID, SUM(A.Value * C.Weight) AS Value FROM %s A, %s C WHERE A.TupleID = C.TupleID GROUP BY A.SampleID, C.KernelID, C.OutID`,
		out, ohw, cur.table, sl.kernelTable)
	if err := t.execToTable(fmt.Sprintf("Deconv%d", sl.ordinal), out, sql); err != nil {
		return cur, err
	}
	next := relForm{table: out, flat: true, c: outC, h: outH, w: outW}
	return t.applyBatchBias(sl, next, temps, fmt.Sprintf("Deconv%d", sl.ordinal))
}

func (t *Translator) runBatchAttention(sl *storedLayer, att *nn.BasicAttention, cur relForm, temps *[]string) (relForm, error) {
	scoreLayer := &storedLayer{kernelTable: sl.kernelTable, outShape: []int{att.Dim, 1, 1}}
	scores, err := t.runBatchLinear(scoreLayer, &nn.Linear{LayerName: att.Name() + "_score", In: att.Dim, Out: att.Dim}, cur, temps)
	if err != nil {
		return cur, err
	}
	scores, err = t.runBatchSoftmax(scores, temps)
	if err != nil {
		return cur, err
	}
	valueLayer := &storedLayer{kernelTable: sl.biasTable, outShape: []int{att.Dim, 1, 1}}
	values, err := t.runBatchLinear(valueLayer, &nn.Linear{LayerName: att.Name() + "_value", In: att.Dim, Out: att.Dim}, cur, temps)
	if err != nil {
		return cur, err
	}
	out := t.nextTemp("battn")
	*temps = append(*temps, out)
	sql := fmt.Sprintf(
		`CREATE TEMP TABLE %s AS SELECT A.SampleID AS SampleID, A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value * B.Value AS Value FROM %s A, %s B WHERE A.SampleID = B.SampleID AND A.TupleID = B.TupleID`,
		out, scores.table, values.table)
	if err := t.execToTable("Attention", out, sql); err != nil {
		return cur, err
	}
	return relForm{table: out, flat: true, c: att.Dim, h: 1, w: 1}, nil
}
