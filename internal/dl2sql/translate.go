package dl2sql

import (
	"fmt"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Infer runs one inference entirely in SQL: it encodes the input into
// relational form, executes the translated query pipeline layer by layer,
// and returns the argmax class index and its score. Step costs are
// appended to t.Steps.
func (t *Translator) Infer(sm *StoredModel, input *tensor.Tensor) (int, float64, error) {
	var key uint64
	if t.Cache != nil {
		start := time.Now()
		key = tensor.HashMix(t.modelStamp(sm), input.Hash(), uint64(t.PreJoin))
		if r, ok := t.Cache.results.Get(key); ok {
			t.record("Inference [cached]", 1, time.Since(start))
			return r.idx, r.score, nil
		}
	}

	var temps []string
	defer func() {
		for _, name := range temps {
			t.DB.DropTable(name)
		}
	}()

	cur, err := t.encodeForFirstLayer(sm, input, &temps)
	if err != nil {
		return 0, 0, err
	}
	lastConv := 0
	cur, err = t.runChain(sm.layers, cur, &temps, &lastConv)
	if err != nil {
		return 0, 0, err
	}
	// Argmax over the final score table.
	res, err := t.exec("Classification", fmt.Sprintf(
		`SELECT TupleID, Value FROM %s ORDER BY Value DESC, TupleID LIMIT 1`, cur.table))
	if err != nil {
		return 0, 0, err
	}
	if res.NumRows() == 0 {
		return 0, 0, fmt.Errorf("dl2sql: empty final score table")
	}
	idx, _ := res.Cols[0].Get(0).AsInt()
	score, _ := res.Cols[1].Get(0).AsFloat()
	// A query on a dying context must not publish into the shared cache:
	// later queries would otherwise observe state from a run that was
	// abandoned partway through.
	if t.Cache != nil && t.ctx().Err() == nil {
		t.Cache.results.Put(key, cachedResult{idx: int(idx), score: score})
	}
	return int(idx), score, nil
}

// InferTensor runs the SQL pipeline, uncached, and materializes the final
// layer's output as a tensor (used by the equivalence tests).
func (t *Translator) InferTensor(sm *StoredModel, input *tensor.Tensor) (*tensor.Tensor, error) {
	var temps []string
	defer func() {
		for _, name := range temps {
			t.DB.DropTable(name)
		}
	}()
	cur, err := t.encodeForFirstLayer(sm, input, &temps)
	if err != nil {
		return nil, err
	}
	lastConv := 0
	cur, err = t.runChain(sm.layers, cur, &temps, &lastConv)
	if err != nil {
		return nil, err
	}
	return t.tensorFromFlat(cur.table, cur.c, cur.h, cur.w)
}

// encodeForFirstLayer implements the loading step: Algorithm 1 (patch form)
// when the model starts with a convolution, flat form otherwise. Under
// PreJoinInput the encoding is pre-multiplied with the first kernel.
func (t *Translator) encodeForFirstLayer(sm *StoredModel, input *tensor.Tensor, temps *[]string) (relForm, error) {
	in := sm.Model.InputShape
	if len(sm.layers) > 0 && sm.layers[0].mappingTable == "" {
		if conv, ok := sm.layers[0].layer.(*nn.Conv2D); ok {
			name := t.nextTemp("fm0")
			*temps = append(*temps, name)
			if t.PreJoin == PreJoinInput {
				if err := t.encodeInputPreJoined(name, input, conv); err != nil {
					return relForm{}, err
				}
				return relForm{table: name, flat: false, c: in[0], h: in[1], w: in[2]}, nil
			}
			if _, err := t.EncodeInput(name, input, conv.K, conv.Stride, conv.Pad); err != nil {
				return relForm{}, err
			}
			return relForm{table: name, flat: false, c: in[0], h: in[1], w: in[2]}, nil
		}
	}
	name := t.nextTemp("flat0")
	*temps = append(*temps, name)
	if err := t.EncodeFlat(name, input); err != nil {
		return relForm{}, err
	}
	c, h, w := 1, 1, input.Len()
	if len(in) == 3 {
		c, h, w = in[0], in[1], in[2]
	}
	return relForm{table: name, flat: true, c: c, h: h, w: w}, nil
}

// runChain executes a compiled layer chain.
func (t *Translator) runChain(layers []storedLayer, cur relForm, temps *[]string, lastConv *int) (relForm, error) {
	var err error
	for i := range layers {
		cur, err = t.runLayer(&layers[i], cur, temps, lastConv)
		if err != nil {
			return cur, err
		}
	}
	return cur, nil
}

func (t *Translator) runLayer(sl *storedLayer, cur relForm, temps *[]string, lastConv *int) (relForm, error) {
	switch v := sl.layer.(type) {
	case *nn.Conv2D:
		*lastConv = sl.ordinal
		return t.runConv(sl, v, cur, temps)
	case *nn.Linear:
		return t.runLinear(sl, v, cur, temps)
	case *nn.BatchNorm, *nn.InstanceNorm:
		return t.runNorm(sl, cur, temps, *lastConv)
	case *nn.ReLU:
		return t.runReLU(cur, *lastConv)
	case *nn.Sigmoid:
		return t.runSigmoid(cur, temps)
	case *nn.MaxPool:
		return t.runPool(sl, cur, temps, "MAX")
	case *nn.AvgPool:
		return t.runPool(sl, cur, temps, "AVG")
	case *nn.GlobalAvgPool:
		return t.runGlobalAvg(sl, cur, temps)
	case *nn.Flatten:
		// Flat TupleIDs already enumerate features channel-major.
		return relForm{table: cur.table, flat: true, c: cur.size(), h: 1, w: 1}, nil
	case *nn.Softmax:
		return t.runSoftmax(cur, temps)
	case *nn.ResidualBlock:
		return t.runResidual(sl, cur, temps, lastConv)
	case *nn.DenseBlock:
		return t.runDense(sl, v, cur, temps, lastConv)
	case *nn.BasicAttention:
		return t.runAttention(sl, v, cur, temps)
	case *nn.Deconv2D:
		*lastConv = sl.ordinal
		return t.runDeconv(sl, v, cur, temps)
	}
	return cur, fmt.Errorf("%w: %s (%s)", ErrUnsupported, sl.layer.Name(), sl.layer.Kind())
}

// runConv emits Q2 (when the input is flat) and Q1, plus the bias join.
func (t *Translator) runConv(sl *storedLayer, conv *nn.Conv2D, cur relForm, temps *[]string) (relForm, error) {
	outC, outH, outW := sl.outShape[0], sl.outShape[1], sl.outShape[2]
	ohw := outH * outW
	label := fmt.Sprintf("Conv%d", sl.ordinal)
	var out string

	switch {
	case cur.flat && sl.mappingTable != "" && t.PreJoin != PreJoinNone:
		// Strategy 2/3: the mapping process (Q2) is fused into the
		// convolution statement as a subquery — the intermediate FeatureMap
		// table is never materialized.
		out = t.nextTemp("conv")
		*temps = append(*temps, out)
		sql := fmt.Sprintf(
			`CREATE TEMP TABLE %s AS SELECT K.KernelID * %d + X.MatrixID AS TupleID, K.KernelID AS KernelID, SUM(X.Value * K.Value) AS Value FROM (SELECT B.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value FROM %s A, %s B WHERE A.TupleID = B.TupleID) X INNER JOIN %s K ON X.OrderID = K.OrderID GROUP BY K.KernelID, X.MatrixID`,
			out, ohw, cur.table, sl.mappingTable, sl.kernelTable)
		if err := t.execToTable(label, out, sql); err != nil {
			return cur, err
		}
	case cur.flat:
		// Q2: reshape flat output into the next patch layout.
		fm := t.nextTemp("fm")
		*temps = append(*temps, fm)
		sqlQ2 := fmt.Sprintf(
			`CREATE TEMP TABLE %s AS SELECT B.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value FROM %s A, %s B WHERE A.TupleID = B.TupleID`,
			fm, cur.table, sl.mappingTable)
		if err := t.execToTable(fmt.Sprintf("Reshape%d", sl.ordinal-1), fm, sqlQ2); err != nil {
			return cur, err
		}
		cur = relForm{table: fm, flat: false, c: cur.c, h: cur.h, w: cur.w}
		fallthrough
	default:
		if cur.flat {
			return cur, fmt.Errorf("dl2sql: conv %s received flat input without a mapping table", conv.Name())
		}
		if t.PreJoin == PreJoinInput && sl.mappingTable == "" {
			// Strategy 3 on the first layer: input was encoded
			// pre-multiplied — only the aggregation remains.
			out = t.nextTemp("conv")
			*temps = append(*temps, out)
			sql := fmt.Sprintf(
				`CREATE TEMP TABLE %s AS SELECT KernelID * %d + MatrixID AS TupleID, KernelID AS KernelID, SUM(Value) AS Value FROM %s GROUP BY KernelID, MatrixID`,
				out, ohw, cur.table)
			if err := t.execToTable(label, out, sql); err != nil {
				return cur, err
			}
		} else {
			// Q1: the convolution join.
			out = t.nextTemp("conv")
			*temps = append(*temps, out)
			sql := fmt.Sprintf(
				`CREATE TEMP TABLE %s AS SELECT B.KernelID * %d + A.MatrixID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM %s A INNER JOIN %s B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID`,
				out, ohw, cur.table, sl.kernelTable)
			if err := t.execToTable(label, out, sql); err != nil {
				return cur, err
			}
		}
	}
	next := relForm{table: out, flat: true, c: outC, h: outH, w: outW}
	return t.applyBias(sl, next, temps, label)
}

// applyBias joins per-channel biases onto a flat relation.
func (t *Translator) applyBias(sl *storedLayer, cur relForm, temps *[]string, label string) (relForm, error) {
	if sl.biasTable == "" {
		return cur, nil
	}
	out := t.nextTemp("bias")
	*temps = append(*temps, out)
	sql := fmt.Sprintf(
		`CREATE TEMP TABLE %s AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM %s A, %s B WHERE A.KernelID = B.KernelID`,
		out, cur.table, sl.biasTable)
	if err := t.execToTable(label, out, sql); err != nil {
		return cur, err
	}
	cur.table = out
	return cur, nil
}

// runLinear treats full connection as a kernel-size-1 convolution over the
// flattened input: a single join on the feature index.
func (t *Translator) runLinear(sl *storedLayer, lin *nn.Linear, cur relForm, temps *[]string) (relForm, error) {
	if !cur.flat {
		return cur, fmt.Errorf("dl2sql: linear %s needs flat input", lin.Name())
	}
	out := t.nextTemp("fc")
	*temps = append(*temps, out)
	sql := fmt.Sprintf(
		`CREATE TEMP TABLE %s AS SELECT B.KernelID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM %s A, %s B WHERE A.TupleID = B.OrderID GROUP BY B.KernelID`,
		out, cur.table, sl.kernelTable)
	if err := t.execToTable("FC", out, sql); err != nil {
		return cur, err
	}
	next := relForm{table: out, flat: true, c: lin.Out, h: 1, w: 1}
	return t.applyBias(sl, next, temps, "FC")
}

// runNorm emits the paper's Q4 batch-normalization: per-channel
// (Value − AVG)/(stddevSamp + ε). Channels live in separate logical
// feature tables in the paper (footnote 4); here the KernelID column plays
// that role and the statistics come from a grouped subquery. Learned γ/β
// and frozen running statistics, when present, come from the layer's
// parameter table.
func (t *Translator) runNorm(sl *storedLayer, cur relForm, temps *[]string, lastConv int) (relForm, error) {
	if !cur.flat {
		return cur, fmt.Errorf("dl2sql: norm %s needs flat input", sl.layer.Name())
	}
	useBatchStats := true
	if bn, ok := sl.layer.(*nn.BatchNorm); ok {
		useBatchStats = bn.UseBatchStats
	}
	out := t.nextTemp("bn")
	*temps = append(*temps, out)
	var sql string
	switch {
	case sl.kernelTable == "":
		// Identity batch-stat norm: the paper's literal Q4.
		sql = fmt.Sprintf(
			`CREATE TEMP TABLE %s AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, ((A.Value - S.mu) / (S.sd + %g)) AS Value FROM %s A, (SELECT KernelID, AVG(Value) AS mu, stddevSamp(Value) AS sd FROM %s GROUP BY KernelID) S WHERE A.KernelID = S.KernelID`,
			out, nn.BNEpsilon, cur.table, cur.table)
	case useBatchStats:
		// Learned γ/β over batch statistics.
		sql = fmt.Sprintf(
			`CREATE TEMP TABLE %s AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, (P.Gamma * (A.Value - S.mu) / (S.sd + %g)) + P.Beta AS Value FROM %s A, (SELECT KernelID, AVG(Value) AS mu, stddevSamp(Value) AS sd FROM %s GROUP BY KernelID) S, %s P WHERE A.KernelID = S.KernelID AND A.KernelID = P.KernelID`,
			out, nn.BNEpsilon, cur.table, cur.table, sl.kernelTable)
	default:
		// Frozen running statistics: γ(x−μ)/√(σ²+ε) + β.
		sql = fmt.Sprintf(
			`CREATE TEMP TABLE %s AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, (P.Gamma * (A.Value - P.Mean) / sqrt(P.Var + %g)) + P.Beta AS Value FROM %s A, %s P WHERE A.KernelID = P.KernelID`,
			out, nn.BNEpsilon, cur.table, sl.kernelTable)
	}
	if err := t.execToTable(fmt.Sprintf("BN%d", lastConv), out, sql); err != nil {
		return cur, err
	}
	cur.table = out
	return cur, nil
}

// runReLU applies the paper's UPDATE-based rectification in place.
func (t *Translator) runReLU(cur relForm, lastConv int) (relForm, error) {
	if !cur.flat {
		return cur, fmt.Errorf("dl2sql: relu needs flat input")
	}
	sql := fmt.Sprintf(`UPDATE %s SET Value = 0 WHERE Value < 0`, cur.table)
	if _, err := t.exec(fmt.Sprintf("ReLU%d", lastConv), sql); err != nil {
		return cur, err
	}
	return cur, nil
}

func (t *Translator) runSigmoid(cur relForm, temps *[]string) (relForm, error) {
	out := t.nextTemp("sig")
	*temps = append(*temps, out)
	sql := fmt.Sprintf(
		`CREATE TEMP TABLE %s AS SELECT TupleID, KernelID, 1 / (1 + exp(0 - Value)) AS Value FROM %s`,
		out, cur.table)
	if err := t.execToTable("Sigmoid", out, sql); err != nil {
		return cur, err
	}
	cur.table = out
	return cur, nil
}

// runPool emits Q3: the pooling mapping join plus a grouped MAX/AVG.
func (t *Translator) runPool(sl *storedLayer, cur relForm, temps *[]string, agg string) (relForm, error) {
	if !cur.flat {
		return cur, fmt.Errorf("dl2sql: pooling needs flat input")
	}
	outC, outH, outW := sl.outShape[0], sl.outShape[1], sl.outShape[2]
	ohw := outH * outW
	out := t.nextTemp("pool")
	*temps = append(*temps, out)
	sql := fmt.Sprintf(
		`CREATE TEMP TABLE %s AS SELECT B.KernelID * %d + B.MatrixID AS TupleID, B.KernelID AS KernelID, %s(A.Value) AS Value FROM %s A, %s B WHERE A.TupleID = B.TupleID GROUP BY B.KernelID, B.MatrixID`,
		out, ohw, agg, cur.table, sl.mappingTable)
	if err := t.execToTable("Pool", out, sql); err != nil {
		return cur, err
	}
	return relForm{table: out, flat: true, c: outC, h: outH, w: outW}, nil
}

func (t *Translator) runGlobalAvg(sl *storedLayer, cur relForm, temps *[]string) (relForm, error) {
	out := t.nextTemp("gap")
	*temps = append(*temps, out)
	sql := fmt.Sprintf(
		`CREATE TEMP TABLE %s AS SELECT KernelID AS TupleID, KernelID AS KernelID, AVG(Value) AS Value FROM %s GROUP BY KernelID`,
		out, cur.table)
	if err := t.execToTable("Pool", out, sql); err != nil {
		return cur, err
	}
	return relForm{table: out, flat: true, c: sl.outShape[0], h: 1, w: 1}, nil
}

// runSoftmax emits the classification head: a numerically-stabilized
// exp/SUM over the logit table.
func (t *Translator) runSoftmax(cur relForm, temps *[]string) (relForm, error) {
	out := t.nextTemp("sm")
	*temps = append(*temps, out)
	sql := fmt.Sprintf(
		`CREATE TEMP TABLE %s AS SELECT TupleID, KernelID, exp(Value - (SELECT MAX(Value) FROM %s)) / (SELECT SUM(exp(Value - (SELECT MAX(Value) FROM %s))) FROM %s) AS Value FROM %s`,
		out, cur.table, cur.table, cur.table, cur.table)
	if err := t.execToTable("Classification", out, sql); err != nil {
		return cur, err
	}
	cur.table = out
	return cur, nil
}

// runResidual executes the paper's Q5: both paths from the same input,
// elementwise sum, then the UPDATE-based ReLU.
func (t *Translator) runResidual(sl *storedLayer, cur relForm, temps *[]string, lastConv *int) (relForm, error) {
	mainOut, err := t.runChain(sl.main, cur, temps, lastConv)
	if err != nil {
		return cur, err
	}
	shortOut := cur
	if len(sl.shortcut) > 0 {
		shortOut, err = t.runChain(sl.shortcut, cur, temps, lastConv)
		if err != nil {
			return cur, err
		}
	}
	out := t.nextTemp("res")
	*temps = append(*temps, out)
	sql := fmt.Sprintf(
		`CREATE TEMP TABLE %s AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM %s A, %s B WHERE A.TupleID = B.TupleID`,
		out, mainOut.table, shortOut.table)
	if err := t.execToTable(fmt.Sprintf("Residual%d", *lastConv), out, sql); err != nil {
		return cur, err
	}
	next := relForm{table: out, flat: true, c: mainOut.c, h: mainOut.h, w: mainOut.w}
	return t.runReLU(next, *lastConv)
}

// runDense executes a dense block: each stage convolves the accumulated
// concatenation, and the stage output is appended with shifted channel and
// tuple IDs.
func (t *Translator) runDense(sl *storedLayer, blk *nn.DenseBlock, cur relForm, temps *[]string, lastConv *int) (relForm, error) {
	acc := cur
	for i := range sl.main {
		stage := &sl.main[i]
		conv := stage.layer.(*nn.Conv2D)
		*lastConv = stage.ordinal
		stageOut, err := t.runConv(stage, conv, acc, temps)
		if err != nil {
			return cur, err
		}
		// Concatenate along channels.
		concat := t.nextTemp("cat")
		*temps = append(*temps, concat)
		hw := acc.h * acc.w
		sqls := fmt.Sprintf(
			`CREATE TEMP TABLE %s AS SELECT TupleID, KernelID, Value FROM %s;
			 INSERT INTO %s (SELECT TupleID + %d, KernelID + %d, Value FROM %s);`,
			concat, acc.table,
			concat, acc.c*hw, acc.c, stageOut.table)
		if err := t.execToTable(fmt.Sprintf("Dense%d", *lastConv), concat, sqls); err != nil {
			return cur, err
		}
		acc = relForm{table: concat, flat: true, c: acc.c + blk.Growth, h: acc.h, w: acc.w}
	}
	return acc, nil
}

// runAttention executes basic attention as two FC joins, a softmax, and an
// elementwise product — the derivation from full connection the paper
// describes.
func (t *Translator) runAttention(sl *storedLayer, att *nn.BasicAttention, cur relForm, temps *[]string) (relForm, error) {
	scoreLayer := &storedLayer{kernelTable: sl.kernelTable, outShape: []int{att.Dim, 1, 1}}
	scores, err := t.runLinear(scoreLayer, &nn.Linear{LayerName: att.Name() + "_score", In: att.Dim, Out: att.Dim}, cur, temps)
	if err != nil {
		return cur, err
	}
	scores, err = t.runSoftmax(scores, temps)
	if err != nil {
		return cur, err
	}
	valueLayer := &storedLayer{kernelTable: sl.biasTable, outShape: []int{att.Dim, 1, 1}}
	values, err := t.runLinear(valueLayer, &nn.Linear{LayerName: att.Name() + "_value", In: att.Dim, Out: att.Dim}, cur, temps)
	if err != nil {
		return cur, err
	}
	out := t.nextTemp("attn")
	*temps = append(*temps, out)
	sql := fmt.Sprintf(
		`CREATE TEMP TABLE %s AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value * B.Value AS Value FROM %s A, %s B WHERE A.TupleID = B.TupleID`,
		out, scores.table, values.table)
	if err := t.execToTable("Attention", out, sql); err != nil {
		return cur, err
	}
	return relForm{table: out, flat: true, c: att.Dim, h: 1, w: 1}, nil
}

// runDeconv executes transposed convolution via the precomputed
// contribution table: one join + grouped SUM.
func (t *Translator) runDeconv(sl *storedLayer, d *nn.Deconv2D, cur relForm, temps *[]string) (relForm, error) {
	if !cur.flat {
		return cur, fmt.Errorf("dl2sql: deconv %s needs flat input", d.Name())
	}
	outC, outH, outW := sl.outShape[0], sl.outShape[1], sl.outShape[2]
	ohw := outH * outW
	out := t.nextTemp("deconv")
	*temps = append(*temps, out)
	sql := fmt.Sprintf(
		`CREATE TEMP TABLE %s AS SELECT C.KernelID * %d + C.OutID AS TupleID, C.KernelID AS KernelID, SUM(A.Value * C.Weight) AS Value FROM %s A, %s C WHERE A.TupleID = C.TupleID GROUP BY C.KernelID, C.OutID`,
		out, ohw, cur.table, sl.kernelTable)
	if err := t.execToTable(fmt.Sprintf("Deconv%d", sl.ordinal), out, sql); err != nil {
		return cur, err
	}
	next := relForm{table: out, flat: true, c: outC, h: outH, w: outW}
	return t.applyBias(sl, next, temps, fmt.Sprintf("Deconv%d", sl.ordinal))
}

// encodeInputPreJoined implements pre-join strategy 3: the input encoding
// is joined with the first kernel during data generation, storing
// pre-multiplied products {KernelID, MatrixID, Value}.
func (t *Translator) encodeInputPreJoined(name string, in *tensor.Tensor, conv *nn.Conv2D) error {
	kernel, matrix, product, err := appendPreJoined(nil, nil, nil, in, conv)
	if err != nil {
		return err
	}
	return t.createTable(name, preJoinedInputSchema(), intCol(kernel), intCol(matrix), floatCol(product))
}
