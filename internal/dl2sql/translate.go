package dl2sql

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sqldb"
	"repro/internal/tensor"
)

// Infer runs one inference entirely in SQL: it encodes the input into
// relational form, executes the translated query pipeline layer by layer,
// and returns the argmax class index and its score. t.Steps holds the
// run's step costs.
func (t *Translator) Infer(sm *StoredModel, input *tensor.Tensor) (idx int, score float64, err error) {
	err = t.run(sm, []*tensor.Tensor{input}, func(prog *program) error {
		classes, s, err := t.classify(prog, 1)
		if err == nil {
			idx, score = classes[0], s
		}
		return err
	})
	return idx, score, err
}

// InferTensor runs the SQL pipeline and materializes the final
// layer's output as a tensor (used by Verify and the equivalence tests).
func (t *Translator) InferTensor(sm *StoredModel, input *tensor.Tensor) (*tensor.Tensor, error) {
	var outs []*tensor.Tensor
	err := t.run(sm, []*tensor.Tensor{input}, func(prog *program) (err error) {
		outs, err = t.tensors(prog, 1)
		return err
	})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// InferBatch runs SQL inference for a batch of inputs, returning the
// argmax class index per sample (in input order). The paper performs
// nUDFs "in a batch manner": every layer runs as one statement for the
// whole batch, amortizing per-statement planning and materialization the
// way the paper's batching amortizes model invocation.
func (t *Translator) InferBatch(sm *StoredModel, inputs []*tensor.Tensor) ([]int, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	var classes []int
	err := t.run(sm, inputs, func(prog *program) (err error) {
		classes, _, err = t.classify(prog, len(inputs))
		return err
	})
	if err != nil {
		return nil, err
	}
	return classes, nil
}

// sampleKey renders the SampleID parts of a layer statement. A batch
// threads SampleID through every relation, so each layer stays one
// statement for all samples; a single input needs no such column, and for
// it every part is the empty string.
type sampleKey bool

// by is the SampleID column of relation alias a ("" for an unaliased
// relation) as a GROUP BY or ORDER BY prefix.
func (k sampleKey) by(a string) string {
	if !k {
		return ""
	}
	if a == "" {
		return "SampleID, "
	}
	return a + ".SampleID, "
}

// col is the SampleID select column taken from alias a.
func (k sampleKey) col(a string) string {
	if !k || a == "" {
		return k.by(a)
	}
	return a + ".SampleID AS SampleID, "
}

// group is a per-sample statistic's GROUP BY clause.
func (k sampleKey) group() string {
	if !k {
		return ""
	}
	return " GROUP BY SampleID"
}

// where is the WHERE clause pairing the samples of aliases a and b when
// it is a statement's only condition.
func (k sampleKey) where(a, b string) string {
	if !k {
		return ""
	}
	return " WHERE " + a + ".SampleID = " + b + ".SampleID"
}

// eq is the join condition pairing the samples of aliases a and b, placed
// ahead of the statement's own conditions.
func (k sampleKey) eq(a, b string) string {
	if !k {
		return ""
	}
	return a + ".SampleID = " + b + ".SampleID AND "
}

// program is a stored model's layer chain compiled for one variant — one
// input or a SampleID-keyed batch, under one pre-join strategy — and shared
// by every run of that variant. A run binds the encoded inputs, and each
// step's result, under its name for the steps after it (sqldb.Relations).
type program struct {
	key      sampleKey
	load     func(inputs []*tensor.Tensor) (*sqldb.Table, error) // encodes the inputs
	steps    []step
	out      relForm // the final relation
	classify step    // the argmax over out, one class per sample
	// ctx and last are nil in the shared program; each run hands its reads
	// a copy carrying the context its relations are bound in and its final
	// relation.
	ctx  context.Context
	last *sqldb.Table
}

// step is one compiled pipeline step: a SELECT, prepared once, whose
// result is bound under name ("" for the reads of the final relation) and
// timed under label. text, "name AS (sql)", is its step span's sql
// attribute.
type step struct {
	label, name, sql, text string
	stmt                   *sqldb.Prepared
}

// variant names one compiled rendering of a model.
type variant struct {
	key     sampleKey
	preJoin PreJoinStrategy
}

// program returns the model's program for v, compiling it on first use;
// runs that race to compile it keep the first one stored.
func (sm *StoredModel) program(v variant) (*program, error) {
	if prog, ok := sm.progs.Load(v); ok {
		return prog.(*program), nil
	}
	prog, err := sm.compile(v)
	if err != nil {
		return nil, err
	}
	stored, _ := sm.progs.LoadOrStore(v, prog)
	return stored.(*program), nil
}

// run executes the pipeline over inputs, which must all have the model's
// input shape: it encodes them, runs the layer chain and hands the
// run's copy of the compiled program to read. More than one input runs the
// SampleID-keyed rendering. It starts t.Steps afresh.
func (t *Translator) run(sm *StoredModel, inputs []*tensor.Tensor, read func(prog *program) error) error {
	t.Steps = t.Steps[:0]
	for i, in := range inputs {
		if !slices.Equal(in.Shape(), sm.Model.InputShape) {
			return fmt.Errorf("dl2sql: input %d has shape %v, model %s expects %v", i, in.Shape(), sm.Model.ModelName, sm.Model.InputShape)
		}
	}
	if t.DB != sm.db {
		return fmt.Errorf("dl2sql: model %s is stored in another database", sm.Model.ModelName)
	}
	prog, err := sm.program(variant{key: sampleKey(len(inputs) > 1), preJoin: t.PreJoin})
	if err != nil {
		return err
	}
	in, err := prog.load(inputs)
	if err != nil {
		return err
	}
	rels := sqldb.Relations{}
	rels.Bind(in.Name, in)
	run := *prog
	run.ctx, run.last = sqldb.WithRelations(t.ctx(), rels), in
	for i := range prog.steps {
		s := &prog.steps[i]
		res, err := t.execStep(run.ctx, s)
		if err == nil {
			run.last, err = res.Table(s.name)
		}
		if err != nil {
			return err
		}
		rels.Bind(s.name, run.last)
	}
	return read(&run)
}

// execStep runs one compiled step and records its cost. When ctx carries
// an active span the step runs under its own child span, opened and closed
// on the clock readings that time it.
func (t *Translator) execStep(ctx context.Context, s *step) (*sqldb.Result, error) {
	start := time.Now()
	sp := obs.SpanFromContext(ctx).StartChildAt(s.label, start)
	res, err := s.stmt.ExecContext(obs.ContextWithSpan(ctx, sp))
	end := time.Now()
	if err == nil {
		sp.SetAttr("rows", res.NumRows())
	}
	sp.SetAttr("sql", s.text)
	sp.FinishAt(end)
	if err != nil {
		return nil, fmt.Errorf("dl2sql: step %s: %w\nSQL: %s", s.label, err, s.sql)
	}
	t.Steps = append(t.Steps, StepCost{Label: s.label, Rows: res.NumRows(), Time: end.Sub(start)})
	return res, nil
}

// pipeline compiles one variant of a stored model's layer chain into a
// program: each layer method renders its SELECTs and appends them as steps,
// each binding a fresh name.
type pipeline struct {
	variant
	sm       *StoredModel
	prog     *program
	lastConv int // ordinal of the last convolution, for step labels
}

// compile renders and prepares every statement of one variant of the
// model, including the reads of its final relation.
func (sm *StoredModel) compile(v variant) (*program, error) {
	p := &pipeline{variant: v, sm: sm, prog: &program{key: v.key}}
	out, err := p.chain(sm.layers, p.encode())
	if err == nil {
		err = p.reads(out)
	}
	if err != nil {
		return nil, err
	}
	return p.prog, nil
}

// prepare compiles a step binding its result under name.
func (p *pipeline) prepare(label, name, sql string) (step, error) {
	s := step{label: label, name: name, sql: sql, text: sql}
	if name != "" {
		s.text = name + " AS (" + sql + ")"
	}
	var err error
	if s.stmt, err = p.sm.db.Prepare(sql); err != nil {
		err = fmt.Errorf("dl2sql: step %s: %w\nSQL: %s", label, err, sql)
	}
	return s, err
}

// create appends a step binding one SELECT's result under a fresh name,
// tag followed by the step's ordinal, and returns that name.
func (p *pipeline) create(label, tag, sel string) (string, error) {
	name := tag + strconv.Itoa(len(p.prog.steps)+1)
	s, err := p.prepare(label, name, sel)
	p.prog.steps = append(p.prog.steps, s)
	return name, err
}

// flatOut is the flat relation holding sl's output.
func flatOut(table string, sl *storedLayer) relForm {
	r := relForm{table: table, flat: true, c: sl.outShape[0], h: 1, w: 1}
	if len(sl.outShape) == 3 {
		r.h, r.w = sl.outShape[1], sl.outShape[2]
	}
	return r
}

// encode compiles the loading step: Algorithm 1 (patch form) when the
// model starts with a convolution, flat form otherwise. Under PreJoinInput
// the patch encoding is pre-multiplied with the first kernel.
func (p *pipeline) encode() relForm {
	in, key := p.sm.Model.InputShape, p.key
	if len(p.sm.layers) > 0 && p.sm.layers[0].mappingTable == "" {
		if conv, ok := p.sm.layers[0].layer.(*nn.Conv2D); ok {
			name, preJoined := "fm0", p.preJoin == PreJoinInput
			p.prog.load = func(inputs []*tensor.Tensor) (*sqldb.Table, error) {
				if preJoined {
					return encodePreJoined(name, key, inputs, conv)
				}
				return encodePatch(name, key, inputs, conv.K, conv.Stride, conv.Pad)
			}
			return relForm{table: name, c: in[0], h: in[1], w: in[2]}
		}
	}
	name := "flat0"
	p.prog.load = func(inputs []*tensor.Tensor) (*sqldb.Table, error) {
		return encodeFlat(name, key, inputs)
	}
	c, h, w := 1, 1, 1
	if len(in) == 3 {
		c, h, w = in[0], in[1], in[2]
	} else {
		for _, d := range in {
			w *= d
		}
	}
	return relForm{table: name, flat: true, c: c, h: h, w: w}
}

// chain executes a compiled layer chain.
func (p *pipeline) chain(layers []storedLayer, cur relForm) (relForm, error) {
	var err error
	for i := range layers {
		if cur, err = p.layer(&layers[i], cur); err != nil {
			return cur, err
		}
	}
	return cur, nil
}

func (p *pipeline) layer(sl *storedLayer, cur relForm) (relForm, error) {
	// Only a model-opening convolution reads the patch-form input encoding.
	if _, conv := sl.layer.(*nn.Conv2D); !cur.flat && !conv {
		return cur, fmt.Errorf("dl2sql: %s %s needs flat input", sl.layer.Kind(), sl.layer.Name())
	}
	switch v := sl.layer.(type) {
	case *nn.Conv2D:
		p.lastConv = sl.ordinal
		return p.conv(sl, cur)
	case *nn.Linear:
		return p.linear(sl, cur)
	case *nn.BatchNorm, *nn.InstanceNorm:
		return p.norm(sl, cur)
	case *nn.ReLU:
		return p.relu(cur)
	case *nn.Sigmoid:
		return p.sigmoid(cur)
	case *nn.MaxPool:
		return p.pool(sl, cur, "MAX")
	case *nn.AvgPool:
		return p.pool(sl, cur, "AVG")
	case *nn.GlobalAvgPool:
		return p.globalAvg(sl, cur)
	case *nn.Flatten:
		// Flat TupleIDs already enumerate features channel-major.
		return relForm{table: cur.table, flat: true, c: cur.size(), h: 1, w: 1}, nil
	case *nn.Softmax:
		return p.softmax(cur)
	case *nn.ResidualBlock:
		return p.residual(sl, cur)
	case *nn.DenseBlock:
		return p.dense(sl, v.Growth, cur)
	case *nn.BasicAttention:
		return p.attention(sl, cur)
	case *nn.Deconv2D:
		p.lastConv = sl.ordinal
		return p.deconv(sl, cur)
	}
	return cur, fmt.Errorf("%w: %s (%s)", ErrUnsupported, sl.layer.Name(), sl.layer.Kind())
}

// conv emits Q2 (when the input is flat) and Q1, plus the bias join.
func (p *pipeline) conv(sl *storedLayer, cur relForm) (relForm, error) {
	k := p.key
	label := fmt.Sprintf("Conv%d", sl.ordinal)
	ohw := sl.outShape[1] * sl.outShape[2]
	var sql string
	switch {
	case cur.flat && p.preJoin != PreJoinNone:
		// Strategy 2/3: the mapping process (Q2) is fused into the
		// convolution statement as a subquery — the intermediate
		// FeatureMap table is never materialized.
		sql = fmt.Sprintf(
			`SELECT %sK.KernelID * %d + X.MatrixID AS TupleID, K.KernelID AS KernelID, SUM(X.Value * K.Value) AS Value FROM (%s) X INNER JOIN %s K ON X.OrderID = K.OrderID GROUP BY %sK.KernelID, X.MatrixID`,
			k.col("X"), ohw, p.reshape(sl, cur), sl.kernelTable, k.by("X"))
	case p.preJoin == PreJoinInput && sl.mappingTable == "":
		// Strategy 3 on the first layer: the input was encoded
		// pre-multiplied — only the aggregation remains.
		sql = fmt.Sprintf(
			`SELECT %sKernelID * %d + MatrixID AS TupleID, KernelID AS KernelID, SUM(Value) AS Value FROM %s GROUP BY %sKernelID, MatrixID`,
			k.col(""), ohw, cur.table, k.by(""))
	default:
		if cur.flat {
			fm, err := p.create(fmt.Sprintf("Reshape%d", sl.ordinal-1), "fm", p.reshape(sl, cur))
			if err != nil {
				return cur, err
			}
			cur = relForm{table: fm}
		}
		// Q1: the convolution join.
		sql = fmt.Sprintf(
			`SELECT %sB.KernelID * %d + A.MatrixID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM %s A INNER JOIN %s B ON A.OrderID = B.OrderID GROUP BY %sB.KernelID, A.MatrixID`,
			k.col("A"), ohw, cur.table, sl.kernelTable, k.by("A"))
	}
	out, err := p.create(label, "conv", sql)
	if err != nil {
		return cur, err
	}
	return p.bias(sl, flatOut(out, sl), label)
}

// reshape is Q2: the mapping join that re-indexes a flat relation into
// sl's patch layout {MatrixID, OrderID, Value}.
func (p *pipeline) reshape(sl *storedLayer, cur relForm) string {
	return fmt.Sprintf(
		`SELECT %sB.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value FROM %s A, %s B WHERE A.TupleID = B.TupleID`,
		p.key.col("A"), cur.table, sl.mappingTable)
}

// bias joins per-channel biases onto a flat relation.
func (p *pipeline) bias(sl *storedLayer, cur relForm, label string) (relForm, error) {
	if sl.biasTable == "" {
		return cur, nil
	}
	var err error
	cur.table, err = p.create(label, "bias", fmt.Sprintf(
		`SELECT %sA.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM %s A, %s B WHERE A.KernelID = B.KernelID`,
		p.key.col("A"), cur.table, sl.biasTable))
	return cur, err
}

// linear treats full connection as a kernel-size-1 convolution over the
// flattened input: a single join on the feature index.
func (p *pipeline) linear(sl *storedLayer, cur relForm) (relForm, error) {
	out, err := p.create("FC", "fc", fmt.Sprintf(
		`SELECT %sB.KernelID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM %s A, %s B WHERE A.TupleID = B.OrderID GROUP BY %sB.KernelID`,
		p.key.col("A"), cur.table, sl.kernelTable, p.key.by("A")))
	if err != nil {
		return cur, err
	}
	return p.bias(sl, flatOut(out, sl), "FC")
}

// norm emits the paper's Q4 batch-normalization: per-channel
// (Value − AVG)/(stddevSamp + ε). Channels live in separate logical
// feature tables in the paper (footnote 4); here the KernelID column plays
// that role and the statistics come from a grouped subquery, per sample.
// Learned γ/β and frozen running statistics, when present, come from the
// layer's parameter table.
func (p *pipeline) norm(sl *storedLayer, cur relForm) (relForm, error) {
	k := p.key
	useBatchStats := true
	if bn, ok := sl.layer.(*nn.BatchNorm); ok {
		useBatchStats = bn.UseBatchStats
	}
	stats := fmt.Sprintf(`(SELECT %sKernelID, AVG(Value) AS mu, stddevSamp(Value) AS sd FROM %s GROUP BY %sKernelID) S`,
		k.col(""), cur.table, k.by(""))
	var sql string
	switch {
	case sl.kernelTable == "":
		// Identity batch-stat norm: the paper's literal Q4.
		sql = fmt.Sprintf(
			`SELECT %sA.TupleID AS TupleID, A.KernelID AS KernelID, ((A.Value - S.mu) / (S.sd + %g)) AS Value FROM %s A, %s WHERE %sA.KernelID = S.KernelID`,
			k.col("A"), nn.BNEpsilon, cur.table, stats, k.eq("A", "S"))
	case useBatchStats:
		// Learned γ/β over batch statistics.
		sql = fmt.Sprintf(
			`SELECT %sA.TupleID AS TupleID, A.KernelID AS KernelID, (P.Gamma * (A.Value - S.mu) / (S.sd + %g)) + P.Beta AS Value FROM %s A, %s, %s P WHERE %sA.KernelID = S.KernelID AND A.KernelID = P.KernelID`,
			k.col("A"), nn.BNEpsilon, cur.table, stats, sl.kernelTable, k.eq("A", "S"))
	default:
		// Frozen running statistics: γ(x−μ)/√(σ²+ε) + β.
		sql = fmt.Sprintf(
			`SELECT %sA.TupleID AS TupleID, A.KernelID AS KernelID, (P.Gamma * (A.Value - P.Mean) / sqrt(P.Var + %g)) + P.Beta AS Value FROM %s A, %s P WHERE A.KernelID = P.KernelID`,
			k.col("A"), nn.BNEpsilon, cur.table, sl.kernelTable)
	}
	var err error
	cur.table, err = p.create(fmt.Sprintf("BN%d", p.lastConv), "bn", sql)
	return cur, err
}

// relu rectifies a flat relation. The paper sets the negative values to 0
// with an UPDATE; this projection computes the same bits (+0 for every
// negative value, every other value, -0 and NaN included, as is).
func (p *pipeline) relu(cur relForm) (relForm, error) {
	var err error
	cur.table, err = p.create(fmt.Sprintf("ReLU%d", p.lastConv), "relu", fmt.Sprintf(
		`SELECT %sTupleID, KernelID, CASE WHEN Value < 0 THEN 0.0 ELSE Value END AS Value FROM %s`, p.key.col(""), cur.table))
	return cur, err
}

func (p *pipeline) sigmoid(cur relForm) (relForm, error) {
	var err error
	cur.table, err = p.create("Sigmoid", "sig", fmt.Sprintf(
		`SELECT %sTupleID, KernelID, 1 / (1 + exp(0 - Value)) AS Value FROM %s`, p.key.col(""), cur.table))
	return cur, err
}

// pool emits Q3: the pooling mapping join plus a grouped MAX/AVG.
func (p *pipeline) pool(sl *storedLayer, cur relForm, agg string) (relForm, error) {
	out, err := p.create("Pool", "pool", fmt.Sprintf(
		`SELECT %sB.KernelID * %d + B.MatrixID AS TupleID, B.KernelID AS KernelID, %s(A.Value) AS Value FROM %s A, %s B WHERE A.TupleID = B.TupleID GROUP BY %sB.KernelID, B.MatrixID`,
		p.key.col("A"), sl.outShape[1]*sl.outShape[2], agg, cur.table, sl.mappingTable, p.key.by("A")))
	return flatOut(out, sl), err
}

func (p *pipeline) globalAvg(sl *storedLayer, cur relForm) (relForm, error) {
	out, err := p.create("Pool", "gap", fmt.Sprintf(
		`SELECT %sKernelID AS TupleID, KernelID AS KernelID, AVG(Value) AS Value FROM %s GROUP BY %sKernelID`,
		p.key.col(""), cur.table, p.key.by("")))
	return flatOut(out, sl), err
}

// softmax emits the classification head: a numerically-stabilized
// exp/SUM over the logit table, in two statements. The first shifts each
// logit by its sample's maximum and exponentiates, the second divides by
// the sample's sum; each takes its statistic from a derived table, one row
// per sample, so neither folds a subquery and both keep their plans.
func (p *pipeline) softmax(cur relForm) (relForm, error) {
	k := p.key
	stat := func(agg, name, table string) string {
		return fmt.Sprintf(`(SELECT %s%s(Value) AS %s FROM %s%s) S`, k.col(""), agg, name, table, k.group())
	}
	shifted, err := p.create("Classification", "sm", fmt.Sprintf(
		`SELECT %sA.TupleID AS TupleID, A.KernelID AS KernelID, exp(A.Value - S.mx) AS Value FROM %s A, %s%s`,
		k.col("A"), cur.table, stat("MAX", "mx", cur.table), k.where("A", "S")))
	if err != nil {
		return cur, err
	}
	cur.table, err = p.create("Classification", "sm", fmt.Sprintf(
		`SELECT %sA.TupleID AS TupleID, A.KernelID AS KernelID, A.Value / S.sm AS Value FROM %s A, %s%s`,
		k.col("A"), shifted, stat("SUM", "sm", shifted), k.where("A", "S")))
	return cur, err
}

// elementwise combines two flat relations of one shape element by element
// with op.
func (p *pipeline) elementwise(label, tag, op, a, b string) (string, error) {
	return p.create(label, tag, fmt.Sprintf(
		`SELECT %sA.TupleID AS TupleID, A.KernelID AS KernelID, A.Value %s B.Value AS Value FROM %s A, %s B WHERE %sA.TupleID = B.TupleID`,
		p.key.col("A"), op, a, b, p.key.eq("A", "B")))
}

// residual executes the paper's Q5: both paths from the same input,
// elementwise sum, then the ReLU.
func (p *pipeline) residual(sl *storedLayer, cur relForm) (relForm, error) {
	main, err := p.chain(sl.main, cur)
	if err != nil {
		return cur, err
	}
	short := cur
	if len(sl.shortcut) > 0 {
		if short, err = p.chain(sl.shortcut, cur); err != nil {
			return cur, err
		}
	}
	if main.table, err = p.elementwise(fmt.Sprintf("Residual%d", p.lastConv), "res", "+", main.table, short.table); err != nil {
		return cur, err
	}
	return p.relu(main)
}

// dense executes a dense block: each stage convolves the accumulated
// concatenation, and a UNION ALL appends the stage output with shifted
// channel and tuple IDs.
func (p *pipeline) dense(sl *storedLayer, growth int, cur relForm) (relForm, error) {
	acc := cur
	s := p.key.col("")
	for i := range sl.main {
		stage := &sl.main[i]
		p.lastConv = stage.ordinal
		stageOut, err := p.conv(stage, acc)
		if err != nil {
			return cur, err
		}
		// Concatenate along channels.
		concat, err := p.create(fmt.Sprintf("Dense%d", p.lastConv), "cat", fmt.Sprintf(
			`SELECT %sTupleID, KernelID, Value FROM %s UNION ALL SELECT %sTupleID + %d, KernelID + %d, Value FROM %s`,
			s, acc.table, s, acc.size(), acc.c, stageOut.table))
		if err != nil {
			return cur, err
		}
		acc = relForm{table: concat, flat: true, c: acc.c + growth, h: acc.h, w: acc.w}
	}
	return acc, nil
}

// attention executes basic attention as two FC joins, a softmax, and an
// elementwise product — the derivation from full connection the paper
// describes.
func (p *pipeline) attention(sl *storedLayer, cur relForm) (relForm, error) {
	scores, err := p.linear(&storedLayer{layer: sl.layer, kernelTable: sl.kernelTable, outShape: sl.outShape}, cur)
	if err != nil {
		return cur, err
	}
	if scores, err = p.softmax(scores); err != nil {
		return cur, err
	}
	values, err := p.linear(&storedLayer{layer: sl.layer, kernelTable: sl.biasTable, outShape: sl.outShape}, cur)
	if err != nil {
		return cur, err
	}
	out, err := p.elementwise("Attention", "attn", "*", scores.table, values.table)
	return flatOut(out, sl), err
}

// deconv executes transposed convolution via the precomputed contribution
// table: one join + grouped SUM.
func (p *pipeline) deconv(sl *storedLayer, cur relForm) (relForm, error) {
	label := fmt.Sprintf("Deconv%d", sl.ordinal)
	out, err := p.create(label, "deconv", fmt.Sprintf(
		`SELECT %sC.KernelID * %d + C.OutID AS TupleID, C.KernelID AS KernelID, SUM(A.Value * C.Weight) AS Value FROM %s A, %s C WHERE A.TupleID = C.TupleID GROUP BY %sC.KernelID, C.OutID`,
		p.key.col("A"), sl.outShape[1]*sl.outShape[2], cur.table, sl.kernelTable, p.key.by("A")))
	if err != nil {
		return cur, err
	}
	return p.bias(sl, flatOut(out, sl), label)
}

// reads compiles the statement that reads the final relation back: the
// argmax, which one input takes from its top row (also yielding the score)
// and a batch from each sample's rows joined with its maximum.
func (p *pipeline) reads(out relForm) (err error) {
	p.prog.out = out
	classify := fmt.Sprintf(`SELECT TupleID, Value FROM %s ORDER BY Value DESC, TupleID LIMIT 1`, out.table)
	if p.key {
		classify = fmt.Sprintf(
			`SELECT A.SampleID AS SampleID, MIN(A.TupleID) AS TupleID FROM %s A, (SELECT SampleID, MAX(Value) AS mx FROM %s GROUP BY SampleID) S WHERE A.SampleID = S.SampleID AND A.Value = S.mx GROUP BY A.SampleID`,
			out.table, out.table)
	}
	p.prog.classify, err = p.prepare("Classification", "", classify)
	return err
}

// classify runs a program's argmax and returns one class per sample, and
// for one input its score.
func (t *Translator) classify(prog *program, n int) ([]int, float64, error) {
	res, err := t.execStep(prog.ctx, &prog.classify)
	if err != nil {
		return nil, 0, err
	}
	if !prog.key {
		if res.NumRows() == 0 {
			return nil, 0, fmt.Errorf("dl2sql: empty final score table")
		}
		idx, _ := res.Cols[0].Get(0).AsInt()
		score, _ := res.Cols[1].Get(0).AsFloat()
		return []int{int(idx)}, score, nil
	}
	classes := make([]int, n)
	for i := range classes {
		classes[i] = -1
	}
	for r := 0; r < res.NumRows(); r++ {
		sid, _ := res.Cols[0].Get(r).AsInt()
		cls, _ := res.Cols[1].Get(r).AsInt()
		if sid >= 0 && int(sid) < n {
			classes[sid] = int(cls)
		}
	}
	for i, c := range classes {
		if c < 0 {
			return nil, 0, fmt.Errorf("dl2sql: batch inference lost sample %d", i)
		}
	}
	return classes, 0, nil
}

// tensors reads a run's final flat relation back into one tensor per
// sample, each row to its TupleID's place.
func (t *Translator) tensors(prog *program, n int) ([]*tensor.Tensor, error) {
	out, last := prog.out, prog.last
	ts := make([]*tensor.Tensor, n)
	for i := range ts {
		ts[i] = tensor.New(out.c, out.h, out.w)
	}
	col := func(name string) *sqldb.Column { return last.Cols[last.Schema.ColIndex(name)] }
	ids, vals := col("TupleID"), col("Value")
	var sids *sqldb.Column
	if prog.key {
		sids = col("SampleID")
	}
	for r := 0; r < last.NumRows(); r++ {
		var sid int64
		if sids != nil {
			sid, _ = sids.Get(r).AsInt()
		}
		id, _ := ids.Get(r).AsInt()
		v, _ := vals.Get(r).AsFloat()
		if sid < 0 || int(sid) >= n || id < 0 || int(id) >= ts[sid].Len() {
			return nil, fmt.Errorf("dl2sql: row (sample %d, TupleID %d) out of range for %d samples of shape [%d %d %d]", sid, id, n, out.c, out.h, out.w)
		}
		ts[sid].Data()[id] = v
	}
	return ts, nil
}
