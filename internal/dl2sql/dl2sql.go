// Package dl2sql is the paper's primary contribution: a translator that
// rewrites neural-network inference into native SQL over relational tables.
//
// A model is stored as relational data — one Kernel table per convolution /
// fully-connected layer ({KernelID, OrderID, Value}), a bias table per
// layer, a hyper-parameter metadata table, and precomputed Kernel_Mapping
// tables (Algorithm 2) that re-index a layer's flat output into the next
// layer's patch layout. Inference then executes the paper's query shapes:
//
//	Q1: conv = FeatureMap ⋈ Kernel ON OrderID, GROUP BY KernelID, MatrixID, SUM(products)
//	Q2: reshape = Layer_Output ⋈ Kernel_Mapping ON TupleID
//	Q3: pooling = GROUP BY MatrixID with MAX/AVG
//	Q4: batch norm = (Value - AVG)/(stddevSamp + ε) per channel
//	Q5: residual = elementwise add of two block outputs + ReLU
//
// The paper's ReLU is an UPDATE setting negative values to 0; here a
// projection computes the same bits.
//
// Intermediate results flow through two relational forms:
//
//   - patch form ("FeatureMap"): {MatrixID, OrderID, Value} — one row per
//     (output position, receptive-field element); element order matches
//     tensor.Im2Col (channel-major, then row-major), so the SQL pipeline and
//     the native nn engine are numerically identical.
//   - flat form ("Layer_Output"): {TupleID, KernelID, Value} — one row per
//     output element; TupleID = channel*H*W + y*W + x.
//
// StoreModel is the offline step: it writes the model's tables once, and
// every later inference reuses them. A StoredModel compiles its layer chain
// into prepared SELECTs once per variant (one input or a batch, under one
// pre-join strategy), shared by every run. A run writes nothing to the
// catalog: it binds the encoded input, then each step's result, under fixed
// per-step names as statement-scoped relations (sqldb.Relations), so
// concurrent runs never see one another's, and it renders and parses
// nothing after the variant's first run.
//
// One set of layer templates renders both single-sample and batched
// inference. A batch (InferBatch with more than one input) leads both forms
// with a SampleID column — {SampleID, MatrixID, OrderID, Value} and
// {SampleID, TupleID, KernelID, Value} — and adds SampleID to every GROUP
// BY and join, so each layer is one statement for the whole batch; one
// input renders the same statements without it.
//
// IDs are zero-based (the paper's figures are one-based; the arithmetic is
// otherwise identical).
package dl2sql

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/nn"
	"repro/internal/sqldb"
)

// ErrUnsupported is returned for operators outside Table II's supported set
// (self-attention, LSTM, GRU, graph convolution).
var ErrUnsupported = errors.New("dl2sql: operator not supported by the SQL translator")

// PreJoinStrategy selects the pre-join optimization of Fig. 11.
type PreJoinStrategy int

const (
	// PreJoinNone is the default pipeline: mapping join (Q2) + kernel join
	// (Q1) per convolution.
	PreJoinNone PreJoinStrategy = iota
	// PreJoinMapping merges the mapping process into the convolution
	// statement: Q2 becomes a subquery of Q1, so the intermediate
	// FeatureMap table is never materialized (the paper's second strategy,
	// "avoid the join in the mapping process").
	PreJoinMapping
	// PreJoinInput additionally pre-multiplies the input encoding with the
	// first layer's kernel during data generation, removing the first
	// FeatureMap ⋈ Kernel join entirely (the paper's third strategy).
	PreJoinInput
)

// String names the strategy as reported in benchmarks and EXPERIMENTS.md.
func (s PreJoinStrategy) String() string {
	switch s {
	case PreJoinNone:
		return "none"
	case PreJoinMapping:
		return "prejoin-mapping"
	case PreJoinInput:
		return "prejoin-input"
	}
	return fmt.Sprintf("PreJoinStrategy(%d)", int(s))
}

// StepCost records the wall time of one executed pipeline step; the Fig. 9
// breakdown aggregates these by label.
type StepCost struct {
	Label string // e.g. "Conv1", "Reshape1", "BN1", "Classification"
	Rows  int
	Time  time.Duration
}

// Translator compiles nn models into relational storage and executes their
// inference as SQL against an embedded database. Its statements take no
// optimizer hints: none calls a UDF, the only statements hints act on.
type Translator struct {
	DB      *sqldb.DB
	Prefix  string // namespace for the tables StoreModel writes
	PreJoin PreJoinStrategy
	// Ctx, when non-nil, is threaded to every generated SQL statement, so
	// a caller's cancellation or deadline aborts the pipeline between (and,
	// at morsel granularity, inside) steps. When it carries an active span,
	// every step opens a child span under it (Conv1, Reshape1, BN1,
	// Classification, ...) with its SQL text as attribute sql and its
	// statement's operator spans beneath.
	Ctx context.Context
	// Steps holds the per-step costs of the most recent run (Infer,
	// InferTensor or InferBatch): the step clock that stays on with tracing
	// off. Each run reuses its backing array; copy it to keep it.
	Steps []StepCost
}

// ctx resolves the translator's context for generated statements.
func (t *Translator) ctx() context.Context {
	if t.Ctx != nil {
		return t.Ctx
	}
	return context.Background()
}

// NewTranslator creates a translator writing tables under the given prefix.
func NewTranslator(db *sqldb.DB, prefix string) *Translator {
	return &Translator{DB: db, Prefix: prefix}
}

// StepTotal sums recorded step durations.
func (t *Translator) StepTotal() time.Duration {
	var d time.Duration
	for _, s := range t.Steps {
		d += s.Time
	}
	return d
}

// tname builds a namespaced table name.
func (t *Translator) tname(parts ...string) string {
	name := t.Prefix
	for _, p := range parts {
		name += "_" + p
	}
	return name
}

// relForm describes the current intermediate relation during inference.
type relForm struct {
	table string
	// flat=true → {TupleID, KernelID, Value}; false → patch form
	// {MatrixID, OrderID, Value} ready for a kernel join.
	flat    bool
	c, h, w int // logical tensor shape of the data the relation represents
}

func (r relForm) size() int { return r.c * r.h * r.w }

// Supported reports whether the translator can compile the given layer
// (Table II's support matrix).
func Supported(l nn.Layer) bool {
	switch l.Kind() {
	case nn.KindConv2D, nn.KindDeconv2D, nn.KindBatchNorm, nn.KindInstanceNorm,
		nn.KindReLU, nn.KindSigmoid, nn.KindMaxPool, nn.KindAvgPool,
		nn.KindGlobalAvg, nn.KindLinear, nn.KindSoftmax, nn.KindFlatten,
		nn.KindAttention, nn.KindResidual, nn.KindIdentity, nn.KindDense:
		return true
	}
	return false
}
