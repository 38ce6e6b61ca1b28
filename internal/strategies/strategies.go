// Package strategies implements the paper's four experimental
// configurations for collaborative query processing:
//
//   - DB-PyTorch  — independent processing: the application layer splits the
//     query, ships keyframes to a separate model-serving component over a
//     real byte-pipe (serialization and transfer are actually performed),
//     and merges predictions back into the database.
//   - DB-UDF      — loose integration: the compiled model artifact is
//     registered as a native scalar UDF and the whole query runs in the
//     database, with the UDF opaque to the optimizer.
//   - DL2SQL      — tight integration: inference is rewritten to SQL by the
//     dl2sql translator and executed for every candidate keyframe.
//   - DL2SQL-OP   — DL2SQL plus Section IV's optimizations: hint rules 1–3
//     and the customized cost model decide nUDF placement, so only tuples
//     surviving the relational predicates are inferred.
//
// Every strategy returns the paper's cost breakdown: loading (model +
// data movement), inference, and relational algebra, in seconds.
package strategies

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/colquery"
	"repro/internal/dl2sql"
	"repro/internal/faults"
	"repro/internal/hints"
	"repro/internal/hwprofile"
	"repro/internal/iotdata"
	"repro/internal/modelrepo"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/schedule"
	"repro/internal/sqldb"
	"repro/internal/tensor"
)

// CostBreakdown is the paper's three-bucket cost accounting (seconds).
type CostBreakdown struct {
	Loading    float64
	Inference  float64
	Relational float64
	// FallbackPath records graceful degradation: the strategies tried in
	// order, ending with the one that produced the result. Empty when the
	// primary strategy succeeded (see ExecuteWithFallback).
	FallbackPath []string
}

// Total sums the buckets.
func (c CostBreakdown) Total() float64 { return c.Loading + c.Inference + c.Relational }

// Add accumulates another breakdown.
func (c *CostBreakdown) Add(o CostBreakdown) {
	c.Loading += o.Loading
	c.Inference += o.Inference
	c.Relational += o.Relational
	c.FallbackPath = append(c.FallbackPath, o.FallbackPath...)
}

// Scale divides every bucket by n (for averaging).
func (c CostBreakdown) Scale(n float64) CostBreakdown {
	return CostBreakdown{Loading: c.Loading / n, Inference: c.Inference / n,
		Relational: c.Relational / n, FallbackPath: c.FallbackPath}
}

// UDFKind describes how a model's class prediction converts to a SQL value.
type UDFKind int

const (
	// UDFBool: binary classifiers — class 1 maps to TRUE ("Defect").
	UDFBool UDFKind = iota
	// UDFLabel: the class label string.
	UDFLabel
	// UDFIndex: the class index as an integer (pattern recognition, whose
	// indices align with fabric.patternID).
	UDFIndex
)

// UDFBinding wires an nUDF name to a repository model.
type UDFBinding struct {
	Name  string // lower-cased nUDF name
	Entry *modelrepo.Entry
	Kind  UDFKind
	// Artifact is the compiled model (built once, offline).
	Artifact []byte
	// artifactHash fingerprints Artifact: it keys the loaded models and
	// the inference-memoization keys.
	artifactHash uint64
}

// Context carries the shared experimental fixtures.
type Context struct {
	Dataset  *iotdata.Dataset
	Bindings map[string]*UDFBinding
	Profile  hwprofile.Profile
	// HintProvider supplies Eq. 9–10 selectivities for DL2SQL-OP.
	HintProvider *hints.Provider
	// Metrics, when non-nil, accumulates per-strategy phase latency
	// histograms and query counters across Execute calls.
	Metrics *obs.Registry
	// History, when non-nil, receives one strategy-level QueryRecord per
	// ExecuteWithFallback call: strategy name, fallback path, serving
	// retries, and inference-call counts — the accounting the engine-level
	// recorder cannot see. Share the engine's ring (Dataset.DB.History) to
	// interleave both layers in sys.queries, or use a separate ring to keep
	// them apart.
	History *obs.QueryHistory
	// Traces, when non-nil, arms request-scoped tracing at the strategy
	// layer: every ExecuteWithFallback call gets (or joins) a trace whose
	// span tree the store tail-samples — one strategy:* span per strategy
	// tried with nested loading/inference/relational phase spans (and,
	// below them, per-NN-layer or per-SQL-step spans). Share the engine's
	// store (Dataset.DB.Traces) so strategy and statement spans land in
	// one tree.
	Traces *obs.TraceStore
	// InferCache, when non-nil, memoizes (model, keyframe) → class index
	// for all four strategies. Enable with EnableInferCache; nil disables
	// memoization at zero cost.
	InferCache *cache.LRU[InferKey, int]
	// Faults, when non-nil, injects failures at the serving, UDF-decode,
	// and DL2SQL-translate points (chaos testing). Nil in production.
	Faults *faults.Injector
	// Retry configures the DB-PyTorch serving pipe's retry loop; the zero
	// value uses defaults (see RetryPolicy).
	Retry RetryPolicy
	// Breaker, when non-nil, is the circuit breaker guarding the serving
	// pipe; it persists across Execute calls so repeated failures fail
	// fast. Nil disables the breaker.
	Breaker *Breaker
	// Scheduler, when non-nil, routes DB-UDF and DB-PyTorch forward passes
	// through the cross-query inference scheduler: batches from concurrent
	// queries coalesce into shared backend calls and identical in-flight
	// requests single-flight onto one computation. Enable with
	// EnableScheduler; nil runs each batch on its backend directly. DL2SQL
	// never waits on it (see fallbackFor).
	Scheduler *schedule.Scheduler
	// native and serving are the backends every DB-UDF and DB-PyTorch
	// batch runs on, scheduled or not: in-process batched inference and
	// the breaker-guarded serving pipe. NewContext builds them.
	native  *schedule.Backend
	serving *schedule.Backend
	// models holds each bound artifact's decoded model and DL2SQL stored
	// tables, each loaded on its first use.
	models modelStore
}

// recordBreakdown folds one Execute's cost breakdown into the metrics
// registry. Safe to call with a nil registry.
func (env *Context) recordBreakdown(strategy string, bd CostBreakdown) {
	m := env.Metrics.Strategy(strategy)
	if m == nil {
		return
	}
	m.Queries.Add(1)
	m.Loading.Observe(bd.Loading)
	m.Inference.Observe(bd.Inference)
	m.Relational.Observe(bd.Relational)
	m.Total.Observe(bd.Total())
}

// NewContext assembles a context over a dataset with the default profile.
func NewContext(ds *iotdata.Dataset) *Context {
	env := &Context{
		Dataset:  ds,
		Bindings: map[string]*UDFBinding{},
		Profile:  hwprofile.EdgeCPU,
	}
	env.native = schedule.NewNativeBackend(env.loadModel)
	// The serving backend runs one batch as one serveWithRetry call:
	// breaker, retry policy, and serving fault points all apply.
	env.serving = &schedule.Backend{ID: "serving", Run: env.serveWithRetry}
	return env
}

// Bind registers a model for an nUDF name, compiling its artifact, and
// installs the nUDF in the dataset's database for DB-UDF to call: a black
// box, with no cost or selectivity for the optimizer.
func (env *Context) Bind(name string, entry *modelrepo.Entry, kind UDFKind) error {
	blob, err := nn.EncodeBytes(entry.Model)
	if err != nil {
		return fmt.Errorf("strategies: compiling %s: %w", name, err)
	}
	name = strings.ToLower(name)
	env.Bindings[name] = &UDFBinding{
		Name: name, Entry: entry, Kind: kind, Artifact: blob,
		artifactHash: tensor.HashBytes(blob),
	}
	env.Dataset.DB.RegisterUDF(&sqldb.ScalarUDF{Name: name, Arity: 1, ParallelSafe: true, Fn: nudfFn(name)})
	env.releaseModels()
	return nil
}

// BindDefaults wires the three template nUDFs to repository models and
// calibrates their histograms (the offline-training step).
func (env *Context) BindDefaults(repo *modelrepo.Repository, calibrationSamples int) error {
	side := env.Dataset.Config.KeyframeSide
	pairs := []struct {
		name string
		task modelrepo.Task
		kind UDFKind
	}{
		{"nudf_detect", modelrepo.TaskDefectDetection, UDFBool},
		{"nudf_classify", modelrepo.TaskPatternRecog, UDFLabel},
		{"nudf_recog", modelrepo.TaskPatternRecog, UDFIndex},
	}
	prov := hints.NewProvider()
	for _, p := range pairs {
		entry := repo.ForTask(p.task)
		if entry == nil {
			return fmt.Errorf("strategies: no model for task %s", p.task)
		}
		if entry.Histogram == nil {
			if err := entry.Calibrate(calibrationSamples, side, 1234); err != nil {
				return err
			}
		}
		if err := env.Bind(p.name, entry, p.kind); err != nil {
			return err
		}
		if err := prov.RegisterModel(p.name, entry); err != nil {
			return err
		}
	}
	env.HintProvider = prov
	return nil
}

// modelStore memoises each bound artifact's decoded nn.Model and DL2SQL
// stored tables by artifact hash: the first use loads one, every later use
// under any nUDF bound to that artifact reuses it.
type modelStore struct {
	mu      sync.Mutex
	byHash  map[uint64]*storedEntry
	decodes atomic.Int64 // artifacts decoded
}

// storedEntry serialises the first loads of one artifact. A failed load
// leaves its field nil, so the next use retries it.
type storedEntry struct {
	mu         sync.Mutex
	sm         *dl2sql.StoredModel
	model      *nn.Model
	decodeSecs float64
}

// entry returns an artifact hash's entry, creating it.
func (ms *modelStore) entry(hash uint64) *storedEntry {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.byHash == nil {
		ms.byHash = map[uint64]*storedEntry{}
	}
	e := ms.byHash[hash]
	if e == nil {
		e = &storedEntry{}
		ms.byHash[hash] = e
	}
	return e
}

// loadModel is the one model-load path of DB-UDF's loading phase, the
// native backend and DB-PyTorch's serving loop. It returns the shared,
// read-only decoded model of the artifact with the given hash — a caller
// that traces runs a shallow copy with its own Trace — and the seconds its
// decode took when first loaded, the strategies' model-load charge.
func (env *Context) loadModel(hash uint64, artifact []byte) (*nn.Model, float64, error) {
	e := env.models.entry(hash)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.model == nil {
		start := time.Now()
		m, err := nn.DecodeBytes(artifact)
		if err != nil {
			return nil, 0, err
		}
		e.model, e.decodeSecs = m, time.Since(start).Seconds()
		env.models.decodes.Add(1)
	}
	return e.model, e.decodeSecs, nil
}

// storedModel returns the stored model of b's artifact, storing it under
// the artifact's own table prefix on first use; concurrent first uses
// store it once.
func (env *Context) storedModel(b *UDFBinding) (*dl2sql.StoredModel, error) {
	e := env.models.entry(b.artifactHash)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sm == nil {
		tr := dl2sql.NewTranslator(env.Dataset.DB, fmt.Sprintf("dl2sql_m%016x", b.artifactHash))
		sm, err := tr.StoreModel(b.Entry.Model)
		if err != nil {
			return nil, err
		}
		e.sm = sm
		if env.Metrics != nil {
			env.Metrics.Counter(obs.MetricDL2SQLModelsStored).Add(1)
		}
	}
	return e.sm, nil
}

// releaseModels drops the loaded forms of artifacts no binding references
// any more (a rebound nUDF's previous model).
func (env *Context) releaseModels() {
	bound := make(map[uint64]bool, len(env.Bindings))
	for _, b := range env.Bindings {
		bound[b.artifactHash] = true
	}
	ms := &env.models
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for h, e := range ms.byHash {
		if bound[h] {
			continue
		}
		e.mu.Lock()
		if e.sm != nil {
			e.sm.Drop()
		}
		e.mu.Unlock()
		delete(ms.byHash, h)
	}
}

// predictionDatum converts a class prediction to the binding's SQL type.
func (b *UDFBinding) predictionDatum(classIdx int) sqldb.Datum {
	switch b.Kind {
	case UDFBool:
		return sqldb.Bool(classIdx == 1)
	case UDFLabel:
		classes := b.Entry.Model.Classes
		if classIdx < len(classes) {
			return sqldb.Str(classes[classIdx])
		}
		return sqldb.Str(fmt.Sprintf("class_%d", classIdx))
	default:
		return sqldb.Int(int64(classIdx))
	}
}

// predictionType is the SQL column type of the binding's outputs.
func (b *UDFBinding) predictionType() sqldb.Type {
	switch b.Kind {
	case UDFBool:
		return sqldb.TBool
	case UDFLabel:
		return sqldb.TString
	default:
		return sqldb.TInt
	}
}

// Strategy executes collaborative queries one way.
type Strategy interface {
	// Name is the Fig. 8 configuration label.
	Name() string
	// Execute runs the query under ctx (cancellation and deadlines are
	// observed down to SQL morsel boundaries; a caller bounds a query with
	// context.WithTimeout), returning its result and cost breakdown. Lifecycle
	// failures carry the qerr sentinels: ErrCancelled, ErrTimeout,
	// ErrServingUnavailable, ErrMemoryBudget.
	Execute(ctx context.Context, env *Context, q *colquery.Query) (*sqldb.Result, CostBreakdown, error)
}

// All returns the four configurations in the paper's order.
func All() []Strategy {
	return []Strategy{
		&DL2SQL{Optimized: false},
		&DL2SQL{Optimized: true},
		&DBUDF{},
		&DBPyTorch{},
	}
}

// fallbackFor is the graceful-degradation ladder: when a strategy fails
// with a serving-availability error, the query is retried one integration
// level tighter — DB-PyTorch falls back to DB-UDF (no serving component),
// DB-UDF falls back to DL2SQL (no native model execution at all). DL2SQL
// has nothing below it, so it never waits on the scheduler: a draining
// scheduler fails DB-UDF with qerr.ErrServingUnavailable, and DL2SQL must
// still answer.
func fallbackFor(s Strategy) Strategy {
	switch s.(type) {
	case *DBPyTorch:
		return &DBUDF{}
	case *DBUDF:
		return &DL2SQL{}
	}
	return nil
}

// ExecuteWithFallback runs the strategy, degrading down the fallback
// ladder when the failure is a serving-availability problem
// (qerr.ErrServingUnavailable — a dead serving pipe, an open circuit
// breaker, a failed UDF model decode). Caller cancellation, query
// timeouts, memory-budget failures, and data errors never degrade: they
// report the original error. The result's FallbackPath lists the
// strategies tried (ending with the one that answered) whenever
// degradation engaged; each hop is also recorded as a
// "strategy.fallback.<from>→<to>" metrics counter and a fallback span.
func ExecuteWithFallback(ctx context.Context, env *Context, s Strategy, q *colquery.Query) (*sqldb.Result, CostBreakdown, error) {
	if env.History == nil && env.Traces == nil && obs.TraceFromContext(ctx) == nil {
		res, bd, _, err := executeWithFallback(ctx, env, s, q)
		return res, bd, err
	}
	// Recorded execution: thread a strategy-level accounting struct through
	// the context (the serving retry loop and both native inference paths
	// charge it) and leave one QueryRecord behind — including on error.
	//
	// Trace ownership follows obs.TraceStore.Enter: inside a served request
	// this execution contributes a "colquery" child span; otherwise it is
	// the outermost traced layer and owns the trace.
	acct := &stratAcct{}
	start := time.Now()
	ctx, scope := env.Traces.Enter(ctx, "colquery", "colquery", start)
	scope.Span.SetAttr("sql", q.SQL)
	res, bd, final, err := executeWithFallback(withStratAcct(ctx, acct), env, s, q)
	traceID := scope.Exit(time.Now(), qerr.Class(err))
	env.recordExecution(q.SQL, final, bd, acct, start, res, err, traceID)
	return res, bd, err
}

// executeWithFallback is the fallback-ladder loop; it additionally returns
// the name of the strategy that answered (or failed last) for recording.
func executeWithFallback(ctx context.Context, env *Context, s Strategy, q *colquery.Query) (*sqldb.Result, CostBreakdown, string, error) {
	var bd CostBreakdown
	var path []string
	for {
		res, cur, err := s.Execute(ctx, env, q)
		bd.Loading += cur.Loading
		bd.Inference += cur.Inference
		bd.Relational += cur.Relational
		if err == nil {
			if len(path) > 0 {
				bd.FallbackPath = append(path, s.Name())
			}
			return res, bd, s.Name(), nil
		}
		next := fallbackFor(s)
		if next == nil || !errors.Is(err, qerr.ErrServingUnavailable) {
			bd.FallbackPath = path
			return nil, bd, s.Name(), err
		}
		if qerr.FromContext(ctx.Err()) != nil {
			// The query itself is done; degradation would run a fresh
			// strategy against a dead context.
			bd.FallbackPath = path
			return nil, bd, s.Name(), err
		}
		path = append(path, s.Name())
		if env.Metrics != nil {
			env.Metrics.Counter(obs.FallbackMetric(s.Name(), next.Name())).Add(1)
			env.Metrics.Counter(obs.MetricFallbackTotal).Add(1)
		}
		obs.TraceFromContext(ctx).MarkFallback()
		_, sp := obs.StartSpan(ctx, "fallback:"+s.Name()+"->"+next.Name())
		sp.SetAttr("cause", err.Error())
		sp.Finish()
		s = next
	}
}

// candidate is one keyframe requiring inference.
type candidate struct {
	videoID int64
	blob    []byte
}

// videoSideCandidates extracts the video rows selected by the query's
// single-relation predicates on the keyframe relation (the set a strategy
// without cross-table pruning must infer).
func videoSideCandidates(ctx context.Context, env *Context, q *colquery.Query) ([]candidate, error) {
	alias := keyframeAlias(q)
	conds := videoConds(q, alias)
	where := ""
	if len(conds) > 0 {
		where = " WHERE " + strings.Join(conds, " AND ")
	}
	sql := fmt.Sprintf("SELECT videoID, keyframe FROM video %s%s", alias, where)
	res, err := env.Dataset.DB.ExecContext(ctx, sql)
	if err != nil {
		return nil, fmt.Errorf("strategies: extracting candidates: %w", err)
	}
	return candidatesFromResult(res)
}

// prunedCandidates extracts the distinct video rows surviving *all* non-UDF
// predicates and joins (DL2SQL-OP's delayed evaluation).
func prunedCandidates(ctx context.Context, env *Context, q *colquery.Query, h *sqldb.QueryHints) ([]candidate, error) {
	alias := keyframeAlias(q)
	stripped := stripUDFConjuncts(q.Stmt)
	stripped.Items = []sqldb.SelectItem{
		{Expr: &sqldb.ColRef{Table: alias, Name: "videoID"}},
		{Expr: &sqldb.ColRef{Table: alias, Name: "keyframe"}},
	}
	stripped.Distinct = true
	stripped.GroupBy = nil
	stripped.Having = nil
	stripped.OrderBy = nil
	res, err := env.Dataset.DB.ExecStmtContext(ctx, stripped, h)
	if err != nil {
		return nil, fmt.Errorf("strategies: extracting pruned candidates: %w", err)
	}
	return candidatesFromResult(res)
}

func candidatesFromResult(res *sqldb.Result) ([]candidate, error) {
	n := res.NumRows()
	out := make([]candidate, 0, n)
	for i := 0; i < n; i++ {
		id, _ := res.Cols[0].Get(i).AsInt()
		blob := res.Cols[1].Get(i)
		if blob.T != sqldb.TBlob {
			return nil, fmt.Errorf("strategies: keyframe column is %s, want Blob", blob.T)
		}
		out = append(out, candidate{videoID: id, blob: blob.B})
	}
	return out, nil
}

// keyframeAlias finds the alias of the relation feeding the nUDFs (the
// video table in every template).
func keyframeAlias(q *colquery.Query) string {
	for _, u := range q.UDFs {
		if i := strings.IndexByte(u.Arg, '.'); i > 0 {
			return u.Arg[:i]
		}
	}
	return "V"
}

// videoConds renders the single-relation conjuncts on the keyframe alias.
func videoConds(q *colquery.Query, alias string) []string {
	var out []string
	for _, c := range colquery.WhereConjuncts(q.Stmt) {
		if len(colquery.NUDFCalls(c)) > 0 {
			continue
		}
		rels := colquery.Qualifiers(c)
		if len(rels) == 1 && strings.EqualFold(rels[0], alias) {
			out = append(out, c.String())
		}
	}
	return out
}
