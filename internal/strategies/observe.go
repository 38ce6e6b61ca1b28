package strategies

// Strategy-layer self-observability.
//
// Two pieces live here. First, a per-execution accounting struct threaded
// through the context (mirroring the executor's queryAcct one layer down):
// the serving retry loop and every inference path charge it, and
// ExecuteWithFallback folds the totals into one obs.QueryRecord per
// collaborative query — strategy name, fallback path, retries, and
// inference calls included, which the engine-level recorder cannot see.
// Second, AttachObservability, which projects strategy-owned state into
// the engine's sys.* catalog: the live sys.breaker table (replacing the
// engine's empty stub) and an "inference" row in sys.cache.

import (
	"context"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/sqldb"
)

// stratAcct accumulates one collaborative-query execution's serving-side
// resource usage. Counters are atomics: UDF inference runs on morsel
// workers and the serving loop runs on its own goroutine.
type stratAcct struct {
	inferCalls atomic.Int64
	retries    atomic.Int64
}

type stratAcctKey struct{}

// withStratAcct attaches an accounting struct to the context.
func withStratAcct(ctx context.Context, a *stratAcct) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, stratAcctKey{}, a)
}

// stratAcctFrom recovers the execution's accounting struct, if any.
func stratAcctFrom(ctx context.Context) *stratAcct {
	if ctx == nil {
		return nil
	}
	a, _ := ctx.Value(stratAcctKey{}).(*stratAcct)
	return a
}

// noteInfer charges n inferred keyframes, whether by forward pass or by
// DL2SQL's SQL pipeline (memoized hits are not inference).
func (a *stratAcct) noteInfer(n int64) {
	if a != nil {
		a.inferCalls.Add(n)
	}
}

// noteRetry charges one serving-batch retry attempt.
func (a *stratAcct) noteRetry() {
	if a != nil {
		a.retries.Add(1)
	}
}

// recordExecution appends one strategy-level QueryRecord to env.History.
func (env *Context) recordExecution(sql, strategy string, bd CostBreakdown, acct *stratAcct,
	start time.Time, res *sqldb.Result, err error, traceID string) {
	rec := obs.QueryRecord{
		SQL:        sql,
		Strategy:   strategy,
		Fallback:   strings.Join(bd.FallbackPath, "->"),
		Start:      start,
		Wall:       time.Since(start),
		Busy:       time.Duration(bd.Total() * float64(time.Second)),
		InferCalls: acct.inferCalls.Load(),
		Retries:    acct.retries.Load(),
		ErrClass:   qerr.Class(err),
		TraceID:    traceID,
	}
	if err != nil {
		rec.Err = err.Error()
	}
	if res != nil {
		rec.RowsOut = int64(res.NumRows())
		for _, c := range res.Cols {
			rec.BytesOut += c.ApproxBytes()
		}
	}
	env.History.Add(rec)
	env.Metrics.QueryMetrics().Observe(&rec, env.History.SlowThreshold())
}

// AttachObservability projects strategy-owned state into the engine's
// sys.* catalog: it replaces the engine's empty sys.breaker stub with live
// circuit-breaker rows and registers the inference cache as an extra
// sys.cache row. Call after the Context's Breaker and InferCache are
// configured (the scans read them through env at scan time, so later
// reconfiguration is picked up automatically).
func (env *Context) AttachObservability(db *sqldb.DB) {
	schema := sqldb.BreakerTableSchema()
	db.RegisterSysTable(&sqldb.SysTable{
		Name:        "sys.breaker",
		Description: "live circuit-breaker state for the serving pipe: state, trips, and the failure/cooldown policy",
		Schema:      schema,
		Scan: func(*sqldb.DB) (*sqldb.Result, error) {
			res := &sqldb.Result{Schema: schema}
			for _, c := range schema {
				res.Cols = append(res.Cols, sqldb.NewColumn(c.Type))
			}
			b := env.Breaker
			if b == nil {
				return res, nil
			}
			vals := []sqldb.Datum{
				sqldb.Str("serving-pipe"), sqldb.Str(b.State()),
				sqldb.Int(b.Trips()), sqldb.Int(int64(b.failThreshold())),
				sqldb.Float(float64(b.cooldown()) / float64(time.Millisecond)),
			}
			for i, v := range vals {
				if err := res.Cols[i].Append(v); err != nil {
					return nil, err
				}
			}
			return res, nil
		},
	})
	db.RegisterCacheStats(func() []sqldb.CacheStat {
		if env.InferCache == nil {
			return nil
		}
		return []sqldb.CacheStat{{Name: "inference", Stats: env.InferCache.Stats()}}
	})
}

// phase is one strategy phase timed by one pair of clock readings: its
// span opens on the reading that starts the phase's bucket term and
// closes on the one that ends it.
type phase struct {
	span  *obs.Span
	start time.Time
}

// startPhase opens a phase under ctx's active span and returns the context
// carrying its span.
func startPhase(ctx context.Context, name string) (context.Context, phase) {
	start := time.Now()
	sp := obs.SpanFromContext(ctx).StartChildAt(name, start)
	return obs.ContextWithSpan(ctx, sp), phase{span: sp, start: start}
}

// end finishes the phase's span and returns the phase's seconds.
func (p phase) end() float64 {
	end := time.Now()
	p.span.FinishAt(end)
	return end.Sub(p.start).Seconds()
}

// failSpans ends a phase on an error return: it tags spans[0], the
// innermost open span, with err's class (attribute err, as a trace's root
// carries it), finishes every span innermost first so that none ends after
// its parent, and returns err. Finish is idempotent, so a span already
// closed keeps its end.
func failSpans(err error, spans ...*obs.Span) error {
	spans[0].SetAttr("err", qerr.Class(err))
	for _, sp := range spans {
		sp.Finish()
	}
	return err
}
