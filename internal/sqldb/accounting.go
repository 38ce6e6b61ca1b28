package sqldb

// Per-query resource accounting.
//
// When DB.History is armed, every statement executed through a public
// entry point runs with a queryAcct attached to its context. The executor
// feeds it from the instrumentation points that also stamp the operator
// spans — ec.profAdd at every operator accounting site, notePar at every
// morsel fan-out — so the accounting's always-on cost is a nil
// check plus a handful of atomic adds per operator, not per row. At
// statement end the accumulated numbers become one obs.QueryRecord in the
// history ring (and, over the slow threshold, one structured slow-log
// line), plus the engine-level counters/histogram in DB.Metrics, whose
// handles are resolved once per registry (engineMetrics).
//
// Counter fields are atomics because operator accounting can run on morsel
// workers; cacheState is only written by the statement's own goroutine
// during planning, before any worker exists, and read after execution
// completes, so it needs no synchronization.

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/qerr"
)

// queryAcct accumulates one statement's resource usage.
type queryAcct struct {
	busyNanos   atomic.Int64
	rowsScanned atomic.Int64
	morsels     atomic.Int64
	parallelOps atomic.Int64
	udfCalls    atomic.Int64

	cacheState string
}

// acctKey carries the statement's queryAcct through the context.
type acctKey struct{}

// withAcct attaches an accounting struct to the context.
func withAcct(ctx context.Context, a *queryAcct) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, acctKey{}, a)
}

// acctFrom recovers the statement's accounting struct, if any.
func acctFrom(ctx context.Context) *queryAcct {
	if ctx == nil {
		return nil
	}
	a, _ := ctx.Value(acctKey{}).(*queryAcct)
	return a
}

// profAdd is the executor's operator accounting point: it charges the
// operator's time to the statement's accounting when one is attached.
//
// It takes the operator's start time (not a duration) and performs the end
// read itself, leaving that reading in ec.stamp — the traced executor path
// closes operator spans from the stamp instead of reading the clock again
// (see execPlan). All accounting sites run on the statement's own goroutine
// after any morsel fan-in, so the plain stamp field needs no locking.
func (ec *execCtx) profAdd(start time.Time) {
	end := time.Now()
	ec.stamp = end
	if a := ec.acct; a != nil {
		a.busyNanos.Add(end.Sub(start).Nanoseconds())
	}
}

// profScan is profAdd for a scan, which also tallies the rows it read.
func (ec *execCtx) profScan(rows int, start time.Time) {
	ec.profAdd(start)
	if a := ec.acct; a != nil {
		a.rowsScanned.Add(int64(rows))
	}
}

// execStmtRecorded is execStmt plus history recording. With no history or
// trace store armed it is a plain passthrough; otherwise the statement
// runs with an accounting context and leaves one QueryRecord behind —
// including on error and on recovered panic. sql is the statement's
// recorded text; when empty, st is rendered, and only when a recorder is
// armed.
func (db *DB) execStmtRecorded(ctx context.Context, st Stmt, sql string, hints *QueryHints) (*Result, error) {
	if db.History == nil && db.Traces == nil {
		return db.execStmt(ctx, st, hints)
	}
	if sql == "" {
		sql = st.String()
	}
	return db.recordQuery(ctx, sql, func(ctx context.Context) (*Result, error) {
		return db.execStmt(ctx, st, hints)
	})
}

// recordQuery runs fn with a fresh accounting context and records the
// outcome into the history ring and the engine metrics. Callers must have
// checked that db.History or db.Traces is armed (execStmtRecorded and the
// prepared-statement fast path do).
//
// Trace ownership follows obs.TraceStore.Enter: inside a served request or
// an enclosing strategy execution the statement contributes an "sql" child
// span; otherwise it is the outermost traced layer and owns a "query"
// trace.
func (db *DB) recordQuery(ctx context.Context, sql string, fn func(ctx context.Context) (*Result, error)) (res *Result, err error) {
	hist := db.History
	acct := &queryAcct{}
	// The wall-clock start doubles as the trace/span start, so arming
	// tracing adds no statement-level clock reads over the history-only
	// baseline.
	start := time.Now()
	ctx, scope := db.Traces.Enter(ctx, "query", "sql", start)
	scope.Span.SetAttr("sql", sql)
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, qerr.Recovered("sqldb exec", r)
		}
		wall := time.Since(start)
		errClass := qerr.Class(err)
		traceID := scope.Exit(start.Add(wall), errClass)
		rec := obs.QueryRecord{
			SQL:         sql,
			Strategy:    "sql",
			CacheState:  acct.cacheState,
			Start:       start,
			Wall:        wall,
			Busy:        time.Duration(acct.busyNanos.Load()),
			RowsScanned: acct.rowsScanned.Load(),
			Morsels:     acct.morsels.Load(),
			ParallelOps: acct.parallelOps.Load(),
			UDFCalls:    acct.udfCalls.Load(),
			ErrClass:    errClass,
			TraceID:     traceID,
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
		hist.Add(rec)
		if m := db.metrics(); m != nil {
			m.query.Observe(&rec, hist.SlowThreshold())
		}
	}()
	return fn(withAcct(ctx, acct))
}

// claimCacheState reports whether the statement has no plan state noted
// yet and, if so, reserves the note for the caller: the statement's own
// SELECT notes its state once planning is done (plansFor), and the
// subqueries that planning runs note none.
func (a *queryAcct) claimCacheState() bool {
	if a == nil || a.cacheState != "" {
		return false
	}
	a.cacheState = "planning"
	return true
}

// engineMetrics are the engine's metric handles in one registry, resolved
// once per registry attached as DB.Metrics rather than looked up by name,
// under the registry's lock, on every statement and parallel operator.
// The query handles are the registry's own, shared with the strategies.
type engineMetrics struct {
	reg                                             *obs.Registry
	query                                           *obs.QueryMetrics
	parallelOps, parallelMorsels, planInvalidations *obs.Counter
}

// metrics returns the handles in DB.Metrics, or nil when none is attached.
func (db *DB) metrics() *engineMetrics {
	reg := db.Metrics
	if reg == nil {
		return nil
	}
	if m := db.handles.Load(); m != nil && m.reg == reg {
		return m
	}
	m := &engineMetrics{
		reg:               reg,
		query:             reg.QueryMetrics(),
		parallelOps:       reg.Counter(obs.MetricParallelOps),
		parallelMorsels:   reg.Counter(obs.MetricParallelMorsels),
		planInvalidations: reg.Counter(obs.MetricPlanInvalidations),
	}
	db.handles.Store(m)
	return m
}
