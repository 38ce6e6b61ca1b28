package sqldb

// Query lifecycle control: context threading, typed lifecycle errors,
// per-query memory budgets, and recover-at-boundary panic conversion.
//
// Every public execution entry point has a *Context variant that threads a
// context.Context to the executor. Cancellation and deadlines are observed
// cooperatively at morsel boundaries: parallel operators pass the context
// to par.RunErrCtx (workers stop pulling morsels once it is done and drain
// cleanly), the plan walker checks it once per plan node, and serial
// operator loops iterate morsel-sized chunks. A cancelled query returns an
// error matching qerr.ErrCancelled; an expired deadline returns one
// matching qerr.ErrTimeout.
//
// The memory budget (DB.MemoryBudget, or the faults "mem.pressure" point)
// bounds the bytes a query may materialize across operator outputs; when
// the running total exceeds the budget the query fails with
// qerr.ErrMemoryBudget instead of OOMing the process. Each column is
// charged once, where it first enters the query (a scan's snapshot or an
// operator's output), so a column passed through projections and FROM
// subqueries counts once. Column byte sizes are only computed while a
// budget is armed, so the disabled path costs a single branch per plan
// node.
//
// Panics escaping the executor or a scalar UDF (shape mismatches in tensor
// kernels, malformed artifacts, engine bugs) are recovered at the public
// entry points — and re-raised onto the calling goroutine by par.Run when
// they happen on a worker — then converted to qerr.ErrInternal-wrapped
// errors, so a malformed query can no longer crash the process.

import (
	"context"
	"fmt"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/qerr"
)

// ctxErr returns the classified context error (qerr.ErrCancelled /
// qerr.ErrTimeout) when ctx is done, nil otherwise.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return qerr.FromContext(ctx.Err())
}

// normCtx maps context.Background() (and nil) to nil so the executor's
// per-node and per-morsel checks stay on their zero-cost path for callers
// that do not use cancellation.
func normCtx(ctx context.Context) context.Context {
	if ctx == context.Background() {
		return nil
	}
	return ctx
}

// check is the executor's cancellation point: one branch when the query
// carries no context.
func (ec *execCtx) check() error {
	if ec.ctx == nil {
		return nil
	}
	return qerr.FromContext(ec.ctx.Err())
}

// charge adds the approximate size of a node output's columns that no
// earlier node produced to the query's running total (see chargeBytes). A
// zero budget (the default) is one branch.
func (ec *execCtx) charge(res *Result) error {
	if ec.memBudget <= 0 || res == nil {
		return nil
	}
	var bytes int64
	for _, c := range res.Cols {
		if c != nil && !ec.charged[c] {
			ec.charged[c] = true
			bytes += c.ApproxBytes()
		}
	}
	return ec.chargeBytes(bytes)
}

// chargeBytes adds n bytes to the query's running total and fails the
// query once the budget is exceeded.
func (ec *execCtx) chargeBytes(n int64) error {
	if ec.memBudget <= 0 {
		return nil
	}
	if ec.memUsed += n; ec.memUsed > ec.memBudget {
		return fmt.Errorf("%w: materialized ~%d bytes across operators, budget %d",
			qerr.ErrMemoryBudget, ec.memUsed, ec.memBudget)
	}
	return nil
}

// ---- per-query context overrides ----
//
// The multi-session server shares one DB across many tenants, so the
// DB-level MemoryBudget and Parallelism knobs are not enough: each query
// needs its own limits. These overrides ride the query's context and are
// consulted once per statement when the execution context is assembled.

type memBudgetKey struct{}
type parallelismKey struct{}

// WithMemoryBudget returns a context carrying a per-query materialization
// budget in bytes. The executor applies the tightest of the DB-level
// MemoryBudget knob, this override, and any armed "mem.pressure" fault —
// an override can tighten a global cap but never loosen it. bytes <= 0
// returns ctx unchanged.
func WithMemoryBudget(ctx context.Context, bytes int64) context.Context {
	if bytes <= 0 {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, memBudgetKey{}, bytes)
}

// WithParallelism returns a context carrying a per-query worker-degree
// override: 1 forces serial execution, N > 1 caps operators at N workers.
// It takes precedence over the DB.Parallelism knob (the serving layer's
// per-session \parallel equivalent). n <= 0 returns ctx unchanged.
func WithParallelism(ctx context.Context, n int) context.Context {
	if n <= 0 {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, parallelismKey{}, n)
}

func memBudgetFrom(ctx context.Context) int64 {
	if ctx == nil {
		return 0
	}
	b, _ := ctx.Value(memBudgetKey{}).(int64)
	return b
}

func parallelismFrom(ctx context.Context) int {
	if ctx == nil {
		return 0
	}
	n, _ := ctx.Value(parallelismKey{}).(int)
	return n
}

// effectiveBudget resolves the query's byte budget: the DB knob, tightened
// by a context override and by an armed "mem.pressure" fault.
func (db *DB) effectiveBudget(ctx context.Context) int64 {
	budget := db.MemoryBudget
	if o := memBudgetFrom(ctx); o > 0 && (budget <= 0 || o < budget) {
		budget = o
	}
	if p := db.Faults.Bytes(faults.PointMemPressure); p > 0 && (budget <= 0 || p < budget) {
		budget = p
	}
	return budget
}

// newExecCtx assembles the per-query execution context. A request-scoped
// span in the context (the statement span recordQuery opened) becomes the
// parent of the per-operator spans.
func (db *DB) newExecCtx(ctx context.Context) *execCtx {
	deg := db.parDegree()
	if o := parallelismFrom(ctx); o > 0 {
		deg = o
	}
	ec := &execCtx{span: obs.SpanFromContext(ctx), par: deg, ctx: normCtx(ctx), rels: relationsFrom(ctx), faults: db.Faults, acct: acctFrom(ctx), args: argsFrom(ctx)}
	if b := db.effectiveBudget(ctx); b > 0 {
		ec.memBudget = b
		ec.charged = map[*Column]bool{}
	}
	return ec
}

// runMorsels fans a morsel loop out through par.RunErrCtx with the query's
// context, applying the slow-morsel fault point when armed.
func (db *DB) runMorsels(ec *execCtx, deg, n int, fn func(w, lo, hi int) error) (par.Stats, error) {
	if ec.faults.Active(faults.PointMorselDelay) {
		inner := fn
		fn = func(w, lo, hi int) error {
			if err := ec.faults.Hit(ec.ctx, faults.PointMorselDelay); err != nil {
				return err
			}
			return inner(w, lo, hi)
		}
	}
	return par.RunErrCtx(ec.ctx, deg, n, morselRows, fn)
}

// ---- context-threading public API ----

// ExecContext is Exec with cancellation and deadline support: the query
// observes ctx at morsel boundaries and returns an error matching
// qerr.ErrCancelled / qerr.ErrTimeout when it fires mid-flight.
func (db *DB) ExecContext(ctx context.Context, sql string) (*Result, error) {
	return db.ExecHintedContext(ctx, sql, nil)
}

// QueryContext is Query with cancellation and deadline support.
func (db *DB) QueryContext(ctx context.Context, sql string) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, qerr.Recovered("sqldb query", r)
		}
	}()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return db.execText(ctx, sql, nil, true)
}

// ExecHintedContext is ExecHinted with cancellation and deadline support.
func (db *DB) ExecHintedContext(ctx context.Context, sql string, hints *QueryHints) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, qerr.Recovered("sqldb exec", r)
		}
	}()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return db.execText(ctx, sql, hints, false)
}

// ExecStmtContext is ExecStmt with cancellation and deadline support. With
// the statement store on, a SELECT or EXPLAIN is rendered once and runs as
// its text would (cache.go).
func (db *DB) ExecStmtContext(ctx context.Context, st Stmt, hints *QueryHints) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, qerr.Recovered("sqldb exec", r)
		}
	}()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	switch st.(type) {
	case *SelectStmt, *ExplainStmt:
		if db.storeFor(hints) != nil {
			return db.execText(ctx, st.String(), hints, false)
		}
	}
	return db.execStmtRecorded(ctx, st, "", hints, source{})
}

// execText runs the statements of sql, one SELECT when query is set. One
// SELECT, or EXPLAIN of one, runs from the statement store while it is on;
// one statement is recorded under sql itself.
func (db *DB) execText(ctx context.Context, sql string, hints *QueryHints, query bool) (*Result, error) {
	if store := db.storeFor(hints); store != nil {
		if k, ok := scanKey(sql); ok && !k.params && !(query && k.explain) {
			t, fresh, err := db.template(store, sql, k)
			if err != nil {
				return nil, err
			}
			st := t.stmt
			if k.explain {
				st = &ExplainStmt{Query: t.stmt.(*SelectStmt), Analyze: k.analyze}
			}
			res, err := db.runTemplate(ctx, t, st, sql, t.args(k.vals, nil), "hit", hints)
			if err == nil && fresh {
				store.Put(k.key, t)
			}
			return res, err
		}
	}
	stmts, err := ParseMulti(sql)
	if err != nil {
		return nil, err
	}
	if query {
		if len(stmts) != 1 {
			return nil, fmt.Errorf("sqldb: expected one statement, got %d", len(stmts))
		}
		if _, ok := stmts[0].(*SelectStmt); !ok {
			return nil, fmt.Errorf("sqldb: Query expects a SELECT, got %T", stmts[0])
		}
	}
	text := ""
	if len(stmts) == 1 {
		text = sql
	}
	var last *Result
	for _, st := range stmts {
		if last, err = db.execStmtRecorded(ctx, st, text, hints, source{}); err != nil {
			return nil, err
		}
	}
	return last, nil
}
