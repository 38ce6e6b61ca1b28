package sqldb

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/qerr"
)

// checkGoroutines asserts that the goroutine count settles back to the
// pre-test baseline, i.e. a cancelled query did not strand workers.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCancelMidQueryParallelNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	db := parFixture(t, 30000)
	db.Parallelism = 4
	// Every morsel sleeps 20ms, so a 30k-row scan (≈15 morsels) cannot
	// finish before the 5ms cancellation below — the query is guaranteed
	// to be in flight when the context fires.
	db.Faults = faults.New(1, faults.Rule{Point: faults.PointMorselDelay, Delay: 20 * time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := db.QueryContext(ctx, "SELECT g, count(*) c, sum(v) s FROM pt WHERE v > 1 GROUP BY g ORDER BY g")
	elapsed := time.Since(start)
	if res != nil || err == nil {
		t.Fatalf("cancelled query returned res=%v err=%v", res != nil, err)
	}
	if !errors.Is(err, qerr.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	// Cooperative cancellation must take effect at a morsel boundary, not
	// after the full scan: well under the ≈300ms a serial fault-delayed run
	// would need.
	if elapsed > time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	checkGoroutines(t, before)

	// The engine must stay usable after a cancelled query.
	db.Faults = nil
	res2, err := db.QueryContext(context.Background(), "SELECT count(*) c FROM pt")
	if err != nil || res2.NumRows() != 1 {
		t.Fatalf("post-cancel query: %v", err)
	}
}

func TestTimeoutReturnsErrTimeout(t *testing.T) {
	db := parFixture(t, 30000)
	db.Parallelism = 2
	db.Faults = faults.New(1, faults.Rule{Point: faults.PointMorselDelay, Delay: 20 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := db.QueryContext(ctx, "SELECT id, v FROM pt WHERE v > 50 ORDER BY v DESC LIMIT 10")
	if !errors.Is(err, qerr.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestPreCancelledContextShortCircuits(t *testing.T) {
	db := parFixture(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, "SELECT count(*) c FROM pt"); !errors.Is(err, qerr.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if _, err := db.ExecContext(ctx, "INSERT INTO ptd VALUES (99, 'x')"); !errors.Is(err, qerr.ErrCancelled) {
		t.Fatalf("DML err = %v, want ErrCancelled", err)
	}
	if n := db.GetTable("ptd").NumRows(); n != 49 {
		t.Fatalf("cancelled INSERT mutated the table: %d rows", n)
	}
}

func TestCancelledQueryDoesNotPopulatePlanCache(t *testing.T) {
	db := parFixture(t, 30000)
	db.EnableCache(16)
	db.Parallelism = 2
	db.Faults = faults.New(1, faults.Rule{Point: faults.PointMorselDelay, Delay: 20 * time.Millisecond})

	const sql = "SELECT g, count(*) c FROM pt WHERE v > 2 GROUP BY g ORDER BY g"
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := db.QueryContext(ctx, sql); !qerr.Lifecycle(err) {
		t.Fatalf("err = %v, want lifecycle error", err)
	}
	if st := db.CacheStats(); st.Plan.Len != 0 {
		t.Fatalf("cancelled query left %d plan cache entries", st.Plan.Len)
	}

	// The same statement succeeds afterwards and only then lands in the
	// cache — the aborted run must not have poisoned or pre-seeded it.
	db.Faults = nil
	res, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	want := queryString(t, db, sql)
	if got := resultString(res); got != want {
		t.Fatalf("post-cancel result differs:\n%s\nvs\n%s", got, want)
	}
	if st := db.CacheStats(); st.Plan.Len != 1 {
		t.Fatalf("successful query cached %d plans, want 1", st.Plan.Len)
	}
}

// resultString renders a result in the same shape as cache_test.go's
// queryString (pipe after every column) so the two are comparable.
func resultString(res *Result) string {
	var sb strings.Builder
	for i := 0; i < res.NumRows(); i++ {
		for _, c := range res.Cols {
			sb.WriteString(c.Get(i).String())
			sb.WriteByte('|')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestMemoryBudgetFailsCleanly(t *testing.T) {
	db := parFixture(t, 20000)
	db.MemoryBudget = 64 * 1024 // far below the ~20k-row join materialization
	_, err := db.QueryContext(context.Background(),
		"SELECT P.id, P.v, D.name FROM pt P, ptd D WHERE P.g = D.g")
	if !errors.Is(err, qerr.ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}

	// A generous budget lets the same query through.
	db.MemoryBudget = 1 << 30
	if _, err := db.QueryContext(context.Background(),
		"SELECT P.id, P.v, D.name FROM pt P, ptd D WHERE P.g = D.g"); err != nil {
		t.Fatalf("budgeted query failed: %v", err)
	}
}

func TestMemPressureFaultImposesBudget(t *testing.T) {
	db := parFixture(t, 20000)
	db.Faults = faults.New(1, faults.Rule{Point: faults.PointMemPressure, Bytes: 64 * 1024})
	_, err := db.QueryContext(context.Background(), "SELECT id, v, s, g FROM pt WHERE v >= 0")
	if !errors.Is(err, qerr.ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	db.Faults = nil
	if _, err := db.QueryContext(context.Background(), "SELECT id, v, s, g FROM pt WHERE v >= 0"); err != nil {
		t.Fatalf("after removing injector: %v", err)
	}
}

func TestUDFPanicBecomesTypedError(t *testing.T) {
	for _, deg := range []int{1, 4} {
		db := parFixture(t, 20000)
		db.Parallelism = deg
		db.RegisterUDF(&ScalarUDF{
			Name:         "boom",
			Arity:        1,
			ParallelSafe: true,
			Fn: RowUDF(func(_ context.Context, args []Datum) (Datum, error) {
				id, _ := args[0].AsInt()
				if id == 17777 {
					panic("kernel shape mismatch")
				}
				return Int(id), nil
			}),
		})
		_, err := db.QueryContext(context.Background(), "SELECT boom(id) b FROM pt")
		if !errors.Is(err, qerr.ErrInternal) {
			t.Fatalf("deg=%d: err = %v, want ErrInternal", deg, err)
		}
		// The worker pool survives the panic: the next query runs normally.
		if _, err := db.QueryContext(context.Background(), "SELECT count(*) c FROM pt"); err != nil {
			t.Fatalf("deg=%d post-panic query: %v", deg, err)
		}
	}
}

func TestMalformedQueriesReturnErrorsNotPanics(t *testing.T) {
	db := parFixture(t, 100)
	for _, sql := range []string{
		"SELECT",
		"SELECT FROM pt",
		"SELECT * FROM",
		"SELECT id FROM pt WHERE",
		"SELECT id FROM pt GROUP BY",
		"SELECT id FROM pt ORDER BY 99",
		"SELECT nosuch(id) x FROM pt",
		"SELECT id FROM nosuchtable",
		"SELECT id FROM pt WHERE id = 'a' +",
		"INSERT INTO pt VALUES (1)",
		"SELECT id, FROM pt",
		"SELECT (SELECT id FROM pt) x FROM pt",
		"\x00\xff garbage",
		strings.Repeat("(", 500) + "SELECT 1" + strings.Repeat(")", 500),
	} {
		if _, err := db.ExecContext(context.Background(), sql); err == nil {
			t.Errorf("malformed query %q succeeded", sql)
		}
	}
}

func TestMemoryBudgetContextOverride(t *testing.T) {
	db := parFixture(t, 20000)
	join := "SELECT P.id, P.v, D.name FROM pt P, ptd D WHERE P.g = D.g"

	// A tight per-query override fails the query even with no DB knob set.
	ctx := WithMemoryBudget(context.Background(), 64*1024)
	if _, err := db.QueryContext(ctx, join); !errors.Is(err, qerr.ErrMemoryBudget) {
		t.Fatalf("override err = %v, want ErrMemoryBudget", err)
	}
	// The same query with no override succeeds (no global cap is armed).
	if _, err := db.QueryContext(context.Background(), join); err != nil {
		t.Fatalf("uncapped query failed: %v", err)
	}
	// An override can only tighten a global cap, never loosen it.
	db.MemoryBudget = 64 * 1024
	loose := WithMemoryBudget(context.Background(), 1<<30)
	if _, err := db.QueryContext(loose, join); !errors.Is(err, qerr.ErrMemoryBudget) {
		t.Fatalf("loosened err = %v, want ErrMemoryBudget (DB knob must win)", err)
	}
}

func TestParallelismContextOverride(t *testing.T) {
	// The override wins over the DB knob in both directions; results stay
	// bit-identical to serial execution (the morsel-order contract).
	db := parFixture(t, 20000)
	db.Parallelism = 1
	q := "SELECT g, count(*) AS n FROM pt WHERE v >= 0 GROUP BY g ORDER BY g"
	serial, err := db.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	par4, err := db.QueryContext(WithParallelism(context.Background(), 4), q)
	if err != nil {
		t.Fatal(err)
	}
	if serial.NumRows() != par4.NumRows() {
		t.Fatalf("row count changed under parallelism override: %d vs %d",
			serial.NumRows(), par4.NumRows())
	}
	for i := 0; i < serial.NumRows(); i++ {
		for j := range serial.Cols {
			if serial.Cols[j].Get(i).String() != par4.Cols[j].Get(i).String() {
				t.Fatalf("row %d col %d differs under parallelism override", i, j)
			}
		}
	}
}

// TestScalarSubqueryRunsUnderStatementContext: a folded scalar subquery
// runs under the statement's context. Cancelling the statement stops a UDF
// in the subquery that blocks until its context is done, and the
// statement returns the classified error.
func TestScalarSubqueryRunsUnderStatementContext(t *testing.T) {
	db := parFixture(t, 100)
	db.RegisterUDF(&ScalarUDF{Name: "block", Arity: 1, Fn: func(ctx context.Context, calls [][]Datum) ([]Datum, error) {
		select {
		case <-ctx.Done():
			return nil, qerr.FromContext(ctx.Err())
		case <-time.After(10 * time.Second):
			return nil, errors.New("the subquery's UDF never saw the statement's cancellation")
		}
	}})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := db.QueryContext(ctx, "SELECT count(*) c FROM pt WHERE v > (SELECT MAX(block(v)) FROM pt)")
	if !errors.Is(err, qerr.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

// TestSubqueryUDFCallsCountedInStatement: the UDF calls of a folded
// subquery count in the statement's sys.queries row.
func TestSubqueryUDFCallsCountedInStatement(t *testing.T) {
	db := newObsDB(t, 16)
	db.RegisterUDF(&ScalarUDF{Name: "ident", Arity: 1, Fn: RowUDF(func(_ context.Context, a []Datum) (Datum, error) {
		return a[0], nil
	})})
	const q = `SELECT count(*) AS c FROM emp WHERE salary > (SELECT AVG(ident(salary)) FROM emp)`
	mustExec(t, db, q)
	n := mustExec(t, db, `SELECT count(*) AS n FROM emp`).Cols[0].Get(0).I
	res := mustExec(t, db, `SELECT sql, udf_calls FROM sys.queries`)
	for i := 0; i < res.NumRows(); i++ {
		if sql := res.Cols[0].Get(i).S; strings.Contains(sql, "ident(") && !strings.Contains(sql, "sys.queries") {
			if got := res.Cols[1].Get(i).I; got != n {
				t.Fatalf("udf_calls = %d, want %d", got, n)
			}
			return
		}
	}
	t.Fatalf("no sys.queries row for %q", q)
}
