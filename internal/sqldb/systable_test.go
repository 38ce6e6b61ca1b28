package sqldb

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/qerr"
)

// newObsDB builds a DB with the full observability stack armed: metrics
// registry, query-history ring, and the built-in sys.* catalog.
func newObsDB(t *testing.T, histCap int) *DB {
	t.Helper()
	db := newTestDB(t)
	db.Metrics = obs.NewRegistry()
	db.History = obs.NewQueryHistory(histCap)
	db.EnableSysCatalog()
	return db
}

// colIndex resolves a column by name in a result schema.
func colIndex(t *testing.T, res *Result, name string) int {
	t.Helper()
	for i, c := range res.Schema {
		if c.Name == name {
			return i
		}
	}
	t.Fatalf("column %q not in schema %v", name, res.Schema)
	return -1
}

func TestSysCatalogScansAllTables(t *testing.T) {
	db := newObsDB(t, 32)
	mustExec(t, db, `SELECT count(*) c FROM emp`)

	tables := db.SysTables()
	if len(tables) != 8 {
		t.Fatalf("SysTables() = %d tables, want 8", len(tables))
	}
	for _, st := range tables {
		if st.Description == "" {
			t.Errorf("%s: empty description", st.Name)
		}
		res := mustExec(t, db, "SELECT * FROM "+st.Name)
		if len(res.Schema) != len(st.Schema) {
			t.Errorf("%s: %d result cols, want %d", st.Name, len(res.Schema), len(st.Schema))
		}
	}

	// sys.metrics reflects the registry: the engine query counter must be
	// present once at least one recorded statement ran.
	res := mustExec(t, db, `SELECT value FROM sys.metrics WHERE name = 'sqldb.queries'`)
	if res.NumRows() != 1 || res.Cols[0].Get(0).F < 1 {
		t.Fatalf("sys.metrics sqldb.queries: %d rows, value %v", res.NumRows(), res.Cols[0].Get(0))
	}
	// sys.runtime always has the process keys.
	res = mustExec(t, db, `SELECT value FROM sys.runtime WHERE key = 'num_cpu'`)
	if res.NumRows() != 1 || res.Cols[0].Get(0).F < 1 {
		t.Fatalf("sys.runtime num_cpu: %d rows", res.NumRows())
	}
}

func TestSysQueriesRelationalSurface(t *testing.T) {
	db := newObsDB(t, 32)
	mustExec(t, db, `SELECT count(*) a FROM emp`)
	mustExec(t, db, `SELECT name FROM emp ORDER BY salary DESC`)

	// The acceptance-shaped query: filter and order over accounting columns.
	res := mustExec(t, db,
		`SELECT sql, wall_ms FROM sys.queries WHERE wall_ms >= 0 AND err_class = '' ORDER BY wall_ms DESC`)
	if res.NumRows() < 2 {
		t.Fatalf("sys.queries rows = %d, want >= 2", res.NumRows())
	}
	prev := res.Cols[1].Get(0).F
	for i := 0; i < res.NumRows(); i++ {
		if sql := res.Cols[0].Get(i).S; !strings.HasPrefix(sql, "SELECT") {
			t.Fatalf("row %d: sql %q does not look normalized", i, sql)
		}
		if w := res.Cols[1].Get(i).F; w > prev {
			t.Fatalf("row %d: wall_ms %v not descending (prev %v)", i, w, prev)
		} else {
			prev = w
		}
	}

	// Aggregation over the history works like any table.
	res = mustExec(t, db, `SELECT count(*) c, max(rows_out) m FROM sys.queries`)
	if res.Cols[0].Get(0).I < 2 || res.Cols[1].Get(0).I < 1 {
		t.Fatalf("aggregate over sys.queries: count=%v max=%v", res.Cols[0].Get(0), res.Cols[1].Get(0))
	}
}

func TestSysQueriesCacheStates(t *testing.T) {
	db := newObsDB(t, 32)
	db.EnableCache(16)
	const q = `SELECT count(*) c FROM emp WHERE salary > 75`
	mustExec(t, db, q)
	mustExec(t, db, q)

	res := mustExec(t, db, `SELECT cache FROM sys.queries ORDER BY id`)
	var states []string
	for i := 0; i < res.NumRows(); i++ {
		states = append(states, res.Cols[0].Get(i).S)
	}
	if len(states) < 2 || states[0] != "miss" || states[1] != "hit" {
		t.Fatalf("cache states = %v, want [miss hit ...]", states)
	}
	// sys.* plans are never cached, so scans over sys.queries report bypass.
	res = mustExec(t, db, `SELECT cache FROM sys.queries ORDER BY id DESC LIMIT 1`)
	if got := res.Cols[0].Get(0).S; got != "bypass" {
		t.Fatalf("sys scan cache state = %q, want bypass", got)
	}
}

func TestSysQueriesCacheDisabledState(t *testing.T) {
	db := newObsDB(t, 8)
	mustExec(t, db, `SELECT count(*) c FROM emp`)
	recs := db.History.Snapshot()
	if len(recs) == 0 || recs[len(recs)-1].CacheState != "disabled" {
		t.Fatalf("cache state without cache = %+v, want disabled", recs)
	}
}

func TestSysQueriesResourceAccounting(t *testing.T) {
	db := New()
	db.Parallelism = 4
	db.Metrics = obs.NewRegistry()
	db.History = obs.NewQueryHistory(16)
	db.EnableSysCatalog()
	db.RegisterUDF(&ScalarUDF{
		Name: "bump", Arity: 1,
		Fn:           RowUDF(func(_ context.Context, args []Datum) (Datum, error) { return Float(args[0].F + 1), nil }),
		Cost:         1,
		ParallelSafe: true,
	})
	mustExec(t, db, `CREATE TABLE big (x Int64, v Float64)`)
	tbl := db.GetTable("big")
	for i := 0; i < 8192; i++ {
		if err := tbl.AppendRow([]Datum{Int(int64(i)), Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}

	mustExec(t, db, `SELECT sum(bump(v)) s FROM big WHERE bump(v) > 1`)
	recs := db.History.Snapshot()
	rec := recs[len(recs)-1]
	if rec.RowsScanned < 8192 {
		t.Errorf("rows_scanned = %d, want >= 8192", rec.RowsScanned)
	}
	if rec.UDFCalls == 0 {
		t.Errorf("udf_calls = 0, want > 0")
	}
	if rec.Morsels == 0 || rec.ParallelOps == 0 {
		t.Errorf("morsels = %d parallel_ops = %d, want both > 0", rec.Morsels, rec.ParallelOps)
	}
	if rec.Busy <= 0 || rec.Wall <= 0 {
		t.Errorf("busy = %v wall = %v, want both > 0", rec.Busy, rec.Wall)
	}
	if rec.RowsOut != 1 || rec.BytesOut <= 0 {
		t.Errorf("rows_out = %d bytes_out = %d", rec.RowsOut, rec.BytesOut)
	}
	if rec.ErrClass != "" {
		t.Errorf("err_class = %q, want empty", rec.ErrClass)
	}

	// The same numbers are visible relationally.
	res := mustExec(t, db,
		`SELECT udf_calls, morsels, parallel_ops FROM sys.queries WHERE udf_calls > 0`)
	if res.NumRows() != 1 {
		t.Fatalf("sys.queries udf rows = %d, want 1", res.NumRows())
	}
}

func TestSysQueriesErrorClass(t *testing.T) {
	db := newObsDB(t, 8)
	if _, err := db.Exec(`SELECT nosuch FROM emp`); err == nil {
		t.Fatal("expected error for unknown column")
	}
	recs := db.History.Snapshot()
	rec := recs[len(recs)-1]
	if rec.ErrClass != "error" || rec.Err == "" {
		t.Fatalf("error record = %+v, want err_class=error with message", rec)
	}
	res := mustExec(t, db, `SELECT count(*) c FROM sys.queries WHERE err_class = 'error'`)
	if res.Cols[0].Get(0).I != 1 {
		t.Fatalf("error rows in sys.queries = %v, want 1", res.Cols[0].Get(0))
	}
}

func TestSysQueriesSlowRing(t *testing.T) {
	db := newObsDB(t, 16)
	db.History.SetSlowThreshold(1) // 1ns: everything is slow
	mustExec(t, db, `SELECT count(*) c FROM emp`)
	res := mustExec(t, db, `SELECT sql FROM sys.slow_queries`)
	if res.NumRows() < 1 {
		t.Fatalf("sys.slow_queries empty with 1ns threshold")
	}
	if got := db.Metrics.Counter(obs.MetricSlowQueries).Value(); got < 1 {
		t.Fatalf("slow-query counter = %d, want >= 1", got)
	}
}

func TestSysScanExplain(t *testing.T) {
	db := newObsDB(t, 8)
	mustExec(t, db, `SELECT count(*) c FROM emp`)

	res := mustExec(t, db, `EXPLAIN SELECT sql FROM sys.queries WHERE wall_ms > 100`)
	plan := resultText(res)
	if !strings.Contains(plan, "SysScan sys.queries as queries") {
		t.Fatalf("EXPLAIN missing SysScan line:\n%s", plan)
	}

	res = mustExec(t, db, `EXPLAIN ANALYZE SELECT sql FROM sys.queries ORDER BY wall_ms DESC`)
	plan = resultText(res)
	if !strings.Contains(plan, "SysScan sys.queries") || !strings.Contains(plan, "actual rows=") {
		t.Fatalf("EXPLAIN ANALYZE missing SysScan actuals:\n%s", plan)
	}
}

// resultText joins a single-column textual result into one string.
func resultText(res *Result) string {
	var sb strings.Builder
	for i := 0; i < res.NumRows(); i++ {
		sb.WriteString(res.Cols[0].Get(i).S)
		sb.WriteString("\n")
	}
	return sb.String()
}

func TestSysTableJoinsWithBaseTables(t *testing.T) {
	db := newObsDB(t, 16)
	mustExec(t, db, `SELECT count(*) c FROM emp`)
	// A sys table participates in joins like any relation.
	res := mustExec(t, db, `
		SELECT q.sql, m.value
		FROM sys.queries q, sys.metrics m
		WHERE m.name = 'sqldb.queries' AND q.err_class = ''`)
	if res.NumRows() < 1 {
		t.Fatalf("join over sys tables returned %d rows", res.NumRows())
	}
}

func TestDottedNameRoundTrip(t *testing.T) {
	for _, sql := range []string{
		`SELECT * FROM sys.queries`,
		`SELECT q.sql FROM sys.queries q WHERE q.wall_ms > 100 ORDER BY q.wall_ms DESC`,
		`SELECT count(*) c FROM sys.metrics`,
	} {
		st, err := ParseMulti(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		rendered := st[0].String()
		st2, err := ParseMulti(rendered)
		if err != nil {
			t.Fatalf("re-parse %q: %v", rendered, err)
		}
		if got := st2[0].String(); got != rendered {
			t.Fatalf("round trip diverged:\n  first:  %s\n  second: %s", rendered, got)
		}
	}
	// The default alias of a dotted name is its last segment.
	st, err := ParseMulti(`SELECT queries.sql FROM sys.queries`)
	if err != nil {
		t.Fatalf("last-segment alias: %v", err)
	}
	sel := st[0].(*SelectStmt)
	if ref := sel.From; ref.Table != "sys.queries" || ref.Alias != "queries" {
		t.Fatalf("ref = %q alias %q, want sys.queries / queries", ref.Table, ref.Alias)
	}
}

func TestSysScanCancellation(t *testing.T) {
	db := newObsDB(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryContext(ctx, `SELECT * FROM sys.queries`)
	if !errors.Is(err, qerr.ErrCancelled) {
		t.Fatalf("cancelled sys scan: %v, want ErrCancelled", err)
	}

	ctx, cancel = context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	_, err = db.QueryContext(ctx, `SELECT * FROM sys.runtime`)
	if !errors.Is(err, qerr.ErrTimeout) {
		t.Fatalf("timed-out sys scan: %v, want ErrTimeout", err)
	}
}

func TestSysCacheRegisteredProviders(t *testing.T) {
	db := newObsDB(t, 8)
	db.EnableCache(16)
	db.RegisterCacheStats(func() []CacheStat {
		return []CacheStat{{Name: "inference", Stats: cache.Stats{Hits: 7, Misses: 3, Len: 2, Cap: 8}}}
	})
	mustExec(t, db, `SELECT count(*) c FROM emp`)

	res := mustExec(t, db, `SELECT cache, hits FROM sys.cache ORDER BY cache`)
	got := map[string]int64{}
	for i := 0; i < res.NumRows(); i++ {
		got[res.Cols[0].Get(i).S] = res.Cols[1].Get(i).I
	}
	for _, want := range []string{"statement", "plan", "inference"} {
		if _, ok := got[want]; !ok {
			t.Errorf("sys.cache missing row %q (got %v)", want, got)
		}
	}
	if got["inference"] != 7 {
		t.Errorf("inference hits = %d, want 7", got["inference"])
	}
}

func TestPreparedFastPathRecorded(t *testing.T) {
	db := newObsDB(t, 16)
	db.EnableCache(16)
	p, err := db.Prepare(`SELECT count(*) c FROM emp WHERE salary > ?`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Query(Float(50)); err != nil {
			t.Fatal(err)
		}
	}
	recs := db.History.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("prepared executions recorded = %d, want 3", len(recs))
	}
	last := recs[len(recs)-1]
	if last.CacheState != "hit" {
		t.Fatalf("warm prepared cache state = %q, want hit", last.CacheState)
	}
	if last.RowsOut != 1 || last.Wall <= 0 {
		t.Fatalf("prepared record = %+v", last)
	}
}

func TestSysQueriesConcurrentReadersWriters(t *testing.T) {
	db := newObsDB(t, 64)
	db.Parallelism = 2

	const writers, readers, iters = 4, 3, 50
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := db.Query(`SELECT count(*) c FROM emp WHERE salary > 50`); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := db.Query(`SELECT count(*) c, max(wall_ms) m FROM sys.queries`); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got := db.History.Len(); got != 64 {
		t.Fatalf("history len after churn = %d, want full ring 64", got)
	}
	// IDs in the ring stay strictly increasing under concurrency.
	recs := db.History.Snapshot()
	for i := 1; i < len(recs); i++ {
		if recs[i].ID <= recs[i-1].ID {
			t.Fatalf("history IDs not increasing: %d then %d", recs[i-1].ID, recs[i].ID)
		}
	}
}

func TestRegisterSysTableReplaces(t *testing.T) {
	db := newObsDB(t, 8)
	schema := BreakerTableSchema()
	db.RegisterSysTable(&SysTable{
		Name:        "sys.breaker",
		Description: "live breaker state",
		Schema:      schema,
		Scan: func(db *DB) (*Result, error) {
			res, cols := sysResult(schema)
			err := sysRow(cols, Str("point-serving"), Str("open"), Int(3), Int(5), Float(100))
			return res, err
		},
	})
	res := mustExec(t, db, `SELECT component, state, trips FROM sys.breaker WHERE state = 'open'`)
	if res.NumRows() != 1 || res.Cols[0].Get(0).S != "point-serving" || res.Cols[2].Get(0).I != 3 {
		t.Fatalf("replaced sys.breaker scan wrong: %d rows", res.NumRows())
	}
	if n := len(db.SysTables()); n != 8 {
		t.Fatalf("replacement grew catalog to %d tables", n)
	}
}

func TestSysRuntimeWithoutHistory(t *testing.T) {
	// The runtime table tolerates a DB without history (nil-safe methods).
	db := newTestDB(t)
	db.EnableSysCatalog()
	res := mustExec(t, db, `SELECT value FROM sys.runtime WHERE key = 'history_cap'`)
	if res.NumRows() != 1 || res.Cols[0].Get(0).F != 0 {
		t.Fatalf("history_cap without history = %v", res.Cols[0].Get(0))
	}
}
