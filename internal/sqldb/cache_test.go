package sqldb

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func cacheFixture(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec := func(sql string) {
		t.Helper()
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("fixture %q: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE t (a Int64, b Float64, s String)")
	for i := 0; i < 20; i++ {
		mustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d.5, 'r%d')", i, i, i%3))
	}
	mustExec("CREATE TABLE u (a Int64, name String)")
	mustExec("INSERT INTO u VALUES (1,'one'),(2,'two'),(3,'three')")
	return db
}

func queryString(t *testing.T, db *DB, sql string) string {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
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

func TestPlanCacheHitsOnRepeat(t *testing.T) {
	db := cacheFixture(t)
	db.Metrics = obs.NewRegistry()
	db.EnableCache(64)
	const q = "SELECT s, count(*) c FROM t WHERE a > 3 GROUP BY s ORDER BY s"
	first := queryString(t, db, q)
	// Second run: same text (different whitespace) must hit both caches and
	// return identical rows.
	second := queryString(t, db, "SELECT s,   count(*) c FROM t\nWHERE a > 3 GROUP BY s ORDER BY s")
	if first != second {
		t.Fatalf("cached result differs:\n%s\nvs\n%s", first, second)
	}
	st := db.CacheStats()
	if st.Plan.Hits < 1 {
		t.Fatalf("expected a plan-cache hit, stats: %+v", st)
	}
	if st.Stmt.Hits < 1 {
		t.Fatalf("expected a statement-cache hit, stats: %+v", st)
	}
	// Counters must also surface in the metrics registry.
	if got := db.Metrics.Counter("sqldb.cache.plan.hits").Value(); got < 1 {
		t.Fatalf("metrics plan hits = %d", got)
	}
}

func TestCacheDisabledByDefault(t *testing.T) {
	db := cacheFixture(t)
	q := "SELECT count(*) FROM t"
	queryString(t, db, q)
	queryString(t, db, q)
	if st := db.CacheStats(); st.Plan.Hits+st.Plan.Misses+st.Stmt.Hits+st.Stmt.Misses != 0 {
		t.Fatalf("caches active without EnableCache: %+v", st)
	}
}

// TestInsertInvalidatesPlan pins the correctness-critical half of the
// plan store's contract: the planner folds uncorrelated subqueries into
// literals at plan time, so serving such a plan after an INSERT would
// return rows filtered against an outdated aggregate — it is never stored.
// A write re-plans a stored plan only when it flips how the join order's
// estimates compare.
func TestInsertInvalidatesPlan(t *testing.T) {
	db := cacheFixture(t)
	db.EnableCache(64)
	const q = "SELECT count(*) c FROM t WHERE a > (SELECT avg(a) FROM t)"
	cached := queryString(t, db, q)

	fresh := New()
	freshFixtureCopy(t, db, fresh)
	if want := queryString(t, fresh, q); cached != want {
		t.Fatalf("warm-up differs from uncached: %q vs %q", cached, want)
	}

	// Shift the average: rows 0..19 (avg 9.5) plus five rows of 1000.
	for i := 0; i < 5; i++ {
		if _, err := db.Exec("INSERT INTO t VALUES (1000, 0.0, 'x')"); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.Exec("INSERT INTO t VALUES (1000, 0.0, 'x')"); err != nil {
			t.Fatal(err)
		}
	}
	got := queryString(t, db, q)
	want := queryString(t, fresh, q)
	if got != want {
		t.Fatalf("stale plan served after INSERT: cached %q, uncached %q", got, want)
	}
	if st := db.CacheStats(); st.PlanInvalidations != 0 {
		t.Fatalf("writes that leave every join order alone re-planned, stats: %+v", st)
	}

	// u (3 rows) is smaller than t (25): 30 more rows flip the greedy order.
	const join = "SELECT t.a, u.name FROM t, u WHERE t.a % 3 = u.a % 3"
	queryString(t, db, join)
	for _, d := range []*DB{db, fresh} {
		if _, err := d.Exec("INSERT INTO u SELECT a + 100, s FROM t WHERE a < 30"); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Exec("INSERT INTO u SELECT a + 200, s FROM t WHERE a < 10"); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := queryString(t, db, join), queryString(t, fresh, join); got != want {
		t.Fatalf("join after an order-flipping INSERT: cached %q, uncached %q", got, want)
	}
	if st := db.CacheStats(); st.PlanInvalidations != 1 {
		t.Fatalf("an order-flipping write invalidated %d plans, want 1, stats: %+v", st.PlanInvalidations, st)
	}
}

// freshFixtureCopy replays db's table t and u contents into dst.
func freshFixtureCopy(t *testing.T, src, dst *DB) {
	t.Helper()
	for _, name := range []string{"t", "u"} {
		srcT := src.GetTable(name)
		schema := append(Schema(nil), srcT.Schema...)
		dstT, err := dst.CreateTable(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		n := srcT.NumRows()
		for i := 0; i < n; i++ {
			if err := dstT.AppendRow(srcT.GetRow(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestDDLInvalidatesPlan(t *testing.T) {
	db := cacheFixture(t)
	db.EnableCache(64)
	const q = "SELECT count(*) c FROM u"
	if got := queryString(t, db, q); got != "3|\n" {
		t.Fatalf("warm-up: %q", got)
	}
	// Drop and recreate the table with different contents: the cached plan
	// must not survive the identity change.
	if _, err := db.Exec("DROP TABLE u"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE u (a Int64, name String)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO u VALUES (9,'nine')"); err != nil {
		t.Fatal(err)
	}
	if got := queryString(t, db, q); got != "1|\n" {
		t.Fatalf("after DDL: %q", got)
	}
}

func TestViewReplacementInvalidatesPlan(t *testing.T) {
	db := cacheFixture(t)
	db.EnableCache(64)
	if _, err := db.Exec("CREATE VIEW v AS SELECT a FROM t WHERE a < 5"); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT count(*) c FROM v"
	if got := queryString(t, db, q); got != "5|\n" {
		t.Fatalf("warm-up: %q", got)
	}
	if _, err := db.Exec("CREATE OR REPLACE VIEW v AS SELECT a FROM t WHERE a < 2"); err != nil {
		t.Fatal(err)
	}
	if got := queryString(t, db, q); got != "2|\n" {
		t.Fatalf("replaced view served stale plan: %q", got)
	}
}

func TestUpdateDeleteInvalidate(t *testing.T) {
	db := cacheFixture(t)
	db.EnableCache(64)
	const q = "SELECT count(*) c FROM t WHERE b > (SELECT avg(b) FROM t)"
	queryString(t, db, q)
	if _, err := db.Exec("UPDATE t SET b = 0.0 WHERE a < 10"); err != nil {
		t.Fatal(err)
	}
	afterUpdate := queryString(t, db, q)
	// Rows 10..19 have b in 10.5..19.5, rest 0 → avg 7.5 → 10 rows above.
	if afterUpdate != "10|\n" {
		t.Fatalf("after UPDATE: %q", afterUpdate)
	}
	if _, err := db.Exec("DELETE FROM t WHERE a >= 15"); err != nil {
		t.Fatal(err)
	}
	afterDelete := queryString(t, db, q)
	if afterDelete != "5|\n" {
		t.Fatalf("after DELETE: %q", afterDelete)
	}
}

// TestHintedQueriesShareCachedPlan: a hinted execution is served the plan
// stored for its text while its hints leave the planner's inputs alone,
// and a JoinOrder hint is never served from the store.
func TestHintedQueriesShareCachedPlan(t *testing.T) {
	db := cacheFixture(t)
	db.EnableCache(64)
	const q = "SELECT count(*) c FROM t WHERE a > 3"
	queryString(t, db, q) // populate
	hits := db.CacheStats().Plan.Hits
	if _, err := db.ExecHinted(q, &QueryHints{CardOverrides: map[string]float64{"t": 5}}); err != nil {
		t.Fatal(err)
	}
	if got := db.CacheStats().Plan.Hits; got != hits+1 {
		t.Fatalf("hinted execution: plan hits %d, want %d", got, hits+1)
	}
	if _, err := db.ExecHinted(q, &QueryHints{JoinOrder: []string{"t"}}); err != nil {
		t.Fatal(err)
	}
	if got := db.CacheStats().Plan.Hits; got != hits+1 {
		t.Fatal("an execution pinned by a JoinOrder hint was served from the plan cache")
	}
}

func TestExplainAnnotatesCacheState(t *testing.T) {
	db := cacheFixture(t)
	db.EnableCache(64)
	firstLine := func(sql string) string {
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		return res.Cols[0].Get(0).String()
	}
	const q = "EXPLAIN ANALYZE SELECT count(*) c FROM t WHERE a > 3"
	if got := firstLine(q); got != "cache: miss" {
		t.Fatalf("first EXPLAIN ANALYZE: %q, want cache: miss", got)
	}
	if got := firstLine(q); got != "cache: hit" {
		t.Fatalf("second EXPLAIN ANALYZE: %q, want cache: hit", got)
	}
	// The executed query itself now also hits.
	if got := firstLine("EXPLAIN SELECT count(*) c FROM t WHERE a > 3"); got != "cache: hit" {
		t.Fatalf("EXPLAIN after ANALYZE: %q, want cache: hit", got)
	}
}

func TestExplainSysTableReportsBypass(t *testing.T) {
	// sys.* virtual tables have no trackable dependency versions, so their
	// plans are never cached — EXPLAIN must say so on the first line, and
	// repeating the query must not turn the bypass into a hit.
	db := cacheFixture(t)
	db.EnableCache(64)
	db.EnableSysCatalog()
	firstLine := func() string {
		res, err := db.Exec("EXPLAIN SELECT name FROM sys.metrics")
		if err != nil {
			t.Fatal(err)
		}
		return res.Cols[0].Get(0).String()
	}
	for i := 0; i < 2; i++ {
		if got := firstLine(); got != "cache: bypass" {
			t.Fatalf("EXPLAIN over sys.metrics, attempt %d: first line %q, want %q", i+1, got, "cache: bypass")
		}
	}
}

func TestExplainWithoutCacheHasNoAnnotation(t *testing.T) {
	db := cacheFixture(t)
	res, err := db.Exec("EXPLAIN ANALYZE SELECT count(*) c FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if line := res.Cols[0].Get(0).String(); strings.HasPrefix(line, "cache:") {
		t.Fatalf("cache annotation leaked into uncached EXPLAIN: %q", line)
	}
}

// TestStoreKeyIgnoresComments: a quote inside a comment starts no string
// in the store's key, so two texts whose string literals differ only in
// their spaces are each answered with their own literal, whether it is
// lifted (WHERE) or stays (an unaliased SELECT item).
func TestStoreKeyIgnoresComments(t *testing.T) {
	for _, comment := range []string{"-- it's\n", "/* it's */ "} {
		cached, uncached := New(), New()
		cached.EnableCache(8)
		for _, db := range []*DB{cached, uncached} {
			mustExec(t, db, "CREATE TABLE t (s String)")
			mustExec(t, db, "INSERT INTO t VALUES ('a  b'), ('a b')")
		}
		answer := func(db *DB, sql string) string {
			res, err := db.Query(sql)
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
			var names []string
			for _, c := range res.Schema {
				names = append(names, c.Name)
			}
			return strings.Join(names, ",") + "\n" + resultBits(res)
		}
		for _, lit := range []string{"'a  b'", "'a b'"} {
			for _, sql := range []string{
				"SELECT s FROM t " + comment + "WHERE s = " + lit,
				"SELECT s, " + lit + " FROM t " + comment + "WHERE s = " + lit,
			} {
				if got, want := answer(cached, sql), answer(uncached, sql); got != want {
					t.Errorf("%q: cached\n%s\nuncached\n%s", sql, got, want)
				}
			}
		}
	}
}

// TestExplainPrintsOwnLiterals: EXPLAIN shows the statement's own literals
// whether its plan was made for it or served from another text's.
func TestExplainPrintsOwnLiterals(t *testing.T) {
	db := cacheFixture(t)
	db.EnableCache(64)
	for _, c := range []struct {
		sql, state string
		lits       []string
	}{
		{"EXPLAIN SELECT a FROM t WHERE a > 3 AND s = 'r1'", "cache: miss", []string{"(a > 3)", "(s = 'r1')"}},
		{"EXPLAIN SELECT a FROM t WHERE a > 12 AND s = 'r2'", "cache: hit", []string{"(a > 12)", "(s = 'r2')"}},
		{"EXPLAIN ANALYZE SELECT a FROM t WHERE a > 7 AND s = 'r0'", "cache: hit", []string{"(a > 7)", "(s = 'r0')"}},
		{"SELECT a FROM t WHERE a > -4 AND s = 'x'", "", nil},
		{"EXPLAIN SELECT a FROM t WHERE a > -5 AND s = 'x y'", "cache: hit", []string{"(a > -5)", "(s = 'x y')"}},
	} {
		res, err := db.Exec(c.sql)
		if err != nil {
			t.Fatalf("%q: %v", c.sql, err)
		}
		if c.state == "" {
			continue
		}
		var lines []string
		for i := 0; i < res.NumRows(); i++ {
			lines = append(lines, res.Cols[0].Get(i).S)
		}
		text := strings.Join(lines, "\n")
		if lines[0] != c.state || strings.Contains(text, "?") {
			t.Errorf("%q:\n%s\nwant first line %q and no placeholder", c.sql, text, c.state)
		}
		for _, lit := range c.lits {
			if !strings.Contains(text, lit) {
				t.Errorf("%q:\n%s\nwant %s", c.sql, text, lit)
			}
		}
	}
}

func TestPreparedStatementBindsParams(t *testing.T) {
	db := cacheFixture(t)
	db.EnableCache(64)
	ps, err := db.Prepare("SELECT a, s FROM t WHERE a > ? AND s = ? ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if ps.NumParams() != 2 {
		t.Fatalf("NumParams = %d", ps.NumParams())
	}
	res, err := ps.Query(Int(10), Str("r0"))
	if err != nil {
		t.Fatal(err)
	}
	// rows with a in {12, 15, 18} have s = 'r0' and a > 10
	if res.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", res.NumRows())
	}
	// Different binding, same cached plan.
	res2, err := ps.Query(Int(0), Str("r1"))
	if err != nil {
		t.Fatal(err)
	}
	if res2.NumRows() != 7 {
		t.Fatalf("rebound rows = %d, want 7", res2.NumRows())
	}
	st := db.CacheStats()
	if st.Plan.Hits < 1 {
		t.Fatalf("rebound execution should reuse the cached plan: %+v", st)
	}
	// Binding must not leak into later executions of the shared plan.
	res3, err := ps.Query(Int(10), Str("r0"))
	if err != nil {
		t.Fatal(err)
	}
	if res3.NumRows() != 3 {
		t.Fatalf("third binding rows = %d, want 3", res3.NumRows())
	}
}

// TestPreparedPlaceholdersInAggregates: an aggregate matches its calls,
// keys and items by their text with each `?` as its bound value, so two
// calls that differ only in their arguments stay two, and a key repeated
// in the SELECT list with an equal argument is one.
func TestPreparedPlaceholdersInAggregates(t *testing.T) {
	for _, capacity := range []int{0, 8} {
		db := cacheFixture(t)
		db.EnableCache(capacity)
		ps, err := db.Prepare("SELECT sum(a * ?) x, sum(a * ?) y FROM t WHERE a < 5")
		if err != nil {
			t.Fatal(err)
		}
		res, err := ps.Query(Int(2), Int(3))
		if err != nil {
			t.Fatal(err)
		}
		if x, y := res.Cols[0].Get(0).I, res.Cols[1].Get(0).I; x != 20 || y != 30 {
			t.Errorf("store of %d: sum(a * 2), sum(a * 3) = %d, %d, want 20, 30", capacity, x, y)
		}
		ps, err = db.Prepare("SELECT a % ? AS k, count(*) c FROM t GROUP BY a % ? ORDER BY k")
		if err != nil {
			t.Fatal(err)
		}
		res, err = ps.Query(Int(7), Int(7))
		if err != nil {
			t.Fatalf("store of %d: %v", capacity, err)
		}
		if got, want := resultBits(res), queryString(t, db, "SELECT a % 7 AS k, count(*) c FROM t GROUP BY a % 7 ORDER BY k"); got != want {
			t.Errorf("store of %d: grouped by a %% ?:\n%s\nwant\n%s", capacity, got, want)
		}
	}
}

func TestPreparedWorksWithoutCache(t *testing.T) {
	db := cacheFixture(t)
	ps, err := db.Prepare("SELECT count(*) c FROM t WHERE a > ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ps.Query(Int(15))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Cols[0].Get(0).I; got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
}

func TestPreparedParamInSubquery(t *testing.T) {
	db := cacheFixture(t)
	db.EnableCache(64)
	ps, err := db.Prepare("SELECT count(*) c FROM t WHERE a > (SELECT avg(a) FROM t WHERE a < ?)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ps.Query(Int(20))
	if err != nil {
		t.Fatal(err)
	}
	// avg(a) over a<20 is 9.5 → 10 rows above.
	if got := res.Cols[0].Get(0).I; got != 10 {
		t.Fatalf("count = %d, want 10", got)
	}
	res2, err := ps.Query(Int(11))
	if err != nil {
		t.Fatal(err)
	}
	// avg over a<11 is 5 → 14 rows above.
	if got := res2.Cols[0].Get(0).I; got != 14 {
		t.Fatalf("count = %d, want 14", got)
	}
}

func TestPreparedDML(t *testing.T) {
	db := cacheFixture(t)
	db.EnableCache(64)
	for _, c := range []struct {
		stmt        string
		args        []Datum
		check, want string
	}{
		{"INSERT INTO u VALUES (?, ?)", []Datum{Int(4), Str("four")}, "SELECT name FROM u WHERE a = 4", "four|\n"},
		{"DELETE FROM u WHERE a = ?", []Datum{Int(4)}, "SELECT count(*) c FROM u", "3|\n"},
		{"CREATE TABLE t2 AS SELECT a FROM t WHERE a = ?", []Datum{Int(7)}, "SELECT a FROM t2", "7|\n"},
		{"CREATE VIEW v2 AS SELECT a FROM t WHERE a > ?", []Datum{Int(17)}, "SELECT a FROM v2 ORDER BY a", "18|\n19|\n"},
	} {
		ps, err := db.Prepare(c.stmt)
		if err != nil {
			t.Fatal(err)
		}
		if ps.NumParams() != len(c.args) {
			t.Fatalf("%q: NumParams = %d, want %d", c.stmt, ps.NumParams(), len(c.args))
		}
		if _, err := ps.Exec(c.args...); err != nil {
			t.Fatalf("%q: %v", c.stmt, err)
		}
		if got := queryString(t, db, c.check); got != c.want {
			t.Fatalf("after %q: %s = %q, want %q", c.stmt, c.check, got, c.want)
		}
	}
}

func TestUnboundParamErrors(t *testing.T) {
	db := cacheFixture(t)
	if _, err := db.Query("SELECT a FROM t WHERE a > ?"); err == nil ||
		!strings.Contains(err.Error(), "unbound parameter") {
		t.Fatalf("want unbound-parameter error, got %v", err)
	}
	ps, err := db.Prepare("SELECT a FROM t WHERE a > ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Query(); err == nil {
		t.Fatal("want arity error for missing bindings")
	}
}

// TestOrdinalOrderByStableUnderCache guards the OrderBy copy-on-write fix:
// planSelect rewrites ordinal sort keys in place, so replanning from a
// cached AST (statement-cache hit, plan invalidated in between) must see
// the pristine ordinal, not the previous plan's substituted expression.
func TestOrdinalOrderByStableUnderCache(t *testing.T) {
	db := cacheFixture(t)
	db.EnableCache(64)
	const q = "SELECT s, a FROM t WHERE a < 6 ORDER BY 1 DESC, 2"
	first := queryString(t, db, q)
	second := queryString(t, db, q)
	if _, err := db.Exec("INSERT INTO t VALUES (500, 0.0, 'zz')"); err != nil {
		t.Fatal(err)
	}
	// A UDF registration re-plans every stored plan, so the next run
	// replans from the cached statement.
	db.RegisterUDF(&ScalarUDF{Name: "noop", Arity: 1, Fn: RowUDF(func(_ context.Context, a []Datum) (Datum, error) {
		return a[0], nil
	})})
	third := queryString(t, db, q)
	if first != second || second != third {
		t.Fatalf("ordinal ORDER BY drifted across cached runs:\n%s\n%s\n%s", first, second, third)
	}
	if st := db.CacheStats(); st.Stmt.Hits < 2 {
		t.Fatalf("expected statement-cache hits, stats: %+v", st)
	}
}

func TestCachedResultsMatchUncachedDifferential(t *testing.T) {
	queries := []string{
		"SELECT a, b FROM t WHERE a > 4 ORDER BY a",
		"SELECT s, sum(b) x FROM t GROUP BY s ORDER BY s",
		"SELECT t.a, u.name FROM t, u WHERE t.a = u.a ORDER BY t.a",
		"SELECT a FROM t WHERE a IN (SELECT a FROM u) ORDER BY a",
		"SELECT count(*) c FROM t WHERE b > (SELECT avg(b) FROM t)",
		"SELECT DISTINCT s FROM t ORDER BY s",
	}
	cached := cacheFixture(t)
	cached.EnableCache(64)
	uncached := cacheFixture(t)
	for _, q := range queries {
		// Run twice on the cached DB so the second pass is served hot.
		queryString(t, cached, q)
		got := queryString(t, cached, q)
		want := queryString(t, uncached, q)
		if got != want {
			t.Fatalf("query %q: cached %q, uncached %q", q, got, want)
		}
	}
	if st := cached.CacheStats(); st.Plan.Hits < int64(len(queries)) {
		t.Fatalf("expected ≥%d plan hits, stats: %+v", len(queries), st)
	}

	// Then the same cached DB through every way its planner inputs move.
	// Each step changes it, then runs its query twice — planned or served,
	// then served — under its hints and bound relations; both answers must
	// equal a fresh uncached DB's, built from the fixture and every change
	// so far. A join's build side is picked at execution by row counts, so
	// a stale join order shows in the three-way join: each t row has two or
	// more matches in both u and w, and which of them is joined first
	// decides how those matches nest in the output order.
	var log []func(*DB)
	fresh := func() *DB {
		db := cacheFixture(t)
		for _, change := range log {
			change(db)
		}
		return db
	}
	run := func(db *DB, sql string, hints *QueryHints, rels Relations, args []Datum) string {
		ctx := context.Background()
		if rels != nil {
			ctx = WithRelations(ctx, rels)
		}
		var res *Result
		var err error
		if args != nil {
			var ps *Prepared
			if ps, err = db.Prepare(sql); err == nil {
				res, err = ps.ExecHintedContext(ctx, hints, args...)
			}
		} else {
			res, err = db.ExecHintedContext(ctx, sql, hints)
		}
		if err != nil {
			return "error"
		}
		var names []string
		for _, c := range res.Schema {
			names = append(names, c.Name)
		}
		return strings.Join(names, ",") + "\n" + resultBits(res)
	}
	do := func(sqls ...string) func(*DB) {
		return func(db *DB) {
			for _, sql := range sqls {
				if _, err := db.Exec(sql); err != nil {
					t.Fatalf("%q: %v", sql, err)
				}
			}
		}
	}
	register := func(name string, fn func(float64) float64, sel float64) func(*DB) {
		return func(db *DB) {
			db.RegisterUDF(&ScalarUDF{Name: name, Arity: 1, Fn: RowUDF(func(_ context.Context, a []Datum) (Datum, error) {
				x, _ := a[0].AsFloat()
				return Float(fn(x)), nil
			}), EstimateSelectivity: func(Datum) float64 { return sel }})
		}
	}
	sysRows := func(n int64) func(*DB) {
		return func(db *DB) {
			schema := []OutCol{{Name: "n", Type: TInt}}
			db.RegisterSysTable(&SysTable{Name: "sys.n", Schema: schema, Scan: func(*DB) (*Result, error) {
				res, cols := sysResult(schema)
				return res, sysRow(cols, Int(n))
			}})
		}
	}
	bound := NewTable("u", Schema{{Name: "a", Type: TInt}, {Name: "name", Type: TString}})
	for i := 0; i < 10; i++ {
		if err := bound.AppendRow([]Datum{Int(int64(9 - i)), Str(fmt.Sprintf("b%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	// The greedy order starts from the smallest estimate and joins t next.
	const join = "SELECT t.a, u.name, w.tag FROM t, u, w WHERE t.a % 3 = u.a % 3 AND t.a % 3 = w.k % 3"
	const udfJoin = join + " AND half(w.k) < 100"
	const view = "SELECT count(*) c, sum(b) s FROM v"
	const udf = "SELECT a, half(a) h FROM t WHERE a < 4"
	const sub = "SELECT count(*) c FROM t WHERE a > (SELECT avg(a) FROM u)"
	flip := &QueryHints{CardOverrides: map[string]float64{"u": 1000}}
	udfHints := &QueryHints{UDFSelectivity: map[string]float64{"half": 0.001}}
	bind := Relations{"u": bound}
	for _, step := range []struct {
		name   string
		change func(*DB)
		query  string
		hints  *QueryHints
		rels   Relations
		args   []Datum // run as a Prepared statement with these arguments
	}{
		// t 20 rows, u 6, w 4: w, t, u.
		{name: "cold join", change: do("INSERT INTO u VALUES (4, 'four'), (5, 'five'), (6, 'six')",
			"CREATE TABLE w (k Int64, tag String)", "INSERT INTO w VALUES (0, 'w'), (1, 'w'), (2, 'w'), (3, 'w')"), query: join},
		{name: "a write that keeps the estimate order", change: do("INSERT INTO u VALUES (7, 'seven')"), query: join},
		{name: "a write that flips it", change: do("INSERT INTO w SELECT a, s FROM t"), query: join},
		{name: "a write that flips it back", change: do("DELETE FROM w WHERE tag <> 'w'"), query: join},
		// u 3 rows: u, t, w.
		{name: "DROP/CREATE, same schema", change: do("DROP TABLE u", "CREATE TABLE u (a Int64, name String)",
			"INSERT INTO u VALUES (0, 'z'), (3, 'y'), (1, 'a')"), query: join},
		// u 2 rows: u, t, w.
		{name: "DROP/CREATE, another schema", change: do("DROP TABLE u", "CREATE TABLE u (name String, a Int64, x Float64)",
			"INSERT INTO u VALUES ('p', 6, 0.5), ('q', 3, 1.5)"), query: join},
		{name: "DROP/CREATE, another schema, star", query: "SELECT * FROM u"},
		{name: "a view", change: do("CREATE VIEW v AS SELECT a, b FROM t WHERE a < 5"), query: view},
		{name: "a view replacement", change: do("CREATE OR REPLACE VIEW v AS SELECT a, b FROM t WHERE a > 15"), query: view},
		{name: "a UDF before registration", query: udf},
		{name: "UDF registration", change: register("half", func(x float64) float64 { return x / 2 }, 1), query: udf},
		{name: "UDF re-registration", change: register("half", func(x float64) float64 { return x / 4 }, 1), query: udf},
		// Unhinted u, t, w; under the UDF hint w, t, u.
		{name: "a UDF join, unhinted", query: udfJoin},
		{name: "a UDF join, UDF hints", query: udfJoin, hints: udfHints},
		{name: "a UDF join, unhinted again", query: udfJoin},
		{name: "a UDF join, UDF hints again", query: udfJoin, hints: udfHints},
		// A selectivity the UDF reports itself: w, t, u.
		{name: "a UDF re-registered with another selectivity", change: register("half", func(x float64) float64 { return x / 2 }, 0.001), query: udfJoin},
		// Unhinted u, t, w; under CardOverrides w, t, u.
		{name: "unhinted", query: join},
		{name: "CardOverrides", query: join, hints: flip},
		{name: "unhinted again", query: join},
		{name: "CardOverrides again", query: join, hints: flip},
		// The catalog's u 2 rows: u, t, w; the bound u 10 rows: w, t, u.
		{name: "a catalog table", change: do("DROP TABLE u", "CREATE TABLE u (a Int64, name String)",
			"INSERT INTO u VALUES (0, 'z'), (3, 'y')"), query: join},
		{name: "a bound relation under its name", query: join, rels: bind},
		{name: "the catalog table again", query: join},
		{name: "the bound relation again", query: join, rels: bind},
		{name: "a sys.* scan", change: sysRows(1), query: "SELECT n FROM sys.n"},
		{name: "a sys.* table replaced", change: sysRows(2), query: "SELECT n FROM sys.n"},
		{name: "a folded subquery", query: sub},
		{name: "a folded subquery after a write", change: do("INSERT INTO u VALUES (30, 'big')"), query: sub},
		{name: "a folded IN subquery after a write", change: do("DELETE FROM u WHERE a = 3"), query: "SELECT a FROM t WHERE a IN (SELECT a FROM u)"},
		// Texts that differ only in their literals. Consecutive steps share
		// a template, so each is served the plan the one before it made.
		{name: "an int literal", query: "SELECT a, s FROM t WHERE a < 5 AND s <> 'r1'"},
		{name: "another int literal", query: "SELECT a, s FROM t WHERE a < 9 AND s <> 'r2'"},
		{name: "a negative int literal", query: "SELECT a, s FROM t WHERE a < -5 AND s <> 'r2'"},
		{name: "a float literal", query: "SELECT a, s FROM t WHERE a < 5.5 AND s <> 'r1'"},
		{name: "a negative float literal", query: "SELECT a, s FROM t WHERE a > - -5.5 AND s <> 'r1'"},
		{name: "a string literal", query: "SELECT a, s FROM t WHERE a < 'x' AND s <> 'r1'"},
		{name: "a NULL literal", query: "SELECT a, s FROM t WHERE a < NULL AND s <> 'r1'"},
		{name: "ORDER BY an ordinal", query: "SELECT s, a FROM t WHERE a < 7 ORDER BY 1 DESC, 2"},
		{name: "ORDER BY another ordinal", query: "SELECT s, a FROM t WHERE a < 7 ORDER BY 2 DESC, 1"},
		{name: "a LIMIT", query: "SELECT a FROM t WHERE a > 2 ORDER BY a LIMIT 3"},
		{name: "another LIMIT and an OFFSET", query: "SELECT a FROM t WHERE a > 2 ORDER BY a LIMIT 5 OFFSET 2"},
		{name: "unaliased SELECT-item literals", query: "SELECT a + 1, 'x', -2.5 FROM t WHERE a < 3"},
		{name: "other unaliased SELECT-item literals", query: "SELECT a + 2, 'y', 2.5 FROM t WHERE a < 3"},
		{name: "aliased SELECT-item literals", query: "SELECT a + 1 AS p, 'x' AS q FROM t WHERE a < 3"},
		{name: "other aliased SELECT-item literals", query: "SELECT a + 7 AS p, 'z' AS q FROM t WHERE a < 4"},
		{name: "an IN list", query: "SELECT a FROM t WHERE a IN (1, 4) ORDER BY a"},
		{name: "a longer IN list", query: "SELECT a FROM t WHERE a IN (1, 4, 17) ORDER BY a"},
		{name: "an IN list of other values", query: "SELECT a FROM t WHERE a IN (2, 5) ORDER BY a"},
		{name: "a literal in a folded subquery", query: "SELECT count(*) c FROM t WHERE a > (SELECT avg(a) + 1 FROM t WHERE a < 10)"},
		{name: "another literal in a folded subquery", query: "SELECT count(*) c FROM t WHERE a > (SELECT avg(a) + 5 FROM t WHERE a < 4)"},
		{name: "a literal in a folded IN subquery", query: "SELECT a FROM t WHERE a IN (SELECT a + 1 FROM u) ORDER BY a"},
		{name: "another literal in a folded IN subquery", query: "SELECT a FROM t WHERE a IN (SELECT a - 1 FROM u) ORDER BY a"},
		{name: "grouping by an expression", query: "SELECT a % 3 AS k, count(*) c, sum(b * 2) x FROM t WHERE a > 1 GROUP BY a % 3 HAVING count(*) > 2 ORDER BY k"},
		{name: "grouping by another expression", query: "SELECT a % 4 AS k, count(*) c, sum(b * 3) x FROM t WHERE a > 5 GROUP BY a % 4 HAVING count(*) > 1 ORDER BY k"},
		{name: "an aggregate and its HAVING twin", query: "SELECT a % 3 AS k, sum(b * 2) x FROM t GROUP BY a % 3 HAVING sum(b * 2) > 140 ORDER BY k"},
		{name: "an aggregate unlike its HAVING twin", query: "SELECT a % 3 AS k, sum(b * 3) x FROM t GROUP BY a % 3 HAVING sum(b * 2) > 140 ORDER BY k"},
		{name: "an item unlike its group key", query: "SELECT a % 3 AS k, count(*) c FROM t GROUP BY a % 4 ORDER BY k"},
		{name: "a CASE", query: "SELECT a, CASE WHEN a > 3 THEN 'hi' ELSE 'lo' END AS c FROM t WHERE a < 6"},
		{name: "another CASE", query: "SELECT a, CASE WHEN a > 1 THEN 2.5 ELSE -1 END AS c FROM t WHERE a < 6"},
		{name: "`?` among literals", query: "SELECT a, b FROM t WHERE a > ? AND b < 12.5 AND s = ? ORDER BY a", args: []Datum{Int(2), Str("r0")}},
		{name: "`?` among other literals", query: "SELECT a, b FROM t WHERE a > ? AND b < 18.5 AND s = ? ORDER BY a", args: []Datum{Int(0), Str("r1")}},
		{name: "`?` in aggregates", query: "SELECT sum(a * ?) x, sum(a * ?) y, count(*) c FROM t WHERE a < 5", args: []Datum{Int(2), Int(3)}},
		{name: "`?` in a folded subquery", query: "SELECT count(*) c FROM t WHERE a > (SELECT avg(a) FROM t WHERE a < ?) AND b > 1.5", args: []Datum{Int(9)}},
	} {
		if step.change != nil {
			step.change(cached)
			log = append(log, step.change)
		}
		want := run(fresh(), step.query, step.hints, step.rels, step.args)
		for pass := 0; pass < 2; pass++ {
			if got := run(cached, step.query, step.hints, step.rels, step.args); got != want {
				t.Fatalf("%s, pass %d: %q\ncached\n%s\nuncached\n%s", step.name, pass, step.query, got, want)
			}
		}
	}
}

// TestConcurrentCachedQueries runs the same cached plans, and literal
// variants of one template, from many goroutines while a writer appends to
// their tables, flipping the join's order so its plans are replaced while
// others run them; meaningful under -race.
func TestConcurrentCachedQueries(t *testing.T) {
	db := cacheFixture(t)
	db.EnableCache(64)
	const q = "SELECT s, count(*) c FROM t WHERE a >= 0 GROUP BY s ORDER BY s"
	const join = "SELECT count(*) c FROM t, u WHERE t.a = u.a"
	queryString(t, db, q) // warm
	queryString(t, db, join)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				for _, sql := range []string{q, join} {
					if _, err := db.Query(sql); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	// Literal variants of one join template: t.a and u.a meet only at 1, 2
	// and 3 however the writer grows both tables, so each variant's count
	// is known while its plan is replaced under it.
	names := []string{"one", "two", "three"}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				below, skip := (g+i)%5, names[i%3]
				want := int64(0)
				for a := 1; a <= 3; a++ {
					if a < below && names[a-1] != skip {
						want++
					}
				}
				sql := fmt.Sprintf("SELECT count(*) c FROM t, u WHERE t.a = u.a AND t.a < %d AND u.name <> '%s'", below, skip)
				res, err := db.Query(sql)
				if err != nil {
					errs <- err
					return
				}
				if got := res.Cols[0].Get(0).I; got != want {
					errs <- fmt.Errorf("%s: count %d, want %d", sql, got, want)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 1.0, 'w')", 100+i)); err != nil {
				errs <- err
				return
			}
			// u (3 rows, 4 more a round) grows past t (20, 1 more).
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO u SELECT a + %d, s FROM t WHERE a < 4", 1000*(i+1))); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStatementTextRenderedOnlyWhenRecorded: with neither the query
// history nor a trace store armed, running a parsed or prepared statement
// allocates no more than executing it does — its text is never rendered;
// a text statement is recorded under its own text.
func TestStatementTextRenderedOnlyWhenRecorded(t *testing.T) {
	db := cacheFixture(t)
	ctx := context.Background()
	for _, sql := range []string{
		"DROP TABLE IF EXISTS missing",
		"UPDATE u SET name = 'x' WHERE a > 99",
	} {
		st, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		exec := testing.AllocsPerRun(50, func() { _, _ = db.execStmtWith(ctx, st, nil, source{}) })
		if got := testing.AllocsPerRun(50, func() { _, _ = db.ExecStmtContext(ctx, st, nil) }); got > exec {
			t.Errorf("%q: ExecStmtContext allocates %v per run, executing alone %v", sql, got, exec)
		}
		if got := testing.AllocsPerRun(50, func() { _, _ = ps.ExecContext(ctx) }); got > exec {
			t.Errorf("%q: Prepared.ExecContext allocates %v per run, executing alone %v", sql, got, exec)
		}
	}

	// The text entry points record the caller's own text, so even armed
	// they render nothing: one statement costs its parse plus its recorded
	// execution under that text, with the store off or on.
	db.History = obs.NewQueryHistory(8)
	for _, sql := range []string{
		"select  a FROM u where a > 1 -- a comment",
		"UPDATE u SET name = 'x' WHERE a > 99",
	} {
		st, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		parse := testing.AllocsPerRun(50, func() { _, _ = ParseMulti(sql) })
		exec := testing.AllocsPerRun(50, func() { _, _ = db.execStmtRecorded(ctx, st, sql, nil, source{}) })
		if got := testing.AllocsPerRun(50, func() { _, _ = db.ExecContext(ctx, sql) }); got > parse+exec {
			t.Errorf("%q: recorded ExecContext allocates %v per run, parsing %v and a recorded execution %v", sql, got, parse, exec)
		}
	}
	for _, capacity := range []int{0, 8} {
		db.EnableCache(capacity)
		for _, run := range []func(context.Context, string) (*Result, error){db.ExecContext, db.QueryContext} {
			const sql = "select  a FROM u where a > 1 -- a comment"
			if _, err := run(ctx, sql); err != nil {
				t.Fatal(err)
			}
			recs := db.History.Snapshot()
			if got := recs[len(recs)-1].SQL; got != sql {
				t.Errorf("store of %d: recorded %q, want the caller's %q", capacity, got, sql)
			}
		}
	}
}

// TestPreparedHintedExec: a prepared statement without placeholders runs
// under optimizer hints from its own entry, which the LRU does not count,
// and is recorded under the text Prepare rendered.
func TestPreparedHintedExec(t *testing.T) {
	db := cacheFixture(t)
	db.EnableCache(64)
	db.History = obs.NewQueryHistory(8)
	ps, err := db.Prepare("select count(*) c from t where a > 3")
	if err != nil {
		t.Fatal(err)
	}
	hits := db.CacheStats().Plan.Hits
	for i := 0; i < 2; i++ {
		res, err := ps.ExecHintedContext(context.Background(), &QueryHints{})
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := res.Cols[0].Get(0).AsInt(); n != 16 {
			t.Fatalf("count = %d, want 16", n)
		}
	}
	if db.CacheStats().Plan.Hits != hits {
		t.Fatal("hinted prepared execution was served from the plan cache")
	}
	st, _ := Parse("select count(*) c from t where a > 3")
	recs := db.History.Snapshot()
	if got, want := recs[len(recs)-1].SQL, st.String(); got != want {
		t.Fatalf("recorded SQL = %q, want the canonical %q", got, want)
	}
}
