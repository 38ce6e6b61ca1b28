package sqldb

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// mustExec runs SQL and fails the test on error.
func mustExec(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, `CREATE TABLE emp (id Int64, name String, dept String, salary Float64, active Bool)`)
	mustExec(t, db, `INSERT INTO emp VALUES
		(1, 'alice', 'eng', 100.0, TRUE),
		(2, 'bob', 'eng', 90.0, TRUE),
		(3, 'carol', 'sales', 80.0, FALSE),
		(4, 'dave', 'sales', 70.0, TRUE),
		(5, 'eve', 'hr', 60.0, TRUE)`)
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT id, name FROM emp WHERE salary > 75 ORDER BY id`)
	if res.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", res.NumRows())
	}
	if res.Cols[1].Get(0).S != "alice" || res.Cols[1].Get(2).S != "carol" {
		t.Fatalf("unexpected rows: %v %v", res.Cols[1].Get(0), res.Cols[1].Get(2))
	}
}

func TestSelectStar(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT * FROM emp`)
	if len(res.Schema) != 5 || res.NumRows() != 5 {
		t.Fatalf("star select: %d cols %d rows", len(res.Schema), res.NumRows())
	}
}

func TestWhereBoolLiterals(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT count(*) AS n FROM emp WHERE active = TRUE`)
	if res.Cols[0].Get(0).I != 4 {
		t.Fatalf("active count = %v", res.Cols[0].Get(0))
	}
	res = mustExec(t, db, `SELECT count(*) AS n FROM emp WHERE active = FALSE`)
	if res.Cols[0].Get(0).I != 1 {
		t.Fatalf("inactive count = %v", res.Cols[0].Get(0))
	}
}

func TestArithmeticAndAliases(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT salary * 2 AS double_pay, salary + 1 bump FROM emp WHERE id = 1`)
	if res.Cols[0].Get(0).F != 200 || res.Cols[1].Get(0).F != 101 {
		t.Fatalf("arith: %v %v", res.Cols[0].Get(0), res.Cols[1].Get(0))
	}
	if res.Schema[0].Name != "double_pay" || res.Schema[1].Name != "bump" {
		t.Fatalf("aliases: %+v", res.Schema)
	}
}

func TestIntegerDivisionYieldsFloat(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT 7 / 2 AS q`)
	if res.Cols[0].Get(0).F != 3.5 {
		t.Fatalf("7/2 = %v, want 3.5", res.Cols[0].Get(0))
	}
}

func TestDivisionByZeroIsNull(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT 1 / 0 AS q`)
	if !res.Cols[0].Get(0).IsNull() {
		t.Fatalf("1/0 = %v, want NULL", res.Cols[0].Get(0))
	}
}

func TestAggregates(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT count(*) c, sum(salary) s, avg(salary) a, min(salary) lo, max(salary) hi FROM emp`)
	row := res.GetRow(0)
	if row[0].I != 5 || row[1].F != 400 || row[2].F != 80 || row[3].F != 60 || row[4].F != 100 {
		t.Fatalf("aggregates: %v", row)
	}
}

func TestGroupBy(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT dept, count(*) n, avg(salary) a FROM emp GROUP BY dept ORDER BY dept`)
	if res.NumRows() != 3 {
		t.Fatalf("groups = %d", res.NumRows())
	}
	// eng, hr, sales alphabetical
	if res.Cols[0].Get(0).S != "eng" || res.Cols[1].Get(0).I != 2 || res.Cols[2].Get(0).F != 95 {
		t.Fatalf("eng group: %v", res.GetRow(0))
	}
	if res.Cols[0].Get(2).S != "sales" || res.Cols[2].Get(2).F != 75 {
		t.Fatalf("sales group: %v", res.GetRow(2))
	}
}

func TestGroupByExpressionArithmetic(t *testing.T) {
	db := newTestDB(t)
	// count()/sum() mixing two aggregates in one item, like the paper's
	// Type 2 query.
	res := mustExec(t, db, `SELECT dept, count(*) / sum(salary) AS ratio FROM emp GROUP BY dept ORDER BY dept`)
	if res.NumRows() != 3 {
		t.Fatalf("groups = %d", res.NumRows())
	}
	if math.Abs(res.Cols[1].Get(0).F-2.0/190.0) > 1e-12 {
		t.Fatalf("ratio = %v", res.Cols[1].Get(0))
	}
}

func TestHaving(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT dept, count(*) n FROM emp GROUP BY dept HAVING count(*) > 1 ORDER BY dept`)
	if res.NumRows() != 2 {
		t.Fatalf("having rows = %d", res.NumRows())
	}
}

func TestStddevSamp(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT stddevSamp(salary) s FROM emp`)
	// salaries 100,90,80,70,60: sample stddev = sqrt(250)
	want := math.Sqrt(250)
	if math.Abs(res.Cols[0].Get(0).F-want) > 1e-9 {
		t.Fatalf("stddevSamp = %v, want %v", res.Cols[0].Get(0).F, want)
	}
}

func TestCountDistinct(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT count(DISTINCT dept) d FROM emp`)
	if res.Cols[0].Get(0).I != 3 {
		t.Fatalf("count distinct = %v", res.Cols[0].Get(0))
	}
}

func TestEmptyAggregate(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT count(*) c, sum(salary) s FROM emp WHERE salary > 1000`)
	if res.NumRows() != 1 || res.Cols[0].Get(0).I != 0 || !res.Cols[1].Get(0).IsNull() {
		t.Fatalf("empty agg: %v", res.GetRow(0))
	}
}

func TestJoinTwoTables(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE dept (name String, floor Int64)`)
	mustExec(t, db, `INSERT INTO dept VALUES ('eng', 3), ('sales', 1), ('hr', 2)`)
	res := mustExec(t, db, `SELECT e.name, d.floor FROM emp e, dept d WHERE e.dept = d.name AND e.salary >= 90 ORDER BY e.name`)
	if res.NumRows() != 2 {
		t.Fatalf("join rows = %d", res.NumRows())
	}
	if res.Cols[0].Get(0).S != "alice" || res.Cols[1].Get(0).I != 3 {
		t.Fatalf("join row 0: %v", res.GetRow(0))
	}
}

func TestInnerJoinOnSyntax(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE dept (name String, floor Int64)`)
	mustExec(t, db, `INSERT INTO dept VALUES ('eng', 3), ('hr', 2)`)
	res := mustExec(t, db, `SELECT e.name FROM emp e INNER JOIN dept d ON e.dept = d.name ORDER BY e.name`)
	if res.NumRows() != 3 { // alice, bob, eve
		t.Fatalf("inner join rows = %d", res.NumRows())
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE dept (name String, bldg Int64)`)
	mustExec(t, db, `CREATE TABLE bldg (id Int64, city String)`)
	mustExec(t, db, `INSERT INTO dept VALUES ('eng', 1), ('sales', 2)`)
	mustExec(t, db, `INSERT INTO bldg VALUES (1, 'hz'), (2, 'sh')`)
	res := mustExec(t, db, `SELECT e.name, b.city FROM emp e, dept d, bldg b
		WHERE e.dept = d.name AND d.bldg = b.id ORDER BY e.id`)
	if res.NumRows() != 4 {
		t.Fatalf("3-way join rows = %d", res.NumRows())
	}
	if res.Cols[1].Get(0).S != "hz" || res.Cols[1].Get(3).S != "sh" {
		t.Fatalf("3-way join cities: %v %v", res.Cols[1].Get(0), res.Cols[1].Get(3))
	}
}

func TestNonEquiJoin(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE grade (lo Float64, hi Float64, label String)`)
	mustExec(t, db, `INSERT INTO grade VALUES (0, 75, 'junior'), (75, 200, 'senior')`)
	res := mustExec(t, db, `SELECT e.name, g.label FROM emp e, grade g
		WHERE e.salary > g.lo AND e.salary <= g.hi ORDER BY e.id`)
	if res.NumRows() != 5 {
		t.Fatalf("non-equi join rows = %d", res.NumRows())
	}
	if res.Cols[1].Get(0).S != "senior" || res.Cols[1].Get(4).S != "junior" {
		t.Fatalf("labels: %v %v", res.Cols[1].Get(0), res.Cols[1].Get(4))
	}
}

func TestSubqueryInFrom(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT dept, n FROM (SELECT dept, count(*) AS n FROM emp GROUP BY dept) sub WHERE n > 1 ORDER BY dept`)
	if res.NumRows() != 2 {
		t.Fatalf("from-subquery rows = %d", res.NumRows())
	}
}

func TestScalarSubquery(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT name FROM emp WHERE salary > (SELECT avg(salary) FROM emp) ORDER BY name`)
	if res.NumRows() != 2 { // alice (100), bob (90) > 80
		t.Fatalf("scalar subquery rows = %d", res.NumRows())
	}
}

func TestBatchNormStyleQuery(t *testing.T) {
	// The paper's Q4 shape: (Value - AVG(...)) / (stddevSamp(...) + eps).
	db := New()
	mustExec(t, db, `CREATE TABLE fm (MatrixID Int64, OrderID Int64, Value Float64)`)
	mustExec(t, db, `INSERT INTO fm VALUES (1, 1, 1.0), (1, 2, 2.0), (1, 3, 3.0), (1, 4, 4.0)`)
	mustExec(t, db, `CREATE TEMP TABLE fm_bn AS
		SELECT MatrixID, OrderID,
			((Value - (SELECT AVG(Value) FROM fm)) / ((SELECT stddevSamp(Value) FROM fm) + 0.00005)) AS Value
		FROM fm`)
	res := mustExec(t, db, `SELECT Value FROM fm_bn ORDER BY OrderID`)
	std := math.Sqrt(5.0 / 3.0)
	want := (1.0 - 2.5) / (std + 0.00005)
	if math.Abs(res.Cols[0].Get(0).F-want) > 1e-12 {
		t.Fatalf("bn value = %v, want %v", res.Cols[0].Get(0).F, want)
	}
}

func TestCreateTempTableParenSelect(t *testing.T) {
	// Paper syntax: CREATE TEMP TABLE t(SELECT ...).
	db := newTestDB(t)
	mustExec(t, db, `CREATE TEMP TABLE rich(SELECT id, salary FROM emp WHERE salary >= 90)`)
	res := mustExec(t, db, `SELECT count(*) c FROM rich`)
	if res.Cols[0].Get(0).I != 2 {
		t.Fatalf("temp table rows = %v", res.Cols[0].Get(0))
	}
}

func TestCreateView(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE VIEW engs AS SELECT id, name FROM emp WHERE dept = 'eng'`)
	res := mustExec(t, db, `SELECT count(*) c FROM engs`)
	if res.Cols[0].Get(0).I != 2 {
		t.Fatalf("view rows = %v", res.Cols[0].Get(0))
	}
	// Views track base-table changes.
	mustExec(t, db, `INSERT INTO emp VALUES (6, 'frank', 'eng', 85.0, TRUE)`)
	res = mustExec(t, db, `SELECT count(*) c FROM engs`)
	if res.Cols[0].Get(0).I != 3 {
		t.Fatalf("view rows after insert = %v", res.Cols[0].Get(0))
	}
}

func TestCreateViewParenSelect(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE VIEW v(SELECT id FROM emp)`)
	res := mustExec(t, db, `SELECT count(*) c FROM v`)
	if res.Cols[0].Get(0).I != 5 {
		t.Fatalf("paren view rows = %v", res.Cols[0].Get(0))
	}
}

func TestUpdateReLUStyle(t *testing.T) {
	// The paper's ReLU: UPDATE cb_output SET Value = 0 WHERE Value < 0.
	db := New()
	mustExec(t, db, `CREATE TABLE cb_output (MatrixID Int64, Value Float64)`)
	mustExec(t, db, `INSERT INTO cb_output VALUES (1, -3.5), (2, 2.0), (3, -0.1), (4, 0.0)`)
	mustExec(t, db, `UPDATE cb_output SET Value = 0 WHERE Value < 0`)
	res := mustExec(t, db, `SELECT sum(Value) s, min(Value) m FROM cb_output`)
	if res.Cols[0].Get(0).F != 2.0 || res.Cols[1].Get(0).F != 0 {
		t.Fatalf("relu update: %v", res.GetRow(0))
	}
}

func TestDelete(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `DELETE FROM emp WHERE dept = 'sales'`)
	res := mustExec(t, db, `SELECT count(*) c FROM emp`)
	if res.Cols[0].Get(0).I != 3 {
		t.Fatalf("after delete: %v", res.Cols[0].Get(0))
	}
}

func TestDropTable(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `DROP TABLE emp`)
	if _, err := db.Exec(`SELECT * FROM emp`); err == nil {
		t.Fatal("expected error after drop")
	}
	mustExec(t, db, `DROP TABLE IF EXISTS emp`) // no error
	if _, err := db.Exec(`DROP TABLE emp`); err == nil {
		t.Fatal("expected error dropping missing table")
	}
}

func TestDistinct(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT DISTINCT dept FROM emp ORDER BY dept`)
	if res.NumRows() != 3 {
		t.Fatalf("distinct rows = %d", res.NumRows())
	}
}

func TestLimitOffset(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 1`)
	if res.NumRows() != 2 || res.Cols[0].Get(0).I != 2 || res.Cols[0].Get(1).I != 3 {
		t.Fatalf("limit/offset: %v", res.Cols[0])
	}
}

func TestOrderByDesc(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT id FROM emp ORDER BY salary DESC LIMIT 1`)
	if res.Cols[0].Get(0).I != 1 {
		t.Fatalf("top salary id = %v", res.Cols[0].Get(0))
	}
}

func TestInBetweenCase(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT count(*) c FROM emp WHERE dept IN ('eng', 'hr')`)
	if res.Cols[0].Get(0).I != 3 {
		t.Fatalf("IN count = %v", res.Cols[0].Get(0))
	}
	res = mustExec(t, db, `SELECT count(*) c FROM emp WHERE salary BETWEEN 70 AND 90`)
	if res.Cols[0].Get(0).I != 3 {
		t.Fatalf("BETWEEN count = %v", res.Cols[0].Get(0))
	}
	res = mustExec(t, db, `SELECT CASE WHEN salary >= 90 THEN 'high' ELSE 'low' END AS band FROM emp ORDER BY id LIMIT 1`)
	if res.Cols[0].Get(0).S != "high" {
		t.Fatalf("CASE = %v", res.Cols[0].Get(0))
	}
}

func TestStringDateComparison(t *testing.T) {
	// Dates as ISO strings compare correctly, as the paper's queries assume.
	db := New()
	mustExec(t, db, `CREATE TABLE ev (d String)`)
	mustExec(t, db, `INSERT INTO ev VALUES ('2021-01-05'), ('2021-01-20'), ('2021-02-01')`)
	res := mustExec(t, db, `SELECT count(*) c FROM ev WHERE d > '2021-01-01' AND d < '2021-01-31'`)
	if res.Cols[0].Get(0).I != 2 {
		t.Fatalf("date range count = %v", res.Cols[0].Get(0))
	}
}

func TestBuiltinScalars(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT abs(-3.5) a, sqrt(16) b, greatest(1, 5, 3) c, least(2, -1) d, if(1 > 0, 'y', 'n') e, exp(0) f`)
	row := res.GetRow(0)
	if row[0].F != 3.5 || row[1].F != 4 || row[2].I != 5 || row[3].I != -1 || row[4].S != "y" || row[5].F != 1 {
		t.Fatalf("builtins: %v", row)
	}
}

func TestUDFRegistrationAndCall(t *testing.T) {
	db := newTestDB(t)
	db.History = obs.NewQueryHistory(16)
	db.RegisterUDF(&ScalarUDF{
		Name:  "doubler",
		Arity: 1,
		Fn: RowUDF(func(_ context.Context, args []Datum) (Datum, error) {
			f, _ := args[0].AsFloat()
			return Float(f * 2), nil
		}),
		Cost: 10,
	})
	res := mustExec(t, db, `SELECT doubler(salary) ds FROM emp WHERE id = 3`)
	if res.Cols[0].Get(0).F != 160 {
		t.Fatalf("udf = %v", res.Cols[0].Get(0))
	}
	if got := lastUDFCalls(db); got != 1 {
		t.Fatalf("udf call count = %d", got)
	}
}

func TestUDFInPredicate(t *testing.T) {
	db := newTestDB(t)
	calls := 0
	db.RegisterUDF(&ScalarUDF{
		Name:  "is_even",
		Arity: 1,
		Fn: RowUDF(func(_ context.Context, args []Datum) (Datum, error) {
			calls++
			v, _ := args[0].AsInt()
			return Bool(v%2 == 0), nil
		}),
		Cost: 1000,
	})
	res := mustExec(t, db, `SELECT count(*) c FROM emp WHERE is_even(id) AND salary > 0`)
	if res.Cols[0].Get(0).I != 2 {
		t.Fatalf("udf predicate count = %v", res.Cols[0].Get(0))
	}
	// The expensive UDF must be ordered after the cheap predicate; with
	// salary > 0 keeping everything, calls = 5 either way here, but the
	// predicate order is observable through the plan.
	if calls == 0 {
		t.Fatal("udf never called")
	}
}

// TestUDFConditionalPositionsCallOnlyReachingRows: a UDF under an OR or
// AND operand or in a CASE branch runs only on the rows whose evaluation
// reaches it, and each such call is counted once in the statement's query
// record.
func TestUDFConditionalPositionsCallOnlyReachingRows(t *testing.T) {
	db := newTestDB(t)
	db.History = obs.NewQueryHistory(16)
	var seen []int64
	db.RegisterUDF(&ScalarUDF{
		Name:  "probe",
		Arity: 1,
		Fn: RowUDF(func(_ context.Context, args []Datum) (Datum, error) {
			seen = append(seen, args[0].I)
			return Bool(args[0].I%2 == 1), nil
		}),
	})
	cases := []struct {
		sql  string
		want []int64
	}{
		{`SELECT count(*) c FROM emp WHERE salary > 85 OR probe(id)`, []int64{3, 4, 5}},
		{`SELECT if(salary > 85 AND probe(id), 1, 0) AS x FROM emp`, []int64{1, 2}},
		{`SELECT CASE WHEN salary > 85 THEN 0 WHEN probe(id) THEN 1 ELSE 2 END AS x FROM emp`, []int64{3, 4, 5}},
		{`SELECT CASE WHEN active THEN probe(id) ELSE FALSE END AS x FROM emp`, []int64{1, 2, 4, 5}},
	}
	for _, c := range cases {
		seen = nil
		mustExec(t, db, c.sql)
		sort.Slice(seen, func(i, j int) bool { return seen[i] < seen[j] })
		if fmt.Sprint(seen) != fmt.Sprint(c.want) {
			t.Errorf("%s: probe called on ids %v, want %v", c.sql, seen, c.want)
		}
		if got := lastUDFCalls(db); got != int64(len(c.want)) {
			t.Errorf("%s: query record counts %d calls, want %d", c.sql, got, len(c.want))
		}
	}
}

// TestUDFCallsBatchedPerChunk: a UDF that every evaluation reaches — in a
// filter conjunct, an aggregate argument, a projection, a sort key — gets
// one Fn call per chunk of at most udfBatchRows rows, covering exactly the
// rows that reach it.
func TestUDFCallsBatchedPerChunk(t *testing.T) {
	db := New()
	db.History = obs.NewQueryHistory(16)
	mustExec(t, db, `CREATE TABLE t (x Int64, y Int64)`)
	var vals []string
	for i := 0; i < 1000; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i%10))
	}
	mustExec(t, db, `INSERT INTO t VALUES `+strings.Join(vals, ", "))
	var batches []int
	db.RegisterUDF(&ScalarUDF{
		Name:  "probe",
		Arity: 1,
		Fn: func(_ context.Context, calls [][]Datum) ([]Datum, error) {
			batches = append(batches, len(calls))
			out := make([]Datum, len(calls))
			for i, args := range calls {
				out[i] = Int(args[0].I % 3)
			}
			return out, nil
		},
	})
	cases := []struct {
		sql  string
		rows int
	}{
		{`SELECT count(*) c FROM t WHERE y < 5 AND probe(x) = 1`, 500},
		{`SELECT sum(if(probe(x) = 1, 1, 0)) s FROM t`, 1000},
		{`SELECT probe(x) + 1 AS p FROM t`, 1000},
		{`SELECT x FROM t ORDER BY probe(x), x`, 1000},
	}
	for _, c := range cases {
		batches = nil
		mustExec(t, db, c.sql)
		want := (c.rows + udfBatchRows - 1) / udfBatchRows
		total := 0
		for _, n := range batches {
			total += n
			if n > udfBatchRows {
				t.Errorf("%s: a batch of %d calls, bound %d", c.sql, n, udfBatchRows)
			}
		}
		if total != c.rows || len(batches) != want {
			t.Errorf("%s: %d calls in %d batches, want %d in %d", c.sql, total, len(batches), c.rows, want)
		}
		if got := lastUDFCalls(db); got != int64(c.rows) {
			t.Errorf("%s: %d calls counted, want %d", c.sql, got, c.rows)
		}
	}
}

// lastUDFCalls is the UDF call count of the last statement db recorded.
func lastUDFCalls(db *DB) int64 {
	recs := db.History.Snapshot()
	return recs[len(recs)-1].UDFCalls
}

func TestExpensiveUDFOrderedLast(t *testing.T) {
	db := newTestDB(t)
	calls := 0
	db.RegisterUDF(&ScalarUDF{
		Name:  "slow_check",
		Arity: 1,
		Fn: RowUDF(func(_ context.Context, args []Datum) (Datum, error) {
			calls++
			return Bool(true), nil
		}),
		Cost: 1e6,
	})
	// salary > 95 keeps only alice; the UDF should then run once, not 5x.
	res := mustExec(t, db, `SELECT count(*) c FROM emp WHERE slow_check(id) AND salary > 95`)
	if res.Cols[0].Get(0).I != 1 {
		t.Fatalf("count = %v", res.Cols[0].Get(0))
	}
	if calls != 1 {
		t.Fatalf("expensive UDF evaluated %d times, want 1 (should run after cheap filter)", calls)
	}
}

func TestDelayUDFsHint(t *testing.T) {
	db := newTestDB(t)
	calls := 0
	db.RegisterUDF(&ScalarUDF{
		Name:  "cheap_udf",
		Arity: 1,
		Fn: RowUDF(func(_ context.Context, args []Datum) (Datum, error) {
			calls++
			return Bool(true), nil
		}),
		Cost: 0.001, // so cheap the rank order would put it first
	})
	delay := true
	hints := &QueryHints{DelayUDFs: &delay, UDFCost: map[string]float64{"cheap_udf": 0.001}}
	res, err := db.ExecHinted(`SELECT count(*) c FROM emp WHERE cheap_udf(id) AND salary > 95`, hints)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols[0].Get(0).I != 1 {
		t.Fatalf("count = %v", res.Cols[0].Get(0))
	}
	if calls != 1 {
		t.Fatalf("delayed UDF evaluated %d times, want 1", calls)
	}
}

func TestSymmetricJoinHint(t *testing.T) {
	db := newTestDB(t)
	db.RegisterUDF(&ScalarUDF{
		Name:  "ident",
		Arity: 1,
		Fn:    RowUDF(func(_ context.Context, args []Datum) (Datum, error) { return args[0], nil }),
		Cost:  100,
	})
	mustExec(t, db, `CREATE TABLE pat (pid Int64, label String)`)
	mustExec(t, db, `INSERT INTO pat VALUES (1, 'a'), (2, 'b'), (3, 'c')`)
	hints := &QueryHints{SymmetricJoin: true}
	res, err := db.ExecHinted(`SELECT e.name, p.label FROM emp e, pat p WHERE ident(e.id) = p.pid ORDER BY e.id`, hints)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Fatalf("symmetric join rows = %d", res.NumRows())
	}
	// Verify the plan actually chose the symmetric algorithm.
	plan, err := db.PlanSelect(`SELECT e.name FROM emp e, pat p WHERE ident(e.id) = p.pid`, hints)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Explain(plan), "SymmetricHashJoin") {
		t.Fatalf("plan does not use symmetric join:\n%s", Explain(plan))
	}
}

func TestJoinOrderHint(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE tiny (k Int64)`)
	mustExec(t, db, `INSERT INTO tiny VALUES (1)`)
	hints := &QueryHints{JoinOrder: []string{"e", "t"}}
	plan, err := db.PlanSelect(`SELECT e.name FROM emp e, tiny t WHERE e.id = t.k`, hints)
	if err != nil {
		t.Fatal(err)
	}
	// Forced order starts from emp despite tiny being smaller.
	exp := Explain(plan)
	engFirst := strings.Index(exp, "Scan emp")
	tinyAt := strings.Index(exp, "Scan tiny")
	if engFirst < 0 || tinyAt < 0 || engFirst > tinyAt {
		t.Fatalf("join order hint ignored:\n%s", exp)
	}
}

// TestProfileCollectsOperators: the per-operator profile is a GROUP BY
// over the self time of the retained spans.
func TestProfileCollectsOperators(t *testing.T) {
	db := newTestDB(t)
	keepAllTraces(db)
	db.EnableSysCatalog()
	mustExec(t, db, `SELECT dept, count(*) FROM emp WHERE salary > 0 GROUP BY dept`)
	res := mustExec(t, db, `SELECT name, sum(self_ms) AS self_ms FROM sys.spans GROUP BY name`)
	got := map[string]bool{}
	for i := 0; i < res.NumRows(); i++ {
		got[res.Cols[0].Get(i).S] = true
	}
	for _, op := range []string{"Scan emp", "Aggregate"} {
		if !got[op] {
			t.Fatalf("span profile missing %s: %v", op, got)
		}
	}
}

func TestInsertSelect(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE backup (id Int64, name String)`)
	mustExec(t, db, `INSERT INTO backup SELECT id, name FROM emp WHERE dept = 'eng'`)
	res := mustExec(t, db, `SELECT count(*) c FROM backup`)
	if res.Cols[0].Get(0).I != 2 {
		t.Fatalf("insert-select rows = %v", res.Cols[0].Get(0))
	}
}

func TestInsertColumnList(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `INSERT INTO emp (id, name) VALUES (99, 'zed')`)
	res := mustExec(t, db, `SELECT dept FROM emp WHERE id = 99`)
	if !res.Cols[0].Get(0).IsNull() {
		t.Fatalf("unlisted column should be NULL, got %v", res.Cols[0].Get(0))
	}
}

func TestNullComparisons(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `INSERT INTO emp (id, name) VALUES (100, 'nullguy')`)
	res := mustExec(t, db, `SELECT count(*) c FROM emp WHERE salary > 0`)
	if res.Cols[0].Get(0).I != 5 { // NULL salary row filtered out
		t.Fatalf("null filter count = %v", res.Cols[0].Get(0))
	}
	res = mustExec(t, db, `SELECT count(*) c FROM emp WHERE salary IS NULL`)
	if res.Cols[0].Get(0).I != 1 {
		t.Fatalf("IS NULL count = %v", res.Cols[0].Get(0))
	}
	res = mustExec(t, db, `SELECT count(salary) c FROM emp`)
	if res.Cols[0].Get(0).I != 5 { // count(col) skips NULLs
		t.Fatalf("count(col) = %v", res.Cols[0].Get(0))
	}
}

func TestParseErrors(t *testing.T) {
	db := newTestDB(t)
	for _, bad := range []string{
		`SELEC x FROM emp`,
		`SELECT FROM emp`,
		`SELECT * FROM`,
		`SELECT * FROM emp WHERE`,
		`CREATE TABLE`,
		`INSERT INTO emp VALUES (1`,
		`SELECT 'unterminated FROM emp`,
	} {
		if _, err := db.Exec(bad); err == nil {
			t.Fatalf("expected parse error for %q", bad)
		}
	}
}

func TestUnknownColumnAndTableErrors(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`SELECT nosuch FROM emp`); err == nil {
		t.Fatal("expected unknown column error")
	}
	if _, err := db.Exec(`SELECT * FROM nosuch`); err == nil {
		t.Fatal("expected unknown table error")
	}
	if _, err := db.Exec(`SELECT nosuchfn(1) FROM emp`); err == nil {
		t.Fatal("expected unknown function error")
	}
}

func TestAmbiguousColumnError(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE emp2 (id Int64)`)
	mustExec(t, db, `INSERT INTO emp2 VALUES (1)`)
	if _, err := db.Exec(`SELECT id FROM emp, emp2 WHERE emp.id = emp2.id`); err == nil {
		t.Fatal("expected ambiguous column error")
	}
}

func TestMultiStatementExec(t *testing.T) {
	db := New()
	res := mustExec(t, db, `
		CREATE TABLE t (x Int64);
		INSERT INTO t VALUES (1), (2), (3);
		SELECT sum(x) s FROM t;
	`)
	if res.Cols[0].Get(0).I != 6 {
		t.Fatalf("multi-stmt result = %v", res.Cols[0].Get(0))
	}
}

func TestBlobStorage(t *testing.T) {
	db := New()
	tbl, err := db.CreateTable("media", Schema{{Name: "id", Type: TInt}, {Name: "frame", Type: TBlob}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow([]Datum{Int(1), Blob([]byte{1, 2, 3})}); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, db, `SELECT length(frame) n FROM media`)
	if res.Cols[0].Get(0).I != 3 {
		t.Fatalf("blob length = %v", res.Cols[0].Get(0))
	}
}

func TestTableStatsDistinct(t *testing.T) {
	db := newTestDB(t)
	emp := db.GetTable("emp")
	for col, want := range map[string]int{"dept": 3, "id": 5, "active": 2} {
		if d, ok := emp.Distinct(col); !ok || d != want {
			t.Fatalf("%s distinct = %d (%v), want %d", col, d, ok, want)
		}
	}
	if _, ok := emp.Distinct("nosuch"); ok {
		t.Fatal("unknown column must report no statistics")
	}
	// Cached until the next write.
	mustExec(t, db, `INSERT INTO emp VALUES (6, 'fay', 'ops', 50.0, TRUE)`)
	if d, _ := emp.Distinct("dept"); d != 4 {
		t.Fatalf("dept distinct after insert = %d, want 4", d)
	}
}

func TestQueryRejectsNonSelect(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Query(`INSERT INTO emp VALUES (7, 'x', 'y', 1.0, TRUE)`); err == nil {
		t.Fatal("Query must reject non-SELECT")
	}
}

func TestCardOverrideChangesJoinOrder(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE big (k Int64)`)
	for i := 0; i < 3; i++ {
		mustExec(t, db, `INSERT INTO big VALUES (1), (2), (3)`)
	}
	// Pretend emp is tiny and big is huge — override flips the greedy order.
	hints := &QueryHints{CardOverrides: map[string]float64{"emp": 1, "big": 1e9}}
	plan, err := db.PlanSelect(`SELECT e.name FROM emp e, big b WHERE e.id = b.k`, hints)
	if err != nil {
		t.Fatal(err)
	}
	exp := Explain(plan)
	if strings.Index(exp, "Scan emp") > strings.Index(exp, "Scan big") {
		t.Fatalf("card override not honored:\n%s", exp)
	}
}

func TestCaseInsensitiveIdentifiers(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT NAME FROM EMP WHERE ID = 1`)
	if res.Cols[0].Get(0).S != "alice" {
		t.Fatalf("case-insensitive lookup failed: %v", res.Cols[0].Get(0))
	}
}

func TestStringConcatOperator(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT name || '@co' em FROM emp WHERE id = 1`)
	if res.Cols[0].Get(0).S != "alice@co" {
		t.Fatalf("concat = %v", res.Cols[0].Get(0))
	}
}

func TestNotAndParens(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT count(*) c FROM emp WHERE NOT (dept = 'eng' OR dept = 'hr')`)
	if res.Cols[0].Get(0).I != 2 {
		t.Fatalf("NOT count = %v", res.Cols[0].Get(0))
	}
}

func TestArgMaxArgMin(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT argMax(name, salary) top, argMin(name, salary) bottom FROM emp`)
	if res.Cols[0].Get(0).S != "alice" || res.Cols[1].Get(0).S != "eve" {
		t.Fatalf("argMax/argMin: %v", res.GetRow(0))
	}
}

func TestArgMaxGrouped(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT dept, argMax(name, salary) best FROM emp GROUP BY dept ORDER BY dept`)
	if res.NumRows() != 3 {
		t.Fatalf("groups = %d", res.NumRows())
	}
	if res.Cols[1].Get(0).S != "alice" { // eng
		t.Fatalf("eng best = %v", res.Cols[1].Get(0))
	}
	if res.Cols[1].Get(2).S != "carol" { // sales
		t.Fatalf("sales best = %v", res.Cols[1].Get(2))
	}
}

func TestArgMaxWrongArity(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`SELECT argMax(name) FROM emp`); err == nil {
		t.Fatal("argMax with one argument must fail")
	}
}

func TestArgMaxEmptyIsNull(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT argMax(name, salary) m FROM emp WHERE salary > 1e9`)
	if !res.Cols[0].Get(0).IsNull() {
		t.Fatalf("empty argMax = %v", res.Cols[0].Get(0))
	}
}
