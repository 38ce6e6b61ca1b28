package sqldb

import (
	"fmt"
	"strings"
	"testing"
)

func TestLeftJoinBasic(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE badge (emp_id Int64, badge String)`)
	mustExec(t, db, `INSERT INTO badge VALUES (1, 'gold'), (3, 'silver')`)
	res := mustExec(t, db, `SELECT e.name, b.badge FROM emp e LEFT JOIN badge b ON e.id = b.emp_id ORDER BY e.id`)
	if res.NumRows() != 5 {
		t.Fatalf("left join rows = %d, want 5", res.NumRows())
	}
	if res.Cols[1].Get(0).S != "gold" {
		t.Fatalf("row 0 badge = %v", res.Cols[1].Get(0))
	}
	if !res.Cols[1].Get(1).IsNull() {
		t.Fatalf("row 1 badge should be NULL, got %v", res.Cols[1].Get(1))
	}
	if res.Cols[1].Get(2).S != "silver" {
		t.Fatalf("row 2 badge = %v", res.Cols[1].Get(2))
	}
}

func TestLeftJoinOuterKeyword(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE badge (emp_id Int64, badge String)`)
	res := mustExec(t, db, `SELECT e.id FROM emp e LEFT OUTER JOIN badge b ON e.id = b.emp_id`)
	if res.NumRows() != 5 {
		t.Fatalf("left outer rows = %d", res.NumRows())
	}
}

func TestLeftJoinWhereOnRightSide(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE badge (emp_id Int64, badge String)`)
	mustExec(t, db, `INSERT INTO badge VALUES (1, 'gold'), (3, 'silver')`)
	// WHERE applies after the join: IS NULL finds the unmatched rows.
	res := mustExec(t, db, `SELECT count(*) c FROM emp e LEFT JOIN badge b ON e.id = b.emp_id WHERE b.badge IS NULL`)
	if res.Cols[0].Get(0).I != 3 {
		t.Fatalf("anti-join count = %v, want 3", res.Cols[0].Get(0))
	}
}

func TestLeftJoinDuplicateMatches(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE badge (emp_id Int64, badge String)`)
	mustExec(t, db, `INSERT INTO badge VALUES (1, 'gold'), (1, 'platinum')`)
	res := mustExec(t, db, `SELECT count(*) c FROM emp e LEFT JOIN badge b ON e.id = b.emp_id`)
	// 2 matches for alice + 4 unmatched singles = 6.
	if res.Cols[0].Get(0).I != 6 {
		t.Fatalf("rows = %v, want 6", res.Cols[0].Get(0))
	}
}

func TestLeftJoinWithExtraRelation(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE badge (emp_id Int64, badge String)`)
	mustExec(t, db, `INSERT INTO badge VALUES (2, 'gold')`)
	mustExec(t, db, `CREATE TABLE dept2 (name String, floor Int64)`)
	mustExec(t, db, `INSERT INTO dept2 VALUES ('eng', 3), ('sales', 1), ('hr', 2)`)
	// Composite left-join relation inner-joined with another table.
	res := mustExec(t, db, `SELECT e.name, d.floor, b.badge FROM emp e LEFT JOIN badge b ON e.id = b.emp_id, dept2 d WHERE e.dept = d.name ORDER BY e.id`)
	if res.NumRows() != 5 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if !res.Cols[2].Get(0).IsNull() || res.Cols[2].Get(1).S != "gold" {
		t.Fatalf("badges: %v %v", res.Cols[2].Get(0), res.Cols[2].Get(1))
	}
}

func TestLeftJoinAggregation(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE badge (emp_id Int64, badge String)`)
	mustExec(t, db, `INSERT INTO badge VALUES (1, 'gold'), (2, 'gold')`)
	// count(col) skips the NULL-padded rows, count(*) does not.
	res := mustExec(t, db, `SELECT count(*) a, count(b.badge) m FROM emp e LEFT JOIN badge b ON e.id = b.emp_id`)
	if res.Cols[0].Get(0).I != 5 || res.Cols[1].Get(0).I != 2 {
		t.Fatalf("counts: %v", res.GetRow(0))
	}
}

func TestLeftJoinRequiresEquiOn(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE badge (emp_id Int64, badge String)`)
	if _, err := db.Exec(`SELECT e.id FROM emp e LEFT JOIN badge b ON e.id > b.emp_id`); err == nil {
		t.Fatal("non-equi LEFT JOIN must be rejected")
	}
	if _, err := db.Exec(`SELECT e.id FROM emp e LEFT JOIN badge b`); err == nil {
		t.Fatal("LEFT JOIN without ON must be rejected")
	}
}

func TestLeftJoinExplain(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE badge (emp_id Int64, badge String)`)
	res := mustExec(t, db, `EXPLAIN SELECT e.id FROM emp e LEFT JOIN badge b ON e.id = b.emp_id`)
	joined := ""
	for i := 0; i < res.NumRows(); i++ {
		joined += res.Cols[0].Get(i).S + "\n"
	}
	if !strings.Contains(joined, "LeftOuterHashJoin") {
		t.Fatalf("explain missing LeftOuterHashJoin:\n%s", joined)
	}
}

func TestInSubquery(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE vip (emp_id Int64)`)
	mustExec(t, db, `INSERT INTO vip VALUES (1), (4)`)
	res := mustExec(t, db, `SELECT name FROM emp WHERE id IN (SELECT emp_id FROM vip) ORDER BY id`)
	if res.NumRows() != 2 || res.Cols[0].Get(0).S != "alice" || res.Cols[0].Get(1).S != "dave" {
		t.Fatalf("IN subquery: %v", res.Cols[0])
	}
	res = mustExec(t, db, `SELECT count(*) c FROM emp WHERE id NOT IN (SELECT emp_id FROM vip)`)
	if res.Cols[0].Get(0).I != 3 {
		t.Fatalf("NOT IN subquery: %v", res.Cols[0].Get(0))
	}
}

func TestInSubqueryEmpty(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE vip (emp_id Int64)`)
	res := mustExec(t, db, `SELECT count(*) c FROM emp WHERE id IN (SELECT emp_id FROM vip)`)
	if res.Cols[0].Get(0).I != 0 {
		t.Fatalf("empty IN subquery: %v", res.Cols[0].Get(0))
	}
}

func TestInSubqueryMultiColumnRejected(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`SELECT name FROM emp WHERE id IN (SELECT id, name FROM emp)`); err == nil {
		t.Fatal("multi-column IN subquery must fail")
	}
}

func TestInSubqueryAggregated(t *testing.T) {
	db := newTestDB(t)
	// Employees in departments with more than one member.
	res := mustExec(t, db, `SELECT count(*) c FROM emp WHERE dept IN (SELECT dept FROM emp GROUP BY dept HAVING count(*) > 1)`)
	if res.Cols[0].Get(0).I != 4 {
		t.Fatalf("aggregated IN subquery: %v", res.Cols[0].Get(0))
	}
}

func TestUnionAll(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT name, salary FROM emp WHERE dept = 'eng'
		UNION ALL SELECT name, salary FROM emp WHERE dept = 'hr'`)
	if res.NumRows() != 3 {
		t.Fatalf("union rows = %d, want 3", res.NumRows())
	}
	// Duplicates are preserved.
	res = mustExec(t, db, `SELECT id FROM emp UNION ALL SELECT id FROM emp`)
	if res.NumRows() != 10 {
		t.Fatalf("dup union rows = %d, want 10", res.NumRows())
	}
}

func TestUnionAllThreeBranches(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT 1 AS x UNION ALL SELECT 2 UNION ALL SELECT 3`)
	if res.NumRows() != 3 {
		t.Fatalf("3-branch union rows = %d", res.NumRows())
	}
	sum := int64(0)
	for i := 0; i < 3; i++ {
		v, _ := res.Cols[0].Get(i).AsInt()
		sum += v
	}
	if sum != 6 {
		t.Fatalf("union values sum = %d", sum)
	}
}

func TestUnionAllColumnMismatch(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`SELECT id FROM emp UNION ALL SELECT id, name FROM emp`); err == nil {
		t.Fatal("column-count mismatch must fail")
	}
}

func TestUnionRequiresAll(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`SELECT id FROM emp UNION SELECT id FROM emp`); err == nil {
		t.Fatal("bare UNION must be rejected (only UNION ALL)")
	}
}

func TestUnionAllInsideCreateAndFromSubquery(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE u AS SELECT id FROM emp WHERE id <= 2 UNION ALL SELECT id FROM emp WHERE id >= 4`)
	res := mustExec(t, db, `SELECT count(*) c FROM u`)
	if res.Cols[0].Get(0).I != 4 {
		t.Fatalf("create-from-union rows = %v", res.Cols[0].Get(0))
	}
}

// TestDerivedTableUnionAll: a UNION ALL that feeds another block — a FROM
// subquery, a view, an IN subquery — yields every branch's rows in branch
// order, as a top-level one does, also through a kept plan, which follows
// writes to a branch's table, and through plan-level parameter binding.
func TestDerivedTableUnionAll(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a Int64)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2)`)
	count := func(res *Result) int64 {
		t.Helper()
		if res.NumRows() != 1 {
			t.Fatalf("COUNT returned %d rows", res.NumRows())
		}
		return res.Cols[0].Get(0).I
	}
	const union = `SELECT a FROM t UNION ALL SELECT a FROM t`
	if c := count(mustExec(t, db, `SELECT COUNT(*) AS c FROM (`+union+`) X`)); c != 4 {
		t.Fatalf("COUNT over derived union = %d, want 4", c)
	}
	res := mustExec(t, db, `SELECT X.a FROM (SELECT a FROM t WHERE a = 2
		UNION ALL SELECT a FROM t WHERE a = 1 UNION ALL SELECT a + 10 AS a FROM t) X`)
	var got []int64
	for i := 0; i < res.NumRows(); i++ {
		got = append(got, res.Cols[0].Get(i).I)
	}
	if fmt.Sprint(got) != "[2 1 11 12]" {
		t.Fatalf("derived union rows = %v, want [2 1 11 12] (branch order)", got)
	}
	in := `SELECT COUNT(*) AS c FROM t WHERE a IN (SELECT a FROM t WHERE a = 1 UNION ALL SELECT a FROM t WHERE a = 2)`
	if c := count(mustExec(t, db, in)); c != 2 {
		t.Fatalf("IN over a union = %d, want 2", c)
	}
	mustExec(t, db, `CREATE VIEW v AS `+union)
	if c := count(mustExec(t, db, `SELECT COUNT(*) AS c FROM v`)); c != 4 {
		t.Fatalf("COUNT over a union view = %d, want 4", c)
	}
	if _, err := db.Exec(`SELECT COUNT(*) AS c FROM (SELECT a FROM t UNION ALL SELECT a, a FROM t) X`); err == nil {
		t.Fatal("a derived union's column-count mismatch must fail")
	}
	plan := mustExec(t, db, `EXPLAIN SELECT COUNT(*) AS c FROM (`+union+`) X`)
	var lines []string
	for i := 0; i < plan.NumRows(); i++ {
		lines = append(lines, plan.Cols[0].Get(i).String())
	}
	if text := strings.Join(lines, "\n"); !strings.Contains(text, "UnionAll branches=2") {
		t.Fatalf("EXPLAIN lacks the union node:\n%s", text)
	}

	kept, err := db.Prepare(`SELECT COUNT(*) AS c FROM (` + union + `) X`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []int64{4, 4, 6} {
		if want == 6 {
			mustExec(t, db, `INSERT INTO t VALUES (3)`)
		}
		res, err := kept.Query()
		if err != nil {
			t.Fatal(err)
		}
		if c := count(res); c != want {
			t.Fatalf("kept plan: COUNT over derived union = %d, want %d", c, want)
		}
	}
	bound, err := db.Prepare(`SELECT COUNT(*) AS c FROM (SELECT a FROM t WHERE a >= ? UNION ALL SELECT a FROM t WHERE a >= ?) X`)
	if err != nil {
		t.Fatal(err)
	}
	res, err = bound.Query(Int(1), Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if c := count(res); c != 4 {
		t.Fatalf("bound derived union = %d, want 4 (3 + 1)", c)
	}
}

func TestOrderByOrdinal(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT name, salary FROM emp ORDER BY 2 DESC LIMIT 1`)
	if res.Cols[0].Get(0).S != "alice" {
		t.Fatalf("ORDER BY 2: %v", res.Cols[0].Get(0))
	}
	if _, err := db.Exec(`SELECT name FROM emp ORDER BY 5`); err == nil {
		t.Fatal("out-of-range ordinal must fail")
	}
}
