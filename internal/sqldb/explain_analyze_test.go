package sqldb

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// analyzeTimeRe scrubs wall-clock values so the golden comparison pins only
// the shape of the output, not machine-dependent timings.
var analyzeTimeRe = regexp.MustCompile(`time=[^)]+`)

func explainAnalyzeFixture(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec := func(sql string) {
		t.Helper()
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("fixture %q: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE dept (id Int64, name String)")
	mustExec("INSERT INTO dept VALUES (1,'eng'),(2,'ops'),(3,'empty')")
	mustExec("CREATE TABLE emp (id Int64, deptID Int64, salary Float64)")
	for i := 0; i < 10; i++ {
		mustExec(fmt.Sprintf("INSERT INTO emp VALUES (%d, %d, %d)", i, i%2+1, 1000+i*10))
	}
	return db
}

// TestExplainAnalyzeGolden pins the EXPLAIN ANALYZE output shape: every
// plan node annotated with actual rows, calls, and a time field, alongside
// the optimizer estimates.
func TestExplainAnalyzeGolden(t *testing.T) {
	db := explainAnalyzeFixture(t)
	res, err := db.Exec(
		"EXPLAIN ANALYZE SELECT d.name, count(*) c FROM emp E, dept D " +
			"WHERE E.deptID = D.id AND E.salary > 1000 " +
			"GROUP BY D.name ORDER BY c DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i := 0; i < res.NumRows(); i++ {
		lines = append(lines, analyzeTimeRe.ReplaceAllString(res.Cols[0].Get(i).String(), "time=T"))
	}
	got := strings.Join(lines, "\n")
	want := strings.TrimSpace(`
Limit 5 offset 0 (actual rows=2 calls=1 time=T)
  Sort keys=1 (actual rows=2 calls=1 time=T)
    Aggregate groupby=1 items=2 (actual rows=2 calls=1 time=T)
      HashJoin (est 3 rows) (actual rows=9 calls=1 time=T)
        Scan dept as D (est 3 rows) (actual rows=3 calls=1 time=T)
        Scan emp as E (est 3 rows) filters=1: [(E.salary > 1000)] (actual rows=9 calls=1 time=T)
`)
	if got != want {
		t.Fatalf("EXPLAIN ANALYZE output drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExplainAnalyzeSimpleScan covers the single-node case and checks the
// plain EXPLAIN stays annotation-free.
func TestExplainAnalyzeSimpleScan(t *testing.T) {
	db := explainAnalyzeFixture(t)
	res, err := db.Exec("EXPLAIN ANALYZE SELECT * FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	line := res.Cols[0].Get(0).String()
	if !strings.Contains(line, "actual rows=10") || !strings.Contains(line, "calls=1") ||
		!strings.Contains(line, "time=") {
		t.Fatalf("scan line missing actuals: %q", line)
	}
	if !strings.Contains(line, "est 10 rows") {
		t.Fatalf("scan line lost its estimate: %q", line)
	}
	plain, err := db.Exec("EXPLAIN SELECT * FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	if l := plain.Cols[0].Get(0).String(); strings.Contains(l, "actual") {
		t.Fatalf("plain EXPLAIN gained actuals: %q", l)
	}
}

// TestExplainAnalyzeParseRoundTrip checks the statement parses and prints.
func TestExplainAnalyzeParseRoundTrip(t *testing.T) {
	st, err := Parse("EXPLAIN ANALYZE SELECT 1 AS x")
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := st.(*ExplainStmt)
	if !ok || !ex.Analyze {
		t.Fatalf("parsed %T analyze=%v, want ExplainStmt analyze=true", st, ok && ex.Analyze)
	}
	if !strings.HasPrefix(ex.String(), "EXPLAIN ANALYZE SELECT") {
		t.Fatalf("String() = %q", ex.String())
	}
}

// TestExplainSymmetricLeftOuterJoin pins the satellite fix: a join that is
// both symmetric and left-outer renders both properties instead of
// last-writer-wins.
func TestExplainSymmetricLeftOuterJoin(t *testing.T) {
	j := &LJoin{
		L:         &LScan{Table: "a", Alias: "A"},
		R:         &LScan{Table: "b", Alias: "B"},
		EquiL:     []Expr{&ColRef{Name: "x"}},
		EquiR:     []Expr{&ColRef{Name: "x"}},
		Symmetric: true,
		LeftOuter: true,
	}
	out := Explain(j)
	if !strings.Contains(out, "LeftOuterSymmetricHashJoin") {
		t.Fatalf("symmetric left-outer join drops a property:\n%s", out)
	}
	// The plain variants keep their historical labels.
	j.Symmetric = false
	if !strings.Contains(Explain(j), "LeftOuterHashJoin") {
		t.Fatalf("left-outer label drifted:\n%s", Explain(j))
	}
	j.LeftOuter = false
	j.Symmetric = true
	if !strings.Contains(Explain(j), "SymmetricHashJoin") {
		t.Fatalf("symmetric label drifted:\n%s", Explain(j))
	}
}

// TestJoinSelectivityEitherOrder: an equi-join's NDVs are looked up in each
// side's own relation, so the estimate does not depend on which side the
// condition names first. emp.deptID has 2 distinct values and dept.id 3, so
// 3 dept rows × 10 emp rows / max(2, 3) = 10.
func TestJoinSelectivityEitherOrder(t *testing.T) {
	db := explainAnalyzeFixture(t)
	for _, sql := range []string{
		`EXPLAIN SELECT E.id FROM emp E, dept D WHERE E.deptID = D.id`,
		`EXPLAIN SELECT E.id FROM emp E, dept D WHERE D.id = E.deptID`,
		`EXPLAIN SELECT E.id FROM dept D, emp E WHERE E.deptID = D.id`,
		`EXPLAIN SELECT E.id FROM emp E JOIN dept D ON E.deptID = D.id`,
		`EXPLAIN SELECT E.id FROM emp E JOIN dept D ON D.id = E.deptID`,
	} {
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Cols[0].Get(1).String(); !strings.Contains(got, "HashJoin (est 10 rows)") {
			t.Errorf("%s: join line %q, want est 10 rows", sql, got)
		}
	}
}
