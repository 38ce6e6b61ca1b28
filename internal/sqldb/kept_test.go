package sqldb

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// keptFixture is a database with a query history, a persistent weight
// table w(k, v) of wRows rows and an input table x(k, v) of xRows rows.
func keptFixture(t *testing.T, wRows, xRows int) *DB {
	t.Helper()
	db := New()
	db.History = obs.NewQueryHistory(256)
	fillTable(t, db, "w", "k Int64, v Float64", wRows, 0.5)
	fillTable(t, db, "x", "k Int64, v Float64", xRows, 0.25)
	return db
}

// fillTable drops and re-creates table name with n rows whose keys repeat
// every three and whose values step by step.
func fillTable(t *testing.T, db *DB, name, cols string, n int, step float64) {
	t.Helper()
	db.DropTable(name)
	mustExec(t, db, fmt.Sprintf("CREATE TABLE %s (%s)", name, cols))
	tb := db.GetTable(name)
	for i := 0; i < n; i++ {
		row := []Datum{Int(int64(i % 3))}
		for range tb.Schema[1:] {
			row = append(row, Float(float64(i)*step+0.1))
		}
		if err := tb.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
}

// planned counts the executions of text the history recorded as planned
// rather than served from a kept plan.
func planned(db *DB, text string) int {
	n := 0
	for _, r := range db.History.Snapshot() {
		if r.SQL == text && r.CacheState != "kept" {
			n++
		}
	}
	return n
}

// resultBits renders a result's rows in order, floats by their bits.
func resultBits(res *Result) string {
	var sb strings.Builder
	for i := 0; i < res.NumRows(); i++ {
		for _, c := range res.Cols {
			if d := c.Get(i); d.T == TFloat {
				fmt.Fprintf(&sb, "%x|", math.Float64bits(d.F))
			} else {
				sb.WriteString(d.String() + "|")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

var estRows = regexp.MustCompile(`\(est \d+ rows\)`)

// planShape renders a plan without the estimates a kept plan does not
// refresh.
func planShape(p Plan) string { return estRows.ReplaceAllString(Explain(p), "") }

// checkKeptMatchesFresh asserts the kept plan has the shape a fresh
// planning of sel gives, and that rows equal a fresh db.Query of sel. The
// fresh query runs unrecorded, so planned counts only p's executions.
func checkKeptMatchesFresh(t *testing.T, db *DB, p *Prepared, sel string, rows *Result) {
	t.Helper()
	hist := db.History
	db.History = nil
	defer func() { db.History = hist }()
	k := p.kept.Load()
	if k == nil {
		t.Fatal("no kept plan")
	}
	fresh, err := db.PlanSelect(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := planShape(k.plans[0]), planShape(fresh); got != want {
		t.Fatalf("kept plan\n%s\nfresh plan\n%s", got, want)
	}
	ref, err := db.Query(sel)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultBits(rows), resultBits(ref); got != want {
		t.Fatalf("rows from the kept plan\n%s\nfresh db.Query\n%s", got, want)
	}
}

const keptConv = `SELECT B.k * 10 + A.k AS id, B.k AS kid, SUM(A.v * B.v) AS v FROM x A INNER JOIN w B ON A.k = B.k GROUP BY B.k, A.k`

// TestPreparedKeepsPlanOverRecreatedInput: a prepared CTAS re-run over an
// input dropped and re-created with the same schema plans once, and its
// output matches a fresh query every run.
func TestPreparedKeepsPlanOverRecreatedInput(t *testing.T) {
	db := keptFixture(t, 9, 4)
	p, err := db.Prepare("CREATE TEMP TABLE out AS " + keptConv)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 4; run++ {
		fillTable(t, db, "x", "k Int64, v Float64", 4, 0.25*float64(run+1))
		if _, err := p.Exec(); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		checkKeptMatchesFresh(t, db, p, keptConv, mustExec(t, db, "SELECT * FROM out"))
		db.DropTable("out")
	}
	if n := planned(db, p.text); n != 1 {
		t.Fatalf("4 runs planned %d times, want 1", n)
	}
}

// TestPreparedKeepsPlanSchemaChangeReplans: an input re-created with a
// different column schema re-plans.
func TestPreparedKeepsPlanSchemaChangeReplans(t *testing.T) {
	db := keptFixture(t, 9, 4)
	const sel = `SELECT A.k AS k, A.v + B.v AS v FROM x A, w B WHERE A.k = B.k`
	p, err := db.Prepare(sel)
	if err != nil {
		t.Fatal(err)
	}
	for _, cols := range []string{"k Int64, v Float64", "k Int64, v Float64", "k Int64, u Float64, v Float64", "k Int64, v Float64"} {
		fillTable(t, db, "x", cols, 4, 0.5)
		res, err := p.Query()
		if err != nil {
			t.Fatalf("%s: %v", cols, err)
		}
		checkKeptMatchesFresh(t, db, p, sel, res)
	}
	if n := planned(db, p.text); n != 3 {
		t.Fatalf("planned %d times over two schema changes, want 3", n)
	}
}

// TestPreparedKeepsPlanJoinOrderFlipReplans: row counts that change how the
// greedy order compares the two relations re-plan, ties included — at a
// tie the stable sort keeps FROM order, flipping the build side — while a
// new count that compares the same way does not.
func TestPreparedKeepsPlanJoinOrderFlipReplans(t *testing.T) {
	db := keptFixture(t, 5, 3)
	const sel = `SELECT A.k AS k, B.v AS bv, A.v AS av FROM w B, x A WHERE A.k = B.k`
	p, err := db.Prepare(sel)
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[int]string{}
	for _, step := range []struct {
		xRows  int
		replan bool
	}{
		{3, true},  // x < w: first plan
		{4, false}, // still x < w
		{5, true},  // tie: FROM order, w first
		{5, false}, // the same tie
		{7, true},  // w < x
		{9, false}, // still w < x
		{2, true},  // x < w again
	} {
		fillTable(t, db, "x", "k Int64, v Float64", step.xRows, 0.25)
		before := p.kept.Load()
		res, err := p.Query()
		if err != nil {
			t.Fatal(err)
		}
		if replanned := p.kept.Load() != before; replanned != step.replan {
			t.Fatalf("x of %d rows: re-planned = %v, want %v", step.xRows, replanned, step.replan)
		}
		checkKeptMatchesFresh(t, db, p, sel, res)
		shapes[step.xRows] = planShape(p.kept.Load().plans[0])
	}
	if shapes[3] == shapes[5] || shapes[5] != shapes[7] {
		t.Fatalf("the tie did not flip the build side:\nx<w\n%s\ntie\n%s\nw<x\n%s", shapes[3], shapes[5], shapes[7])
	}
}

// TestPreparedKeepsPlanNeverKeepsSubquery: a statement whose plan folds a
// scalar subquery is never kept, and its result follows the data.
func TestPreparedKeepsPlanNeverKeepsSubquery(t *testing.T) {
	db := keptFixture(t, 5, 6)
	const sel = `SELECT count(*) AS c FROM x WHERE v > (SELECT AVG(v) FROM w)`
	p, err := db.Prepare(sel)
	if err != nil {
		t.Fatal(err)
	}
	for run, step := range []float64{0.5, 0.01, 2} {
		fillTable(t, db, "w", "k Int64, v Float64", 5, step)
		res, err := p.Query()
		if err != nil {
			t.Fatal(err)
		}
		hist := db.History
		db.History = nil
		want := queryString(t, db, sel)
		db.History = hist
		if got := resultBits(res); got != want {
			t.Fatalf("run %d: prepared %q, fresh %q", run, got, want)
		}
		if p.kept.Load() != nil {
			t.Fatal("a plan that folded a subquery was kept")
		}
	}
	if n := planned(db, p.text); n != 3 {
		t.Fatalf("planned %d of 3 runs", n)
	}
}

// TestPreparedKeepsPlanHintsAndUDFs: a hinted statement keeps its plan
// unless it calls a UDF or pins a join order, and registering a UDF
// re-plans a kept one.
func TestPreparedKeepsPlanHintsAndUDFs(t *testing.T) {
	db := keptFixture(t, 5, 6)
	db.RegisterUDF(&ScalarUDF{Name: "twice", Arity: 1, Fn: RowUDF(func(_ context.Context, a []Datum) (Datum, error) {
		return Float(2 * a[0].F), nil
	})})
	hints := &QueryHints{UDFSelectivity: map[string]float64{"twice": 0.1}, UDFCost: map[string]float64{"twice": 50}}
	run := func(p *Prepared, h *QueryHints) {
		t.Helper()
		if _, err := p.ExecHintedContext(context.Background(), h); err != nil {
			t.Fatal(err)
		}
	}

	udf, err := db.Prepare(`SELECT A.k AS k FROM x A, w B WHERE A.k = B.k AND twice(A.v) > 1`)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := db.Prepare(`SELECT A.k AS k FROM x A, w B WHERE A.k = B.k`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		run(udf, hints)
		run(pinned, &QueryHints{JoinOrder: []string{"B", "A"}})
	}
	for _, p := range []*Prepared{udf, pinned} {
		if p.kept.Load() != nil {
			t.Fatalf("%s: kept a plan", p.text)
		}
		if n := planned(db, p.text); n != 3 {
			t.Fatalf("%s: planned %d of 3 runs", p.text, n)
		}
	}

	plain, err := db.Prepare(`SELECT A.k AS k, A.v * B.v AS v FROM x A, w B WHERE A.k = B.k`)
	if err != nil {
		t.Fatal(err)
	}
	run(plain, hints)
	run(plain, nil)
	run(plain, hints)
	if n := planned(db, plain.text); n != 1 {
		t.Fatalf("hints without a UDF call: planned %d of 3 runs, want 1", n)
	}
	db.UnregisterUDF("twice")
	run(plain, hints)
	run(plain, hints)
	if n := planned(db, plain.text); n != 2 {
		t.Fatalf("after a UDF registry change: planned %d times in all, want 2", n)
	}
}

// TestPreparedKeepsPlanConcurrent runs one Prepared from 8 goroutines, half
// under a CardOverrides hint that flips its join order, so kept plans are
// replaced while others run them. Every result must match the reference.
func TestPreparedKeepsPlanConcurrent(t *testing.T) {
	db := keptFixture(t, 9, 4)
	const sel = `SELECT B.k AS kid, A.k AS k, SUM(A.v * B.v) AS v FROM x A, w B WHERE A.k = B.k GROUP BY B.k, A.k ORDER BY kid, k`
	p, err := db.Prepare(sel)
	if err != nil {
		t.Fatal(err)
	}
	want := queryString(t, db, sel)
	flip := &QueryHints{CardOverrides: map[string]float64{"x": 1e6}}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var h *QueryHints
			if g%2 == 1 {
				h = flip
			}
			for i := 0; i < 50; i++ {
				res, err := p.ExecHintedContext(context.Background(), h)
				if err != nil {
					errs <- err
					return
				}
				var sb strings.Builder
				for r := 0; r < res.NumRows(); r++ {
					for _, c := range res.Cols {
						sb.WriteString(c.Get(r).String() + "|")
					}
					sb.WriteByte('\n')
				}
				if got := sb.String(); got != want {
					errs <- fmt.Errorf("goroutine %d run %d: got\n%s\nwant\n%s", g, i, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
