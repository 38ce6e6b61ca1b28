package sqldb

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestOptimizerHintsPreserveResults is a property test over the planner:
// optimizer hints (Section IV-B of the paper) may change the plan — join
// order, predicate placement, join algorithm — but never the result. For a
// seeded stream of generated queries against randomly filled tables, every
// hint configuration must return the same multiset of rows as the unhinted
// plan (compared as sorted canonical rows, since the queries carry no
// ORDER BY and row order is plan-dependent).
func TestOptimizerHintsPreserveResults(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := New()
	mustExec(t, db, "CREATE TABLE t1 (a Int64, b Float64, c String)")
	mustExec(t, db, "CREATE TABLE t2 (a Int64, d Int64)")
	mustExec(t, db, "CREATE TABLE t3 (a Int64, e String)")
	t1 := db.GetTable("t1")
	for i := 0; i < 600; i++ {
		row := []Datum{
			Int(int64(rng.Intn(80))),
			Float(float64(rng.Intn(10000)) / 100.0),
			Str(fmt.Sprintf("c%02d", rng.Intn(26))),
		}
		if err := t1.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	t2 := db.GetTable("t2")
	for i := 0; i < 400; i++ {
		row := []Datum{Int(int64(rng.Intn(80))), Int(int64(rng.Intn(300)))}
		if err := t2.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	t3 := db.GetTable("t3")
	for i := 0; i < 50; i++ {
		row := []Datum{Int(int64(rng.Intn(80))), Str(fmt.Sprintf("e%d", rng.Intn(7)))}
		if err := t3.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterUDF(&ScalarUDF{
		Name:         "is_mod3",
		Arity:        1,
		Fn:           RowUDF(func(_ context.Context, args []Datum) (Datum, error) { return Bool(args[0].I%3 == 0), nil }),
		Cost:         40,
		ParallelSafe: true,
	})

	xPreds := []string{"x.a < 60", "x.b > 25.0", "x.c < 'm'", "x.a % 7 < 5", "x.b < 90.0"}
	yPreds := []string{"y.d < 250", "y.a > 3", "is_mod3(y.d) = TRUE", "y.d % 2 = 0"}
	zPreds := []string{"z.e < 'e5'", "z.a < 70"}

	type genQuery struct {
		sql     string
		aliases []string // join-tree aliases, for the JoinOrder hint
	}
	generate := func() genQuery {
		threeWay := rng.Intn(2) == 1
		var sb strings.Builder
		var groupBy bool
		if rng.Intn(3) == 0 {
			groupBy = true
			sb.WriteString("SELECT x.a AS a, count(*) AS c, sum(y.d) AS s FROM t1 x INNER JOIN t2 y ON x.a = y.a")
		} else {
			sb.WriteString("SELECT x.a, x.b, y.d")
			if threeWay {
				sb.WriteString(", z.e")
			}
			sb.WriteString(" FROM t1 x INNER JOIN t2 y ON x.a = y.a")
		}
		aliases := []string{"x", "y"}
		if threeWay && !groupBy {
			sb.WriteString(" INNER JOIN t3 z ON y.a = z.a")
			aliases = append(aliases, "z")
		}
		var preds []string
		preds = append(preds, xPreds[rng.Intn(len(xPreds))])
		if rng.Intn(2) == 0 {
			preds = append(preds, yPreds[rng.Intn(len(yPreds))])
		}
		if len(aliases) == 3 && rng.Intn(2) == 0 {
			preds = append(preds, zPreds[rng.Intn(len(zPreds))])
		}
		sb.WriteString(" WHERE " + strings.Join(preds, " AND "))
		if groupBy {
			sb.WriteString(" GROUP BY x.a")
		}
		return genQuery{sql: sb.String(), aliases: aliases}
	}

	sortedRows := func(sql string, hints *QueryHints) []string {
		t.Helper()
		res, err := db.ExecHinted(sql, hints)
		if err != nil {
			t.Fatalf("hints=%+v query %q: %v", hints, sql, err)
		}
		rows := canonRows(res, false)
		sort.Strings(rows)
		return rows
	}

	tru, fls := true, false
	for iter := 0; iter < 25; iter++ {
		q := generate()
		reversed := make([]string, len(q.aliases))
		for i, a := range q.aliases {
			reversed[len(q.aliases)-1-i] = a
		}
		hintSets := []*QueryHints{
			{DelayUDFs: &tru, UDFCost: map[string]float64{"is_mod3": 80}, UDFSelectivity: map[string]float64{"is_mod3": 0.33}},
			{DelayUDFs: &fls, UDFSelectivity: map[string]float64{"is_mod3": 0.9}},
			{SymmetricJoin: true},
			{CardOverrides: map[string]float64{"t1": float64(1 + rng.Intn(100000)), "t2": float64(1 + rng.Intn(100000)), "t3": 2}},
			{JoinOrder: reversed},
			{SymmetricJoin: true, CardOverrides: map[string]float64{"t2": 5}},
		}
		want := sortedRows(q.sql, nil)
		for hi, h := range hintSets {
			got := sortedRows(q.sql, h)
			if len(got) != len(want) {
				t.Fatalf("query %q hint set %d (%+v): %d rows, want %d", q.sql, hi, h, len(got), len(want))
			}
			for r := range want {
				if got[r] != want[r] {
					t.Fatalf("query %q hint set %d (%+v): canonical row %d = %s, want %s",
						q.sql, hi, h, r, got[r], want[r])
				}
			}
		}
	}
}
