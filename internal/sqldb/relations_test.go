package sqldb

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// detached builds a table outside any catalog with n rows of keys that
// repeat every three and values that step by step, one Float column per
// name after the key.
func detached(name string, n int, step float64, floats ...string) *Table {
	schema := Schema{{Name: "k", Type: TInt}}
	for _, f := range floats {
		schema = append(schema, ColumnDef{Name: f, Type: TFloat})
	}
	tb := NewTable(name, schema)
	for i := 0; i < n; i++ {
		row := []Datum{Int(int64(i % 3))}
		for range floats {
			row = append(row, Float(float64(i)*step+0.1))
		}
		if err := tb.AppendRow(row); err != nil {
			panic(err)
		}
	}
	return tb
}

// bind returns a context binding t under name.
func bind(name string, t *Table) context.Context {
	rels := Relations{}
	rels.Bind(name, t)
	return WithRelations(context.Background(), rels)
}

const sumX = `SELECT COUNT(*) AS c, SUM(v) AS s FROM x`

// TestBoundRelationShadowsCatalogForOneExecution: a relation bound under a
// catalog table's name is what a statement run under the binding reads —
// through Query, a Prepared statement and EXPLAIN ANALYZE, with the plan
// cache on — while every statement run without it still reads the
// catalog's table, and the catalog is never touched.
func TestBoundRelationShadowsCatalogForOneExecution(t *testing.T) {
	db := keptFixture(t, 9, 4)
	db.EnableCache(16)
	ctx := bind("X", detached("anything", 7, 2, "v"))
	catalog := db.TableNames()
	slices.Sort(catalog)
	p, err := db.Prepare(sumX)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		for _, q := range []func(ctx context.Context) (*Result, error){
			func(ctx context.Context) (*Result, error) { return db.QueryContext(ctx, sumX) },
			func(ctx context.Context) (*Result, error) { return p.QueryContext(ctx) },
		} {
			for _, c := range []struct {
				ctx  context.Context
				want string
			}{{context.Background(), "4|1.9|\n"}, {ctx, "7|42.7|\n"}} {
				res, err := q(c.ctx)
				if err != nil {
					t.Fatal(err)
				}
				if got := rowsText(res); got != c.want {
					t.Fatalf("run %d: rows %q, want %q", run, got, c.want)
				}
			}
		}
	}
	res, err := db.ExecStmtContext(ctx, mustParse(t, "EXPLAIN ANALYZE "+sumX), nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan := resultText(res); !strings.Contains(plan, "Scan x") || !strings.Contains(plan, "actual rows=7") {
		t.Fatalf("EXPLAIN ANALYZE under the binding does not scan its 7 rows:\n%s", plan)
	}
	got := db.TableNames()
	if slices.Sort(got); !slices.Equal(got, catalog) {
		t.Fatalf("catalog %v, want %v", got, catalog)
	}
}

// rowsText renders a result's rows, one line each.
func rowsText(res *Result) string {
	var sb strings.Builder
	for i := 0; i < res.NumRows(); i++ {
		for _, c := range res.Cols {
			sb.WriteString(c.Get(i).String() + "|")
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func mustParse(t *testing.T, sql string) Stmt {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestBoundRelationsPerGoroutine: goroutines binding different tables under
// one name, and running one shared Prepared statement and the same text,
// each read only their own table.
func TestBoundRelationsPerGoroutine(t *testing.T) {
	db := keptFixture(t, 9, 4)
	db.EnableCache(16)
	p, err := db.Prepare(`SELECT COUNT(*) AS c FROM x A, w B WHERE A.k = B.k`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// x has 3(g+1) rows, one per key (g+1) times; w has each key
			// three times.
			ctx := bind("x", detached("x", 3*(g+1), 1, "v"))
			want := fmt.Sprintf("%d|\n", 9*(g+1))
			for i := 0; i < 50; i++ {
				res, err := p.QueryContext(ctx)
				if err == nil && rowsText(res) != want {
					err = fmt.Errorf("goroutine %d read %q, want %q", g, rowsText(res), want)
				}
				if err == nil {
					res, err = db.QueryContext(ctx, sumX)
					if err == nil && !strings.HasPrefix(rowsText(res), fmt.Sprintf("%d|", 3*(g+1))) {
						err = fmt.Errorf("goroutine %d counted %q", g, rowsText(res))
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestKeptPlanFollowsBoundRelation: a kept plan runs over each execution's
// bound relation, and re-plans when the relation's schema changes or its
// estimate flips the greedy join order — as for a catalog table.
func TestKeptPlanFollowsBoundRelation(t *testing.T) {
	db := keptFixture(t, 5, 3)
	const sel = `SELECT A.k AS k, B.v AS bv, A.v AS av FROM w B, x A WHERE A.k = B.k`
	p, err := db.Prepare(sel)
	if err != nil {
		t.Fatal(err)
	}
	parsed := mustParse(t, sel).(*SelectStmt)
	for _, step := range []struct {
		x      *Table
		replan bool
	}{
		{detached("x", 3, 0.25, "v"), true},       // x < w: first plan
		{detached("x", 4, 0.5, "v"), false},       // still x < w
		{detached("x", 4, 0.5, "u", "v"), true},   // another schema
		{detached("x", 4, 0.75, "v"), true},       // the first schema again
		{detached("x", 7, 0.25, "v"), true},       // w < x
		{detached("x", 9, 0.5, "v"), false},       // still w < x
		{detached("other", 2, 0.5, "v"), true},    // x < w again
		{detached("other", 2, 0.125, "v"), false}, // a new table, same inputs
	} {
		ctx := bind("x", step.x)
		before := p.kept.Load()
		res, err := p.QueryContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		k := p.kept.Load()
		if replanned := k != before; replanned != step.replan {
			t.Fatalf("x of %d rows, %d columns: re-planned = %v, want %v", step.x.NumRows(), len(step.x.Schema), replanned, step.replan)
		}
		fresh, err := db.planSelect(ctx, parsed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := planShape(k.plans[0]), planShape(fresh); got != want {
			t.Fatalf("kept plan\n%s\nfresh plan\n%s", got, want)
		}
		ref, err := db.QueryContext(ctx, sel)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resultBits(res), resultBits(ref); got != want {
			t.Fatalf("rows from the kept plan\n%s\nfresh query\n%s", got, want)
		}
	}
}

// TestBoundRelationSharesCachedPlan: with the plan cache on, a statement
// that reads a bound relation is stored under its text like any other, and
// the entry serves the bound relation and the catalog table under that
// name alike while the relation read has the schema the plan was made for.
func TestBoundRelationSharesCachedPlan(t *testing.T) {
	db := keptFixture(t, 5, 3)
	db.EnableCache(16)
	narrow := bind("x", detached("x", 2, 1, "v"))
	wide := bind("x", detached("x", 2, 1, "u", "v"))
	for i, c := range []struct {
		ctx   context.Context
		state string
	}{
		{narrow, "miss"}, {narrow, "hit"}, {context.Background(), "hit"},
		{wide, "miss"}, {wide, "hit"}, {context.Background(), "miss"}, {narrow, "hit"},
	} {
		res, err := db.ExecStmtContext(c.ctx, mustParse(t, "EXPLAIN "+sumX), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Cols[0].Get(0).S; got != "cache: "+c.state {
			t.Fatalf("step %d: first EXPLAIN line %q, want cache: %s", i, got, c.state)
		}
	}
}

// TestUnboundNameStillFails: a name neither bound nor in the catalog fails
// as before, with or without other relations bound.
func TestUnboundNameStillFails(t *testing.T) {
	db := keptFixture(t, 5, 3)
	for _, ctx := range []context.Context{context.Background(), bind("x", detached("x", 2, 1, "v"))} {
		_, err := db.QueryContext(ctx, `SELECT A.k FROM x A, nowhere B WHERE A.k = B.k`)
		if err == nil || !strings.Contains(err.Error(), `no table or view named "nowhere"`) {
			t.Fatalf("query over an unknown name: %v", err)
		}
	}
}
