package sqldb

import (
	"context"
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exprTypeNames lists, from ast.go's source, every type with an exprNode
// method: the Expr node types a traversal must know.
func exprTypeNames(t *testing.T) []string {
	t.Helper()
	f, err := goparser.ParseFile(gotoken.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "exprNode" || fn.Recv == nil {
			continue
		}
		if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
			names = append(names, star.X.(*ast.Ident).Name)
		}
	}
	sort.Strings(names)
	return names
}

func preOrder(e Expr) []Expr {
	var out []Expr
	Walk(e, func(x Expr) bool {
		out = append(out, x)
		return true
	})
	return out
}

func TestWalkCoversEveryExprType(t *testing.T) {
	st, err := Parse(`SELECT 1 FROM t WHERE NOT (a + ? > 1) AND f(b) IN (1, 2)
		AND CASE WHEN c IS NULL THEN 1 ELSE -d END BETWEEN 0 AND (SELECT 1)`)
	if err != nil {
		t.Fatal(err)
	}
	where := st.(*SelectStmt).Where
	seen := map[string]bool{}
	for _, x := range preOrder(where) {
		seen[reflect.TypeOf(x).Elem().Name()] = true
	}
	want := exprTypeNames(t)
	if len(want) < 11 {
		t.Fatalf("found only %d Expr types in ast.go: %v", len(want), want)
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("Walk never visited a %s", name)
		}
	}

	if same, _ := Rewrite(where, func(e Expr) (Expr, error) { return e, nil }); same != where {
		t.Fatal("identity Rewrite copied the tree")
	}

	// Replacing every Lit copies exactly the nodes above a Lit: the two
	// trees have the same shape, so their pre-orders align node by node.
	fresh, _ := Rewrite(where, func(e Expr) (Expr, error) {
		if l, ok := e.(*Lit); ok {
			return &Lit{Val: l.Val}, nil
		}
		return e, nil
	})
	before, after := preOrder(where), preOrder(fresh)
	if len(before) != len(after) {
		t.Fatalf("rewrite changed the shape: %d nodes → %d", len(before), len(after))
	}
	if fresh.String() != where.String() {
		t.Fatalf("rewrite changed the text:\n%s\n%s", where, fresh)
	}
	for i, x := range before {
		hasLit := false
		Walk(x, func(y Expr) bool {
			_, isLit := y.(*Lit)
			hasLit = hasLit || isLit
			return !hasLit
		})
		if copied := after[i] != x; copied != hasLit {
			t.Errorf("node %d (%s): copied=%v, holds a Lit=%v", i, x, copied, hasLit)
		}
	}
}

// corpus returns the SQL of the checked-in FuzzParse corpus entries whose
// file names match glob.
func corpus(tb testing.TB, glob string) []string {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParse", glob))
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		// "go test fuzz v1\nstring(<quoted>)\n"
		_, arg, ok := strings.Cut(strings.TrimSpace(string(b)), "\nstring(")
		if !ok {
			tb.Fatalf("%s: not a string corpus entry", p)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if err != nil {
			tb.Fatalf("%s: %v", p, err)
		}
		out = append(out, s)
	}
	return out
}

// FuzzRewrite checks the traversal on every statement the parser accepts:
// an identity rewrite returns the statement itself with the same text, and
// Rewrite visits exactly the nodes Walk visits, subqueries included.
func FuzzRewrite(f *testing.F) {
	for _, s := range append(parseSeeds, corpus(f, "*")...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmts, err := ParseMulti(sql)
		if err != nil {
			return
		}
		for _, st := range stmts {
			if st == nil {
				continue
			}
			text := st.String()
			rewritten := 0
			var identity func(Expr) (Expr, error)
			identity = func(e Expr) (Expr, error) {
				rewritten++
				enterSubquery(e, identity)
				return e, nil
			}
			out, err := rewriteStmt(st, identity)
			if err != nil || out != st || out.String() != text {
				t.Fatalf("identity rewrite of %q: err %v, same %v, text %q", text, err, out == st, out)
			}

			// Walk each expression the statement walk hands out, then replace
			// it so the statement walk does not descend.
			walked := 0
			var root func(Expr) (Expr, error)
			root = func(e Expr) (Expr, error) {
				Walk(e, func(x Expr) bool {
					walked++
					enterSubquery(x, root)
					return true
				})
				return &Lit{}, nil
			}
			_, _ = rewriteStmt(st, root)
			if walked != rewritten {
				t.Fatalf("%q: Walk visited %d nodes, Rewrite %d", text, walked, rewritten)
			}
		}
	})
}

// enterSubquery runs RewriteSelect with fn over the SELECT of a subquery
// node, which Walk and Rewrite leave to their caller.
func enterSubquery(e Expr, fn func(Expr) (Expr, error)) {
	switch t := e.(type) {
	case *InExpr:
		_, _ = RewriteSelect(t.Sub, fn)
	case *SubqueryExpr:
		_, _ = RewriteSelect(t.Query, fn)
	}
}

// TestCachedASTsImmutable runs the collaborative-query template corpus and
// parameterized statements twice over a cached engine: planning, binding
// and subquery folding share subtrees with the cached ASTs and must never
// write to them.
func TestCachedASTsImmutable(t *testing.T) {
	db := New()
	db.EnableCache(64)
	for _, sql := range []string{
		"CREATE TABLE fabric (transID Int64, patternID Int64, meter Float64, printdate String, humidity Float64, temperature Float64)",
		"CREATE TABLE video (videoID Int64, transID Int64, date String, keyframe Blob)",
		"CREATE TABLE device (transID Int64, humidity Float64, temperature Float64)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 40; i++ {
		day := fmt.Sprintf("2021-01-%02d", 1+i%31)
		rows := []struct {
			table string
			row   []Datum
		}{
			{"fabric", []Datum{Int(i), Int(i % 4), Float(float64(i)), Str(day), Float(float64(i * 3 % 100)), Float(float64(i * 7 % 60))}},
			{"video", []Datum{Int(100 + i), Int(i), Str(day), Blob([]byte{byte(i)})}},
			{"device", []Datum{Int(i), Float(float64(i * 5 % 100)), Float(float64(i * 2 % 60))}},
		}
		for _, r := range rows {
			if err := db.GetTable(r.table).AppendRow(r.row); err != nil {
				t.Fatal(err)
			}
		}
	}
	keyframe := func(args []Datum) int64 { return int64(args[0].B[0]) }
	for name, f := range map[string]func(ctx context.Context, args []Datum) (Datum, error){
		"nudf_detect": func(_ context.Context, a []Datum) (Datum, error) { return Bool(keyframe(a)%2 == 0), nil },
		"nudf_classify": func(_ context.Context, a []Datum) (Datum, error) {
			return Str([]string{"Floral Pattern", "Plain"}[keyframe(a)%2]), nil
		},
		"nudf_recog": func(_ context.Context, a []Datum) (Datum, error) { return Int(keyframe(a) % 3), nil },
	} {
		db.RegisterUDF(&ScalarUDF{Name: name, Arity: 1, Fn: RowUDF(f)})
	}

	queries := corpus(t, "colquery-template-*")
	if len(queries) == 0 {
		t.Fatal("no template corpus")
	}
	prepared := []struct {
		sql  string
		args []Datum
	}{
		{"SELECT patternID, meter FROM fabric F WHERE F.meter > ? ORDER BY 2 DESC", []Datum{Float(10)}},
		{"SELECT patternID, count(*) c FROM fabric F WHERE F.humidity > ? GROUP BY patternID ORDER BY 1", []Datum{Float(20)}},
		{"SELECT F.transID FROM fabric F WHERE F.meter > ? AND F.transID IN (SELECT transID FROM video V WHERE V.videoID > ?) ORDER BY 1", []Datum{Float(5), Int(120)}},
		{"SELECT count(*) c FROM fabric F WHERE F.meter > (SELECT avg(meter) FROM fabric WHERE patternID = ?)", []Datum{Int(1)}},
	}

	type cached struct {
		sql string
		st  Stmt
	}
	var asts []cached
	for round := 0; round < 2; round++ {
		for _, sql := range queries {
			if _, err := db.Query(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		for _, p := range prepared {
			ps, err := db.Prepare(p.sql)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ps.Query(p.args...); err != nil {
				t.Fatalf("%s: %v", p.sql, err)
			}
		}
		if round == 0 {
			for _, sql := range queries {
				asts = append(asts, cached{sql, mustParseOne(t, db, sql)})
			}
			for _, p := range prepared {
				asts = append(asts, cached{p.sql, mustParseOne(t, db, p.sql)})
			}
		}
	}
	for _, c := range asts {
		fresh, err := Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.st.String(), fresh.String(); got != want {
			t.Errorf("cached AST of %q changed:\nwant %s\ngot  %s", c.sql, want, got)
		}
		if mustParseOne(t, db, c.sql) != c.st {
			t.Errorf("%q fell out of the statement cache", c.sql)
		}
	}
}

func mustParseOne(t *testing.T, db *DB, sql string) Stmt {
	t.Helper()
	st, err := db.parseOne(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
