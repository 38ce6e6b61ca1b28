package sqldb

import (
	"strings"
	"testing"
	"testing/quick"
)

func parseSelect(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want SELECT", sql, st)
	}
	return sel
}

func TestLexerTokens(t *testing.T) {
	toks, err := lex(`SELECT a, 'str''ing', 1.5e3, "dq" FROM t -- comment
		WHERE x >= 2 /* block */ AND y != 3`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.kind == tokEOF {
			break
		}
		texts = append(texts, tok.text)
	}
	joined := strings.Join(texts, " ")
	if !strings.Contains(joined, "str'ing") {
		t.Fatalf("doubled-quote escape failed: %s", joined)
	}
	if !strings.Contains(joined, "1.5e3") {
		t.Fatalf("scientific literal failed: %s", joined)
	}
	if !strings.Contains(joined, ">=") || !strings.Contains(joined, "!=") {
		t.Fatalf("two-char operators failed: %s", joined)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("'unterminated"); err == nil {
		t.Fatal("unterminated string must fail")
	}
	if _, err := lex("/* unterminated"); err == nil {
		t.Fatal("unterminated comment must fail")
	}
	if _, err := lex("a # b"); err == nil {
		t.Fatal("unknown character must fail")
	}
}

func TestParsePrecedence(t *testing.T) {
	sel := parseSelect(t, "SELECT 1 + 2 * 3 AS v")
	if sel.Items[0].Expr.String() != "(1 + (2 * 3))" {
		t.Fatalf("precedence wrong: %s", sel.Items[0].Expr)
	}
	sel = parseSelect(t, "SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3")
	// AND binds tighter than OR.
	want := "((x = 1) or ((y = 2) and (z = 3)))"
	if sel.Where.String() != want {
		t.Fatalf("bool precedence: %s", sel.Where)
	}
}

func TestParseUnaryMinusFoldsLiterals(t *testing.T) {
	sel := parseSelect(t, "SELECT -5 a, -2.5 b, -x c")
	if lit, ok := sel.Items[0].Expr.(*Lit); !ok || lit.Val.I != -5 {
		t.Fatalf("folded int: %v", sel.Items[0].Expr)
	}
	if lit, ok := sel.Items[1].Expr.(*Lit); !ok || lit.Val.F != -2.5 {
		t.Fatalf("folded float: %v", sel.Items[1].Expr)
	}
	if _, ok := sel.Items[2].Expr.(*UnaryExpr); !ok {
		t.Fatalf("column negation: %v", sel.Items[2].Expr)
	}
}

func TestParseJoinTree(t *testing.T) {
	sel := parseSelect(t, "SELECT a.x FROM a INNER JOIN b ON a.id = b.id, c")
	if sel.From.Join == nil {
		t.Fatal("expected join tree")
	}
	// The comma join wraps the inner join.
	if sel.From.Join.L.Join == nil || sel.From.Join.L.Join.Cond == nil {
		t.Fatalf("inner join lost: %s", sel.From)
	}
	if sel.From.Join.R.Table != "c" {
		t.Fatalf("comma join right: %s", sel.From.Join.R.Table)
	}
}

func TestParseFromSubqueryAlias(t *testing.T) {
	sel := parseSelect(t, "SELECT n FROM (SELECT count(*) AS n FROM t) AS sub")
	if sel.From.Sub == nil || sel.From.Alias != "sub" {
		t.Fatalf("from-subquery: %+v", sel.From)
	}
	sel = parseSelect(t, "SELECT n FROM (SELECT 1 AS n) bare")
	if sel.From.Alias != "bare" {
		t.Fatalf("bare alias: %+v", sel.From)
	}
}

func TestParseCreateVariants(t *testing.T) {
	cases := []string{
		"CREATE TABLE t (a Int64, b Float64)",
		"CREATE TEMP TABLE t (a Int64)",
		"CREATE TABLE IF NOT EXISTS t (a Int64)",
		"CREATE TABLE t AS SELECT 1 AS x",
		"CREATE TEMP TABLE t(SELECT 1 AS x)",
		"CREATE TABLE t (a Int64) AS SELECT 1",
		"CREATE VIEW v AS SELECT 1 AS x",
		"CREATE View v(SELECT 1 AS x)",
		"CREATE OR REPLACE VIEW v AS SELECT 2 AS x",
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
	}
}

func TestParseInsertVariants(t *testing.T) {
	cases := []string{
		"INSERT INTO t VALUES (1, 'a'), (2, 'b')",
		"INSERT INTO t (a, b) VALUES (1, 2)",
		"INSERT INTO t SELECT a, b FROM s",
		"INSERT INTO t (SELECT a FROM s)",
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
	}
}

func TestParseUpdateDeleteDrop(t *testing.T) {
	st, err := Parse("UPDATE t SET a = 1, b = b + 1 WHERE c < 0")
	if err != nil {
		t.Fatal(err)
	}
	up := st.(*UpdateStmt)
	if len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("update: %+v", up)
	}
	if _, err := Parse("DELETE FROM t WHERE x = 1"); err != nil {
		t.Fatal(err)
	}
	st, err = Parse("DROP VIEW IF EXISTS v")
	if err != nil {
		t.Fatal(err)
	}
	dr := st.(*DropStmt)
	if !dr.View || !dr.IfExists {
		t.Fatalf("drop: %+v", dr)
	}
}

func TestParseCaseInOrderLimit(t *testing.T) {
	sel := parseSelect(t, `SELECT CASE WHEN a > 0 THEN 'p' WHEN a < 0 THEN 'n' ELSE 'z' END v
		FROM t WHERE b IN (1, 2, 3) AND c NOT IN (4) AND d BETWEEN 0 AND 9 AND e NOT BETWEEN 1 AND 2
		ORDER BY v DESC, a LIMIT 7 OFFSET 3`)
	ce := sel.Items[0].Expr.(*CaseExpr)
	if len(ce.Whens) != 2 || ce.Else == nil {
		t.Fatalf("case: %+v", ce)
	}
	if sel.Limit != 7 || sel.Offset != 3 {
		t.Fatalf("limit/offset: %d %d", sel.Limit, sel.Offset)
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Fatalf("order: %+v", sel.OrderBy)
	}
}

func TestParseIsNull(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t WHERE a IS NULL AND b IS NOT NULL")
	conds := Conjuncts(sel.Where)
	if len(conds) != 2 {
		t.Fatalf("conds: %v", conds)
	}
	if conds[0].(*IsNullExpr).Not || !conds[1].(*IsNullExpr).Not {
		t.Fatalf("is-null flags: %v %v", conds[0], conds[1])
	}
}

func TestParseCountStarAndDistinct(t *testing.T) {
	sel := parseSelect(t, "SELECT count(*), count(DISTINCT x), sum(y) FROM t")
	fc := sel.Items[0].Expr.(*FuncCall)
	if !fc.Star {
		t.Fatal("count(*) star flag missing")
	}
	fc = sel.Items[1].Expr.(*FuncCall)
	if !fc.Distinct {
		t.Fatal("distinct flag missing")
	}
}

func TestStatementStringRoundTrip(t *testing.T) {
	// String() output must itself parse (idempotence of the SQL renderer).
	cases := []string{
		`SELECT a, b + 1 AS c FROM t x WHERE a > 5 AND b IN (1, 2) GROUP BY a HAVING count(*) > 1 ORDER BY a DESC LIMIT 3`,
		`SELECT sum(v) FROM t1, t2 WHERE t1.id = t2.id`,
		`SELECT CASE WHEN x = 1 THEN 'a' ELSE 'b' END FROM t`,
		`INSERT INTO t (a) VALUES (1), (2)`,
		`UPDATE t SET a = 0 WHERE a < 0`,
		`DELETE FROM t WHERE x IS NOT NULL`,
		`CREATE TABLE t (a Int64, b String)`,
		`DROP TABLE IF EXISTS t`,
	}
	for _, sql := range cases {
		st, err := Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		st2, err := Parse(st.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", st.String(), err)
		}
		if st.String() != st2.String() {
			t.Fatalf("String not stable:\n1: %s\n2: %s", st.String(), st2.String())
		}
	}
}

// Property: integer literals survive a parse → String → parse round trip.
func TestIntLiteralRoundTripProperty(t *testing.T) {
	f := func(n int32) bool {
		sel, err := Parse("SELECT " + (&Lit{Val: Int(int64(n))}).String() + " AS v")
		if err != nil {
			return false
		}
		item := sel.(*SelectStmt).Items[0].Expr
		lit, ok := item.(*Lit)
		return ok && lit.Val.I == int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: string literals with arbitrary content round trip through the
// renderer's quoting.
func TestStringLiteralRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		// The lexer treats backslash as an escape; the renderer only
		// doubles quotes, so skip inputs containing backslashes.
		if strings.ContainsAny(s, "\\") {
			return true
		}
		rendered := (&Lit{Val: Str(s)}).String()
		sel, err := Parse("SELECT " + rendered + " AS v")
		if err != nil {
			return false
		}
		lit, ok := sel.(*SelectStmt).Items[0].Expr.(*Lit)
		return ok && lit.Val.S == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
