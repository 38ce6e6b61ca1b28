package sqldb

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// truthRows is the truth table's input: every pair of p, q over TRUE,
// FALSE and NULL, with Int, String and NULL operands beside them. m is a
// bitmask naming the row, so a sum over the rows an expression keeps
// identifies exactly which rows those are.
const truthRows = `INSERT INTO tv VALUES
	(0, TRUE,  TRUE,  1,    2,    'a',  1,   NULL, NULL, NULL, NULL, FALSE),
	(1, TRUE,  FALSE, 2,    NULL, NULL, 2,   NULL, NULL, NULL, NULL, FALSE),
	(2, TRUE,  NULL,  NULL, 1,    'b',  4,   NULL, NULL, NULL, NULL, FALSE),
	(3, FALSE, TRUE,  0,    0,    'c',  8,   NULL, NULL, NULL, NULL, FALSE),
	(4, FALSE, FALSE, 5,    3,    NULL, 16,  NULL, NULL, NULL, NULL, FALSE),
	(5, FALSE, NULL,  3,    NULL, 'd',  32,  NULL, NULL, NULL, NULL, FALSE),
	(6, NULL,  TRUE,  2,    2,    'e',  64,  NULL, NULL, NULL, NULL, FALSE),
	(7, NULL,  FALSE, NULL, NULL, 'f',  128, NULL, NULL, NULL, NULL, FALSE),
	(8, NULL,  NULL,  4,    5,    NULL, 256, NULL, NULL, NULL, NULL, FALSE)`

// truthCase is one expression and its value at each of the nine rows, or
// wantErr when evaluating it over the rows fails.
type truthCase struct {
	expr    string
	want    []Datum
	wantErr bool
}

// TestThreeValuedLogicTruthTable pins NULL semantics in every position an
// expression is evaluated in: SELECT item, WHERE, an aggregate argument,
// an ORDER BY key, UPDATE SET, UPDATE WHERE and DELETE WHERE. A row keeps
// under WHERE when its value is TRUE (or a non-zero number). AND and OR
// follow SQL's three-valued logic: a FALSE operand of AND makes it FALSE
// and a TRUE operand of OR makes it TRUE, whatever the other operand
// (NULL AND FALSE is FALSE, NULL OR TRUE is TRUE); otherwise a NULL on
// either side makes the result NULL. IN ignores NULL items, and BETWEEN
// orders a NULL bound below every value.
func TestThreeValuedLogicTruthTable(t *testing.T) {
	T, F, N := Bool(true), Bool(false), Null()
	ints := func(vs ...any) []Datum {
		out := make([]Datum, len(vs))
		for i, v := range vs {
			switch v := v.(type) {
			case int:
				out[i] = Int(int64(v))
			case string:
				out[i] = Str(v)
			default:
				out[i] = N
			}
		}
		return out
	}
	all := func(d Datum) []Datum { return []Datum{d, d, d, d, d, d, d, d, d} }
	cases := []truthCase{
		{expr: "NOT p", want: []Datum{F, F, F, T, T, T, N, N, N}},
		{expr: "p AND q", want: []Datum{T, F, N, F, F, F, N, F, N}},
		{expr: "p OR q", want: []Datum{T, T, T, T, F, N, T, N, N}},
		{expr: "NOT (p AND q)", want: []Datum{F, T, N, T, T, T, N, T, N}},
		{expr: "(p OR q) AND x > 1", want: []Datum{F, T, N, F, F, N, T, N, N}},
		{expr: "p IS NULL", want: []Datum{F, F, F, F, F, F, T, T, T}},
		{expr: "x IS NOT NULL", want: []Datum{T, T, F, T, T, T, T, F, T}},
		{expr: "x = NULL", want: all(N)},
		{expr: "x != NULL", want: all(N)},
		{expr: "NULL = NULL", want: all(N)},
		{expr: "x < y", want: []Datum{T, N, N, F, F, N, F, N, T}},
		{expr: "x >= 2", want: []Datum{F, T, N, F, T, T, T, N, T}},
		{expr: "2 <= x", want: []Datum{F, T, N, F, T, T, T, N, T}},
		{expr: "s = 'c'", want: []Datum{F, N, F, T, N, F, F, F, N}},
		{expr: "s > 'c'", want: []Datum{F, N, F, F, N, T, T, T, N}},
		{expr: "x IN (1, NULL)", want: []Datum{T, F, N, F, F, F, F, N, F}},
		{expr: "x NOT IN (1, NULL)", want: []Datum{F, T, N, T, T, T, T, N, T}},
		{expr: "NULL IN (1, 2)", want: all(N)},
		{expr: "x IN (y, 3)", want: []Datum{F, F, N, T, F, T, T, N, F}},
		{expr: "x BETWEEN NULL AND 3", want: []Datum{T, T, N, T, F, T, T, N, F}},
		{expr: "x BETWEEN 1 AND NULL", want: []Datum{F, F, N, F, F, F, F, N, F}},
		{expr: "x NOT BETWEEN NULL AND 3", want: []Datum{F, F, N, F, T, F, F, N, T}},
		{expr: "NULL BETWEEN 1 AND 2", want: all(N)},
		{expr: "x BETWEEN y AND 3", want: []Datum{F, T, N, T, F, T, T, N, F}},
		{expr: "CASE WHEN p THEN 1 WHEN q THEN 2 ELSE 3 END", want: ints(1, 1, 1, 2, 3, 3, 2, 3, 3)},
		{expr: "CASE WHEN NULL THEN 1 ELSE 0 END", want: ints(0, 0, 0, 0, 0, 0, 0, 0, 0)},
		{expr: "CASE WHEN p THEN x END", want: ints(1, 2, nil, nil, nil, nil, nil, nil, nil)},
		{expr: "x / 0", want: all(N)},
		{expr: "x % 0", wantErr: true},
		{expr: "x % 2", want: ints(1, 0, nil, 0, 1, 1, 0, nil, 0)},
		{expr: "-x", want: ints(-1, -2, nil, 0, -5, -3, -2, nil, -4)},
		{expr: "s || 'z'", want: ints("az", nil, "bz", "cz", nil, "dz", "ez", "fz", nil)},
		{expr: "coalesce(x, y, 0)", want: ints(1, 2, 1, 0, 5, 3, 2, 0, 4)},
		{expr: "coalesce(NULL, NULL)", want: all(N)},
		{expr: "if(p, x, y)", want: ints(1, 2, nil, 0, 3, nil, 2, nil, 5)},
		{expr: "if(NULL, 1, 2)", want: ints(2, 2, 2, 2, 2, 2, 2, 2, 2)},
	}
	for _, c := range cases {
		t.Run(c.expr, func(t *testing.T) { runTruthCase(t, c) })
	}
}

// runTruthCase checks one truth-table row in every evaluation position.
func runTruthCase(t *testing.T, c truthCase) {
	fresh := func() *DB {
		db := New()
		mustExec(t, db, `CREATE TABLE tv (id Int64, p Bool, q Bool, x Int64, y Int64, s String, m Int64,
			vb Bool, vi Int64, vf Float64, vs String, hit Bool)`)
		mustExec(t, db, truthRows)
		return db
	}
	ids := func(res *Result) string {
		var out []string
		for i := 0; i < res.NumRows(); i++ {
			out = append(out, res.Cols[0].Get(i).String())
		}
		return strings.Join(out, ",")
	}
	keeps := func(d Datum) bool { b, ok := d.AsBool(); return ok && b }
	// The rows an expression keeps and the rows where it is NULL, as id
	// lists and as the bitmask of their m values.
	var keptIDs, nullIDs, otherIDs []string
	var keptMask, nullMask int64
	for i, d := range c.want {
		switch {
		case keeps(d):
			keptIDs = append(keptIDs, fmt.Sprint(i))
			keptMask |= 1 << i
		default:
			otherIDs = append(otherIDs, fmt.Sprint(i))
		}
		if d.IsNull() {
			nullIDs = append(nullIDs, fmt.Sprint(i))
			nullMask |= 1 << i
		}
	}
	query := func(db *DB, sql string) (*Result, bool) {
		t.Helper()
		res, err := db.Exec(sql)
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: no error", sql)
			}
			return nil, false
		}
		if err != nil {
			t.Errorf("%s: %v", sql, err)
			return nil, false
		}
		return res, true
	}
	db := fresh()

	// SELECT item.
	if res, ok := query(db, `SELECT id, `+c.expr+` AS v FROM tv ORDER BY id`); ok {
		for i, want := range c.want {
			if got := res.Cols[1].Get(i); !sameDatum(got, want) {
				t.Errorf("SELECT: row %d = %v, want %v", i, got, want)
			}
		}
	}
	// WHERE, on the expression and on its NULL test.
	if res, ok := query(db, `SELECT id FROM tv WHERE `+c.expr+` ORDER BY id`); ok {
		if got, want := ids(res), strings.Join(keptIDs, ","); got != want {
			t.Errorf("WHERE: rows %s, want %s", got, want)
		}
	}
	if res, ok := query(db, `SELECT id FROM tv WHERE (`+c.expr+`) IS NULL ORDER BY id`); ok {
		if got, want := ids(res), strings.Join(nullIDs, ","); got != want {
			t.Errorf("WHERE IS NULL: rows %s, want %s", got, want)
		}
	}
	// Aggregate argument.
	if res, ok := query(db, `SELECT sum(if(`+c.expr+`, m, 0)) AS k, sum(if((`+c.expr+`) IS NULL, m, 0)) AS n FROM tv`); ok {
		if got := res.Cols[0].Get(0); got.I != keptMask {
			t.Errorf("sum(if(...)): %v, want %d", got, keptMask)
		}
		if got := res.Cols[1].Get(0); got.I != nullMask {
			t.Errorf("sum(if(... IS NULL)): %v, want %d", got, nullMask)
		}
	}
	// ORDER BY key: NULL first, ties in id order.
	if res, ok := query(db, `SELECT id FROM tv ORDER BY `+c.expr+`, id`); ok {
		order := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
		sort.SliceStable(order, func(a, b int) bool { return truthLess(c.want[order[a]], c.want[order[b]]) })
		want := make([]string, len(order))
		for i, id := range order {
			want[i] = fmt.Sprint(id)
		}
		if got := ids(res); got != strings.Join(want, ",") {
			t.Errorf("ORDER BY: %s, want %s", got, strings.Join(want, ","))
		}
	}
	// UPDATE SET, into a column of the expression's type.
	col := "vb"
	for _, d := range c.want {
		switch d.T {
		case TInt:
			col = "vi"
		case TFloat:
			col = "vf"
		case TString:
			col = "vs"
		}
	}
	if _, ok := query(db, `UPDATE tv SET `+col+` = `+c.expr); ok {
		res := mustExec(t, db, `SELECT `+col+` FROM tv ORDER BY id`)
		for i, want := range c.want {
			if got := res.Cols[0].Get(i); !sameDatum(got, want) {
				t.Errorf("UPDATE SET: row %d = %v, want %v", i, got, want)
			}
		}
	}
	// UPDATE WHERE.
	db = fresh()
	if _, ok := query(db, `UPDATE tv SET hit = TRUE WHERE `+c.expr); ok {
		res := mustExec(t, db, `SELECT id FROM tv WHERE hit ORDER BY id`)
		if got, want := ids(res), strings.Join(keptIDs, ","); got != want {
			t.Errorf("UPDATE WHERE: rows %s, want %s", got, want)
		}
	}
	// DELETE WHERE.
	db = fresh()
	if _, ok := query(db, `DELETE FROM tv WHERE `+c.expr); ok {
		res := mustExec(t, db, `SELECT id FROM tv ORDER BY id`)
		if got, want := ids(res), strings.Join(otherIDs, ","); got != want {
			t.Errorf("DELETE WHERE: left rows %s, want %s", got, want)
		}
	}
}

// truthLess orders the truth table's expected values as ORDER BY does:
// NULL first, then booleans and numbers numerically, strings bytewise.
func truthLess(a, b Datum) bool {
	switch {
	case a.IsNull() || b.IsNull():
		return a.IsNull() && !b.IsNull()
	case a.T == TString:
		return a.S < b.S
	}
	af, _ := a.AsFloat()
	bf, _ := b.AsFloat()
	return af < bf
}

// TestOneComparisonSemantics: a comparison answers by Compare's rules
// whatever its operands' shape — Bool compares as 0/1, and NaN equals NaN
// and sorts above every number — in a filter, a join and ORDER BY alike.
func TestOneComparisonSemantics(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE b (active Bool)`)
	mustExec(t, db, `INSERT INTO b VALUES (TRUE), (FALSE)`)
	mustExec(t, db, `CREATE TABLE n (id Int64, x Float64)`)
	mustExec(t, db, `INSERT INTO n VALUES (1, 1.0), (2, 2.0), (3, sqrt(-1.0))`)
	for _, c := range []struct {
		sql  string
		want int64
	}{
		{`SELECT count(*) FROM b WHERE active = 2`, 0},
		{`SELECT count(*) FROM b WHERE active = 2 + 0`, 0},
		{`SELECT count(*) FROM b WHERE active < 2`, 2},
		{`SELECT count(*) FROM b WHERE active < 2 + 0`, 2},
		{`SELECT count(*) FROM b WHERE active = 1`, 1},
		{`SELECT count(*) FROM n WHERE x <= 1`, 1},
		{`SELECT count(*) FROM n WHERE x <= 1 + 0`, 1},
		{`SELECT count(*) FROM n WHERE x > 1`, 2},
		{`SELECT count(*) FROM n WHERE x = sqrt(-1.0)`, 1},
		{`SELECT count(*) FROM n WHERE x BETWEEN 0 AND 5`, 2},
		{`SELECT sum(if(x <= 1 + 0, 1, 0)) FROM n`, 1},
		{`SELECT count(*) FROM n a, n b WHERE a.x = b.x`, 3},
		{`SELECT count(*) FROM n a, n b WHERE a.x <= b.x AND a.x >= b.x`, 3},
	} {
		if got := mustExec(t, db, c.sql).Cols[0].Get(0); got.I != c.want {
			t.Errorf("%s = %v, want %d", c.sql, got, c.want)
		}
	}
	res := mustExec(t, db, `SELECT id FROM n ORDER BY x DESC`)
	var ids []string
	for i := 0; i < res.NumRows(); i++ {
		ids = append(ids, res.Cols[0].Get(i).String())
	}
	if got := strings.Join(ids, ","); got != "3,2,1" {
		t.Errorf("ORDER BY x DESC: ids %s, want 3,2,1", got)
	}
}

// TestUpdateSetsReadPreUpdateRow: every SET expression of an UPDATE reads
// the row as it was before the statement, so SET a = b, b = a swaps.
func TestUpdateSetsReadPreUpdateRow(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE u (id Int64, a Int64, b Int64)`)
	mustExec(t, db, `INSERT INTO u VALUES (1, 1, 2), (2, 3, 4), (3, 5, 6)`)
	want := [][2]int64{{1, 2}, {3, 4}, {5, 6}}
	for i := 0; i < 20; i++ {
		where := ""
		if i%2 == 1 {
			where = " WHERE id != 2"
		}
		mustExec(t, db, `UPDATE u SET a = b, b = a`+where)
		for r := range want {
			if where == "" || r != 1 {
				want[r][0], want[r][1] = want[r][1], want[r][0]
			}
		}
		res := mustExec(t, db, `SELECT a, b FROM u ORDER BY id`)
		for r, w := range want {
			if a, b := res.Cols[0].Get(r).I, res.Cols[1].Get(r).I; a != w[0] || b != w[1] {
				t.Fatalf("update %d: row %d = (%d, %d), want (%d, %d)", i, r, a, b, w[0], w[1])
			}
		}
	}
}
