package sqldb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/qerr"
)

// parseSeeds are FuzzParse's inline seeds; FuzzRewrite starts from them
// too.
var parseSeeds = []string{
	"SELECT 1",
	"SELECT a, b FROM t WHERE x = 1 AND y < 'z' GROUP BY a HAVING count(*) > 0 ORDER BY b DESC LIMIT 5",
	"CREATE TEMP TABLE t(SELECT MatrixID, SUM(A.Value * B.Value) FROM fm A INNER JOIN k B ON A.OrderID = B.OrderID GROUP BY KernelID, MatrixID)",
	"UPDATE cb_output SET Value = 0 WHERE Value < 0",
	"INSERT INTO t VALUES (1, 'a'), (2, 'b')",
	"SELECT CASE WHEN a THEN 1 ELSE 2 END FROM t",
	"SELECT * FROM (SELECT 1 AS x) s WHERE x BETWEEN 0 AND 2",
	"EXPLAIN SELECT 1",
	"SELECT '''; DROP TABLE t; --'",
	"SELECT 1e309, -0.0, .5",
	"((((",
	"SELECT \xff\xfe",
}

// FuzzParse asserts two properties over arbitrary input:
//
//  1. the lexer/parser never panic — they either produce a statement or
//     return an error;
//  2. parse→String→parse round-trips: every statement the parser accepts
//     renders (via String()) to SQL the parser accepts again, and the
//     second rendering is identical to the first, i.e. rendering reaches a
//     fixpoint after one trip.
//
// Run the corpus with `go test`, or explore with
// `go test -fuzz=FuzzParse ./internal/sqldb`. Beyond the inline seeds, a
// checked-in corpus generated from the paper's collaborative-query
// templates lives in testdata/fuzz/FuzzParse (see cmd/genfuzzcorpus).
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		// Must never panic.
		stmts, err := ParseMulti(sql)
		if err != nil {
			return
		}
		for _, st := range stmts {
			if st == nil {
				continue
			}
			first := st.String()
			re, err := Parse(first)
			if err != nil {
				t.Fatalf("re-parse failed: %v\n  input:    %q\n  rendered: %q", err, sql, first)
			}
			if second := re.String(); second != first {
				t.Fatalf("String() not a fixpoint:\n  input:  %q\n  first:  %q\n  second: %q", sql, first, second)
			}
		}
	})
}

// FuzzExec runs arbitrary statements against a small database of two
// joinable tables. Any outcome but an engine fault is acceptable: Exec
// recovers panics into qerr.ErrInternal, so the target fails on that error
// class. Each statement also runs on a twin database with the plan cache
// on — cold, after an INSERT into emp, and after dept is dropped and
// re-created — and must answer as the uncached one does each time.
func FuzzExec(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Add("SELECT id FROM emp WHERE salary > 50")
	f.Add("SELECT count(*) FROM emp GROUP BY dept")
	f.Add("UPDATE emp SET salary = salary * 2 WHERE id = 1")
	f.Add("SELECT 1/0, abs('x')")
	f.Add("SELECT e.name, d.floor FROM emp e JOIN dept d ON e.dept = d.name WHERE d.floor > 1")
	f.Add("SELECT d.floor, sum(e.salary * d.floor) AS s, count(DISTINCT e.name) FROM emp e, dept d WHERE e.dept = d.name GROUP BY d.floor HAVING count(*) > 0")
	f.Add("SELECT count(*) FROM emp e LEFT JOIN dept d ON e.dept = d.name")
	f.Add("SELECT x.n FROM (SELECT * FROM emp e, dept d WHERE e.id < d.floor) x ORDER BY x.salary")
	f.Add("SELECT e.id, d.name FROM emp e, dept d WHERE e.dept = d.name UNION ALL SELECT 1, 'z'")
	f.Add("SELECT e.id FROM emp e WHERE e.salary > (SELECT avg(salary) FROM emp) AND e.dept IN (SELECT name FROM dept)")
	f.Fuzz(func(t *testing.T, sql string) {
		db, cached := New(), New()
		cached.EnableCache(16)
		exec := func(sqls ...string) {
			for _, s := range sqls {
				for _, d := range []*DB{db, cached} {
					if _, err := d.Exec(s); errors.Is(err, qerr.ErrInternal) {
						t.Fatalf("%q: %v", s, err)
					}
				}
			}
		}
		exec(`CREATE TABLE emp (id Int64, name String, dept String, salary Float64)`,
			`INSERT INTO emp VALUES (1, 'a', 'x', 10.0), (2, 'b', 'y', 20.0), (3, 'c', 'x', NULL)`,
			`CREATE TABLE dept (name String, floor Int64, n Int64)`,
			`INSERT INTO dept VALUES ('x', 1, 7), ('y', 2, NULL), ('z', 3, 9)`)
		// EXPLAIN's first line and estimates differ with the cache on.
		explain := strings.Contains(strings.ToUpper(sql), "EXPLAIN")
		// The cached twin first runs a sibling of a text the store keeps,
		// its literals perturbed, so sql is served from another text's
		// template whenever the two share one.
		_, keyed := scanKey(sql)
		sibling := perturbLiterals(sql)
		for _, change := range [][]string{
			nil,
			{`INSERT INTO emp VALUES (4, 'd', 'z', 40.0), (5, 'e', 'y', 5.0)`},
			{`DROP TABLE dept`, `CREATE TABLE dept (name String, floor Int64, n Int64)`,
				`INSERT INTO dept VALUES ('y', 4, 1), ('x', 5, 2)`},
		} {
			exec(change...)
			want, err := db.Exec(sql)
			if errors.Is(err, qerr.ErrInternal) {
				t.Fatalf("%q: %v", sql, err)
			}
			if keyed {
				if _, err := cached.Exec(sibling); errors.Is(err, qerr.ErrInternal) {
					t.Fatalf("%q, sibling of %q: %v", sibling, sql, err)
				}
			}
			got, cerr := cached.Exec(sql)
			if errors.Is(cerr, qerr.ErrInternal) {
				t.Fatalf("%q with the plan cache on: %v", sql, cerr)
			}
			if (err == nil) != (cerr == nil) {
				t.Fatalf("%q after %q: uncached error %v, cached error %v", sql, change, err, cerr)
			}
			if (want == nil) != (got == nil) {
				t.Fatalf("%q after %q: uncached result %v, cached %v", sql, change, want, got)
			}
			if err != nil || explain || want == nil {
				continue
			}
			if w, g := resultBits(want), resultBits(got); w != g {
				t.Fatalf("%q after %q: uncached\n%s\ncached\n%s", sql, change, w, g)
			}
		}
	})
}

// perturbLiterals returns sql with each number and string literal moved
// to another value of its type: an integer plus one, a float doubled, a
// string with "z" appended.
func perturbLiterals(sql string) string {
	var sb strings.Builder
	l := lexer{src: sql}
	last := 0
	for {
		t, err := l.next()
		if err != nil || t.kind == tokEOF {
			break
		}
		if t.kind != tokNumber && t.kind != tokString {
			continue
		}
		v, err := litValue(t)
		if err != nil {
			continue
		}
		switch v.T {
		case TInt:
			v.I++
		case TFloat:
			v.F *= 2
		case TString:
			v.S += "z"
		}
		sb.WriteString(sql[last:t.pos])
		sb.WriteString((&Lit{Val: v}).String())
		last = l.pos
	}
	sb.WriteString(sql[last:])
	return sb.String()
}

// filterSeeds are FuzzFilterMatchesProjection's inline seeds: the
// comparison shapes whose filter and projection answers once differed,
// and the truth table's predicates over the fuzz table's columns.
var filterSeeds = []string{
	"active = 2",
	"active < 2",
	"x <= 1",
	"x = x",
	"x > 1 + 0",
	"NOT active",
	"active AND i > 1",
	"active OR s = 'c'",
	"NOT (active AND x > 1)",
	"i IS NULL",
	"i IN (1, NULL)",
	"i NOT IN (1, NULL)",
	"i BETWEEN NULL AND 3",
	"x NOT BETWEEN 0 AND NULL",
	"CASE WHEN active THEN i > 1 END",
	"s || 'z' = 'az'",
	"coalesce(i, 0) = 0",
	"if(active, x, i) > 1",
	"i % 2 = 1",
	"x / 0 IS NULL",
}

// FuzzFilterMatchesProjection asserts that a predicate keeps the same rows
// wherever it is evaluated: when `count(*) ... WHERE p`, `sum(if(p, 1, 0))`
// and `sum(CASE WHEN p THEN 1 ELSE 0 END)` all succeed over a table of Int,
// Float (with NULL and NaN), String and Bool columns, they agree. The
// predicate must parse as one expression, which is rendered back to SQL
// before it is spliced into the three queries.
func FuzzFilterMatchesProjection(f *testing.F) {
	for _, s := range filterSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, p string) {
		st, err := Parse("SELECT " + p)
		if err != nil {
			return
		}
		sel, ok := st.(*SelectStmt)
		if !ok || len(sel.Items) != 1 || sel.Items[0].Star || sel.From != nil || sel.Where != nil ||
			sel.GroupBy != nil || sel.Having != nil || sel.OrderBy != nil || sel.Limit >= 0 || sel.UnionAll != nil {
			return
		}
		pe := sel.Items[0].Expr.String()
		db := New()
		for _, s := range []string{
			`CREATE TABLE t (i Int64, x Float64, s String, active Bool)`,
			`INSERT INTO t VALUES (1, 1.0, 'a', TRUE), (2, 2.5, 'b', FALSE), (NULL, NULL, NULL, NULL),
				(3, sqrt(-1.0), 'c', TRUE), (0, -1.0, 'az', FALSE), (4, 1.0, NULL, TRUE)`,
		} {
			if _, err := db.Exec(s); err != nil {
				t.Fatal(err)
			}
		}
		var got []string
		for _, q := range []string{
			"SELECT count(*) FROM t WHERE " + pe,
			"SELECT sum(if(" + pe + ", 1, 0)) FROM t",
			"SELECT sum(CASE WHEN " + pe + " THEN 1 ELSE 0 END) FROM t",
		} {
			res, err := db.Query(q)
			if errors.Is(err, qerr.ErrInternal) {
				t.Fatalf("%q: %v", q, err)
			}
			if err != nil || res.NumRows() != 1 || len(res.Cols) != 1 {
				return
			}
			got = append(got, res.Cols[0].Get(0).String())
		}
		if got[0] != got[1] || got[0] != got[2] {
			t.Fatalf("predicate %q: WHERE counts %s, sum(if) %s, sum(CASE) %s", pe, got[0], got[1], got[2])
		}
	})
}

// denseSpread multiplies FuzzDenseKeys' keys in its second database: the
// keys then span far more than any dense key window, so every key table
// there uses hashed addressing.
const denseSpread = 1000000007

// denseKeyQueries are FuzzDenseKeys' statements: joins (hash, LEFT,
// symmetric), GROUP BY over a table and over a join, DISTINCT and
// COUNT(DISTINCT), each with its key columns first. keys counts those
// columns, which the comparison maps back from the spread keys.
var denseKeyQueries = []struct {
	sql  string
	keys int
	sym  bool
}{
	{sql: `SELECT a.k, b.k, a.j, a.v, b.w FROM a JOIN b ON a.k = b.k`, keys: 3},
	{sql: `SELECT a.k, a.j, b.w FROM a JOIN b ON a.k = b.k AND a.j = b.j`, keys: 2},
	{sql: `SELECT a.k, b.j, b.w FROM a LEFT JOIN b ON a.k = b.k`, keys: 2},
	{sql: `SELECT a.k, b.j, a.v, b.w FROM a, b WHERE ident(a.k) = b.k`, keys: 2, sym: true},
	{sql: `SELECT k, count(*) AS c, sum(v) AS s FROM a GROUP BY k`, keys: 1},
	{sql: `SELECT a.j, b.k, sum(a.v * b.w) AS s, count(*) AS c FROM a JOIN b ON a.k = b.k GROUP BY a.j, b.k`, keys: 2},
	// The factorised shapes (agg.go, fusedAgg), which the dense run takes
	// whenever their key columns hold no NULL: SUM only with key parts of
	// both sides in either order, a one-side key (DL2SQL's FC), a
	// one-column SUM, and COUNT(*) beside SUM.
	{sql: `SELECT b.j, a.j, sum(a.v * b.w) AS s FROM a JOIN b ON a.k = b.k GROUP BY b.j, a.j`, keys: 2},
	{sql: `SELECT a.j, b.k, sum(b.w * a.v) AS s FROM a JOIN b ON a.k = b.k GROUP BY a.j, b.k`, keys: 2},
	{sql: `SELECT b.j, sum(a.v * b.w) AS s FROM a JOIN b ON a.k = b.k GROUP BY b.j`, keys: 1},
	{sql: `SELECT a.j, sum(b.w) AS s FROM a JOIN b ON a.k = b.k GROUP BY a.j`, keys: 1},
	{sql: `SELECT a.j, b.j, count(*) AS c, sum(a.v) AS s FROM a JOIN b ON a.k = b.k GROUP BY a.j, b.j`, keys: 2},
	// A plain input of the factorised shape, grouped a run of equal keys
	// at a time.
	{sql: `SELECT j, k, sum(v) AS s, count(*) AS c FROM a GROUP BY j, k`, keys: 2},
	{sql: `SELECT j, sum(v) AS s FROM a GROUP BY j`, keys: 1},
	{sql: `SELECT DISTINCT j, k FROM a`, keys: 2},
	{sql: `SELECT j, count(DISTINCT k) AS c FROM a GROUP BY j`, keys: 1},
}

// denseValue is FuzzDenseKeys' value of byte x: x/7, except that the top
// four bytes are -0, +Inf, -Inf and NaN.
func denseValue(x byte) float64 {
	switch x {
	case 0xfc:
		return math.Copysign(0, -1)
	case 0xfd:
		return math.Inf(1)
	case 0xfe:
		return math.Inf(-1)
	case 0xff:
		return math.NaN()
	}
	return float64(x) / 7
}

// FuzzDenseKeys: the same rows joined, grouped and deduplicated on small
// integer keys, which dense key tables address directly (and a SUM over a
// join aggregates factorised), and on those keys times denseSpread, which
// only hashed tables and the general aggregation can hold, give the same
// rows in the same order with bit-identical values once the keys are
// divided back (every NaN compares as one value). Input bytes become rows
// of a (k, j, v) and b (k, j, w), at most 300 each; a k byte of 0xff is
// NULL, and value bytes map through denseValue.
func FuzzDenseKeys(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 5, 0xff, 1, 7}, []byte{0, 0, 1, 3, 1, 2, 0xff, 0, 3})
	f.Add([]byte{200, 3, 9, 100, 2, 8, 200, 3, 1, 7, 0, 0}, []byte{100, 2, 5, 200, 3, 6, 100, 1, 4})
	f.Add([]byte{5, 5, 5, 5, 5, 5}, []byte{0x80, 1, 1, 0x7f, 2, 2})
	// Many pairs per group, whose sums depend on their order, groups first
	// seen out of key order, and runs of rows with equal keys.
	f.Add([]byte{1, 3, 10, 2, 1, 11, 1, 2, 13, 2, 3, 17, 1, 1, 19, 2, 2, 23, 1, 3, 29, 2, 1, 31, 1, 0, 37, 2, 0, 41,
		3, 1, 1, 3, 1, 2, 3, 1, 3, 3, 1, 4, 3, 1, 5, 3, 1, 6, 4, 2, 1, 4, 2, 6},
		[]byte{2, 1, 3, 1, 2, 5, 2, 0, 6, 1, 1, 9, 2, 3, 12, 1, 0, 15})
	// -0, ±Inf and NaN values.
	f.Add([]byte{1, 0, 0xfc, 1, 1, 0xfd, 2, 0, 0xfe, 2, 1, 0xff, 1, 0, 3},
		[]byte{1, 0, 0xfc, 2, 1, 0xfd, 1, 1, 4, 2, 0, 0xfc})
	// A hash chain longer than hashBlock: a, the smaller side, builds 260
	// rows on key 1, which three of b's rows probe, among rows on keys a
	// lacks.
	var chainA, chainB []byte
	for i := 0; i < 270; i++ {
		chainA = append(chainA, byte(1+i/260), byte(i), byte(i*37))
	}
	for i := 0; i < 280; i++ {
		k := byte(3 + i%50)
		if i%100 == 7 {
			k = 1
		}
		chainB = append(chainB, k, byte(i/3), byte(i*11))
	}
	f.Add(chainA, chainB)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) > 3*300 || len(b) > 3*300 {
			return
		}
		var want [][]string
		for _, spread := range []int64{1, denseSpread} {
			db := New()
			db.RegisterUDF(&ScalarUDF{
				Name: "ident", Arity: 1, ParallelSafe: true, Cost: 1,
				Fn: RowUDF(func(_ context.Context, args []Datum) (Datum, error) { return args[0], nil }),
			})
			for _, tb := range []struct {
				name string
				data []byte
			}{{"a", a}, {"b", b}} {
				cols := []*Column{NewColumn(TInt), NewColumn(TInt), NewColumn(TFloat)}
				for i := 0; i+3 <= len(tb.data); i += 3 {
					k := Int(int64(int8(tb.data[i])) * spread)
					if tb.data[i] == 0xff {
						k = Null()
					}
					for c, d := range []Datum{k, Int(int64(tb.data[i+1]%4) * spread), Float(denseValue(tb.data[i+2]))} {
						if err := cols[c].Append(d); err != nil {
							t.Fatal(err)
						}
					}
				}
				v := "v"
				if tb.name == "b" {
					v = "w"
				}
				if _, err := db.Exec(`CREATE TABLE ` + tb.name + ` (k Int64, j Int64, ` + v + ` Float64)`); err != nil {
					t.Fatal(err)
				}
				if err := db.GetTable(tb.name).AppendColumns(cols); err != nil {
					t.Fatal(err)
				}
			}
			for qi, q := range denseKeyQueries {
				var hints *QueryHints
				if q.sym {
					hints = &QueryHints{SymmetricJoin: true}
				}
				res, err := db.ExecHinted(q.sql, hints)
				if err != nil {
					t.Fatalf("%s: %v", q.sql, err)
				}
				var rows []string
				for r := 0; r < res.NumRows(); r++ {
					row := ""
					for c, col := range res.Cols {
						d := col.Get(r)
						switch {
						case c < q.keys && d.T == TInt:
							if d.I%spread != 0 {
								t.Fatalf("%s: key %d is not a multiple of %d", q.sql, d.I, spread)
							}
							d = Int(d.I / spread)
						case d.T == TFloat && math.IsNaN(d.F):
							// Which operand's NaN a sum carries on is the
							// compiled instruction's choice, so NaNs
							// compare as one value, as keys do.
							row += "NaN|"
							continue
						case d.T == TFloat:
							row += fmt.Sprintf("%x|", math.Float64bits(d.F))
							continue
						}
						row += d.String() + "|"
					}
					rows = append(rows, row)
				}
				if spread == 1 {
					want = append(want, rows)
				} else if !slices.Equal(rows, want[qi]) {
					t.Fatalf("%s: spread keys give\n%v\nwant\n%v", q.sql, rows, want[qi])
				}
			}
		}
	})
}
