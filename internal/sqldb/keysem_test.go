package sqldb

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// The hash operators' key contract, pinned against naive nested-loop and
// first-seen references: Int, Bool and integral Float keys are equal by
// value (1 = 1.0 = true), -0.0 equals 0.0, NaN equals NaN (keys compare by
// bits), String never equals Blob even with the same bytes, and NULL never
// joins yet forms one group. Tables are large enough that Parallelism 4 runs
// the parallel probe and partial aggregation paths.

// refKey is the reference's key for one value; "" is NULL.
func refKey(d Datum) string {
	switch d.T {
	case TInt, TBool:
		return fmt.Sprintf("n%d", d.I)
	case TFloat:
		if d.F == math.Trunc(d.F) && math.Abs(d.F) < 1<<62 {
			return fmt.Sprintf("n%d", int64(d.F))
		}
		return fmt.Sprintf("f%x", math.Float64bits(d.F))
	case TString:
		return "s" + d.S
	case TBlob:
		return "b" + string(d.B)
	}
	return ""
}

// sameDatum compares a result value with the reference value: exactly (float
// bits included) when the types agree, by key when a mixed-type expression's
// column promoted the value.
func sameDatum(got, want Datum) bool {
	if got.T != want.T {
		return refKey(got) == refKey(want)
	}
	switch got.T {
	case TNull:
		return true
	case TFloat:
		return math.Float64bits(got.F) == math.Float64bits(want.F)
	case TString:
		return got.S == want.S
	case TBlob:
		return string(got.B) == string(want.B)
	}
	return got.I == want.I
}

// keySemRow is one generated row; its fields are the tables' columns.
type keySemRow struct{ id, i, j, f, b, s, bl, x Datum }

// keySemExpr is a key expression over one table alias, with its reference
// evaluation.
type keySemExpr struct {
	sql  string
	eval func(r keySemRow) Datum
}

func coalesceRef(a, b Datum) Datum {
	if a.IsNull() {
		return b
	}
	return a
}

func keySemExprs(alias string) map[string]keySemExpr {
	return map[string]keySemExpr{
		"i":  {alias + ".i", func(r keySemRow) Datum { return r.i }},
		"j":  {alias + ".j", func(r keySemRow) Datum { return r.j }},
		"f":  {alias + ".f", func(r keySemRow) Datum { return r.f }},
		"b":  {alias + ".b", func(r keySemRow) Datum { return r.b }},
		"s":  {alias + ".s", func(r keySemRow) Datum { return r.s }},
		"bl": {alias + ".bl", func(r keySemRow) Datum { return r.bl }},
		// Mixed-type expressions: Bool with Int 0/1, Float with Int.
		"bj": {"coalesce(" + alias + ".b, " + alias + ".j)", func(r keySemRow) Datum { return coalesceRef(r.b, r.j) }},
		"fj": {"coalesce(" + alias + ".f, " + alias + ".j)", func(r keySemRow) Datum { return coalesceRef(r.f, r.j) }},
	}
}

// keySemTable creates and fills table name with n rows whose columns cycle
// through value lists of coprime lengths (offset shifts the phase).
func keySemTable(t *testing.T, db *DB, name string, n, offset int) []keySemRow {
	t.Helper()
	negZero := math.Copysign(0, -1)
	is := []Datum{Int(0), Int(1), Int(2), Int(-1), Null(), Int(3), Int(1)}
	js := []Datum{Int(0), Int(1), Null(), Int(1), Int(0), Null(), Int(0), Int(1), Null(), Int(1), Int(0)}
	fs := []Datum{Float(0), Float(negZero), Float(1), Float(1.5), Float(math.NaN()), Null(), Float(2), Float(-1)}
	bs := []Datum{Bool(true), Bool(false), Null()}
	ss := []Datum{Str("a"), Str("b"), Str(""), Str("1"), Null()}
	bls := []Datum{Blob([]byte("a")), Blob([]byte("b")), Blob([]byte{}), Null(), Blob([]byte("1")), Blob([]byte("a\x00")), Blob([]byte("b")), Blob([]byte("c")), Null()}
	tbl, err := db.CreateTable(name, Schema{
		{Name: "id", Type: TInt}, {Name: "i", Type: TInt}, {Name: "j", Type: TInt}, {Name: "f", Type: TFloat},
		{Name: "b", Type: TBool}, {Name: "s", Type: TString}, {Name: "bl", Type: TBlob}, {Name: "x", Type: TInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]keySemRow, n)
	for r := range rows {
		k := r + offset
		row := keySemRow{
			id: Int(int64(r)), i: is[k%len(is)], j: js[k%len(js)], f: fs[k%len(fs)],
			b: bs[k%len(bs)], s: ss[k%len(ss)], bl: bls[k%len(bls)], x: Int(int64(k % 13)),
		}
		rows[r] = row
		if err := tbl.AppendRow([]Datum{row.id, row.i, row.j, row.f, row.b, row.s, row.bl, row.x}); err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

func keySemDB(t *testing.T, par int) (*DB, []keySemRow, []keySemRow) {
	t.Helper()
	db := New()
	db.Parallelism = par
	db.RegisterUDF(&ScalarUDF{
		Name: "ident", Arity: 1, ParallelSafe: true,
		Fn: RowUDF(func(_ context.Context, args []Datum) (Datum, error) { return args[0], nil }),
	})
	a := keySemTable(t, db, "a", 6000, 0)
	c := keySemTable(t, db, "c", 60, 3)
	return db, a, c
}

// keyTuple renders a row's reference key tuple; null reports a NULL part.
func keyTuple(exprs []keySemExpr, r keySemRow) (key string, null bool) {
	parts := make([]string, len(exprs))
	for i, e := range exprs {
		parts[i] = refKey(e.eval(r))
		null = null || parts[i] == ""
	}
	return strings.Join(parts, "|"), null
}

func TestHashKeySemanticsJoin(t *testing.T) {
	cases := [][2][]string{
		{{"i"}, {"f"}},   // 1 = 1.0
		{{"f"}, {"f"}},   // -0.0 = 0.0, NaN = NaN
		{{"b"}, {"i"}},   // true = 1
		{{"s"}, {"bl"}},  // String ≠ Blob
		{{"bl"}, {"bl"}}, // blob bytes
		{{"i", "s"}, {"f", "s"}},
		{{"b", "bl"}, {"j", "bl"}},
		{{"bj"}, {"fj"}}, // mixed-type expressions on both sides
	}
	var first map[string][]string // per query: par-1 row order
	for _, par := range []int{1, 4} {
		db, arows, crows := keySemDB(t, par)
		ae, ce := keySemExprs("a"), keySemExprs("c")
		for _, kind := range []string{"inner", "left", "symmetric"} {
			for _, tc := range cases {
				var al, cl []keySemExpr
				var conds []string
				for k := range tc[0] {
					l, r := ae[tc[0][k]], ce[tc[1][k]]
					al, cl = append(al, l), append(cl, r)
					lsql := l.sql
					if kind == "symmetric" {
						lsql = "ident(" + lsql + ")"
					}
					conds = append(conds, lsql+" = "+r.sql)
				}
				on := strings.Join(conds, " AND ")
				var q string
				var hints *QueryHints
				switch kind {
				case "left":
					q = "SELECT a.id, c.id FROM a LEFT JOIN c ON " + on
				case "symmetric":
					q = "SELECT a.id, c.id FROM a, c WHERE " + on
					hints = &QueryHints{SymmetricJoin: true}
				default:
					q = "SELECT a.id, c.id FROM a, c WHERE " + on
				}
				res, err := db.ExecHinted(q, hints)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				got := make([]string, res.NumRows())
				for r := range got {
					cid := res.Cols[1].Get(r)
					if cid.IsNull() {
						cid = Int(-1)
					}
					got[r] = fmt.Sprintf("%d:%d", res.Cols[0].Get(r).I, cid.I)
				}
				ckeys := make([]string, len(crows))
				for ci, cr := range crows {
					if k, null := keyTuple(cl, cr); !null {
						ckeys[ci] = k
					}
				}
				var want []string
				for _, ar := range arows {
					ak, anull := keyTuple(al, ar)
					matched := false
					for ci, cr := range crows {
						if !anull && ckeys[ci] != "" && ak == ckeys[ci] {
							want = append(want, fmt.Sprintf("%d:%d", ar.id.I, cr.id.I))
							matched = true
						}
					}
					if !matched && kind == "left" {
						want = append(want, fmt.Sprintf("%d:-1", ar.id.I))
					}
				}
				key := fmt.Sprintf("%s %v", kind, tc)
				if par == 1 {
					if first == nil {
						first = map[string][]string{}
					}
					first[key] = append([]string(nil), got...)
				} else if strings.Join(first[key], ",") != strings.Join(got, ",") {
					t.Errorf("%s: row order differs between Parallelism 1 and 4", key)
				}
				sort.Strings(got)
				sort.Strings(want)
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("par %d %s: %d rows, reference %d", par, key, len(got), len(want))
				}
			}
		}
	}
}

func TestHashKeySemanticsGroupDistinct(t *testing.T) {
	keySets := [][]string{
		{"f"}, {"b"}, {"s"}, {"bl"}, {"bj"}, {"fj"},
		{"i", "s"}, {"b", "bl"}, {"f", "bj"},
	}
	for _, par := range []int{1, 4} {
		db, arows, _ := keySemDB(t, par)
		ae := keySemExprs("a")
		for _, ks := range keySets {
			exprs := make([]keySemExpr, len(ks))
			sqls := make([]string, len(ks))
			for i, k := range ks {
				exprs[i], sqls[i] = ae[k], ae[k].sql
			}
			keys := strings.Join(sqls, ", ")

			// Reference: first-seen groups with count(*), sum(x), and the
			// distinct keys of coalesce(f, b) — 1.0 and true are one value.
			type refGroup struct {
				keys     []Datum
				n, sx    int64
				distinct map[string]bool
			}
			var order []string
			groups := map[string]*refGroup{}
			var distinctRows []keySemRow
			for _, r := range arows {
				k, _ := keyTuple(exprs, r)
				g := groups[k]
				if g == nil {
					g = &refGroup{distinct: map[string]bool{}}
					for _, e := range exprs {
						g.keys = append(g.keys, e.eval(r))
					}
					groups[k] = g
					order = append(order, k)
					distinctRows = append(distinctRows, r)
				}
				g.n++
				g.sx += r.x.I
				if v := coalesceRef(r.f, r.b); !v.IsNull() {
					g.distinct[refKey(v)] = true
				}
			}

			q := fmt.Sprintf("SELECT %s, count(*) AS n, sum(a.x) AS sx FROM a GROUP BY %s", keys, keys)
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			qd := fmt.Sprintf("SELECT %s, count(DISTINCT coalesce(a.f, a.b)) AS d FROM a GROUP BY %s", keys, keys)
			resD, err := db.Query(qd)
			if err != nil {
				t.Fatalf("%s: %v", qd, err)
			}
			qs := fmt.Sprintf("SELECT DISTINCT %s FROM a", keys)
			resS, err := db.Query(qs)
			if err != nil {
				t.Fatalf("%s: %v", qs, err)
			}
			for name, r := range map[string]*Result{q: res, qd: resD, qs: resS} {
				if r.NumRows() != len(order) {
					t.Fatalf("par %d %s: %d groups, reference %d", par, name, r.NumRows(), len(order))
				}
			}
			for gi, k := range order {
				g := groups[k]
				for ki := range exprs {
					for _, r := range []*Result{res, resD, resS} {
						if got := r.Cols[ki].Get(gi); !sameDatum(got, g.keys[ki]) {
							t.Fatalf("par %d keys %v group %d key %d = %v (%s), reference %v (%s)",
								par, ks, gi, ki, got, got.T, g.keys[ki], g.keys[ki].T)
						}
					}
				}
				n, sx := res.Cols[len(ks)].Get(gi).I, res.Cols[len(ks)+1].Get(gi).I
				if n != g.n || sx != g.sx {
					t.Fatalf("par %d keys %v group %d: count %d sum %d, reference %d %d", par, ks, gi, n, sx, g.n, g.sx)
				}
				if d := resD.Cols[len(ks)].Get(gi).I; d != int64(len(g.distinct)) {
					t.Fatalf("par %d keys %v group %d: count distinct %d, reference %d", par, ks, gi, d, len(g.distinct))
				}
			}
		}
	}
}
