package sqldb

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"
)

// randDB builds a table of pseudo-random rows for equivalence properties.
func randDB(t *testing.T, seed uint8, rows int) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, `CREATE TABLE r (k Int64, g Int64, v Float64, s String)`)
	tbl := db.GetTable("r")
	state := uint64(seed)*2654435761 + 1
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	for i := 0; i < rows; i++ {
		if err := tbl.AppendRow([]Datum{
			Int(int64(next(8))),
			Int(int64(next(4))),
			Float(float64(next(100)) / 10),
			Str(fmt.Sprintf("s%d", next(5))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// Property: conjunct order does not change WHERE results.
func TestAndCommutativityProperty(t *testing.T) {
	f := func(seed uint8) bool {
		db := randDB(t, seed, 60)
		a, err := db.Query(`SELECT count(*) c FROM r WHERE k > 2 AND v < 7 AND g = 1`)
		if err != nil {
			return false
		}
		b, err := db.Query(`SELECT count(*) c FROM r WHERE g = 1 AND k > 2 AND v < 7`)
		if err != nil {
			return false
		}
		return a.Cols[0].Get(0).I == b.Cols[0].Get(0).I
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: symmetric hash join and standard hash join return the same
// multiset of rows.
func TestSymmetricJoinEquivalenceProperty(t *testing.T) {
	f := func(seed uint8) bool {
		db := randDB(t, seed, 40)
		mustExec(t, db, `CREATE TABLE l (k Int64, w Float64)`)
		tbl := db.GetTable("l")
		for i := 0; i < 25; i++ {
			if err := tbl.AppendRow([]Datum{Int(int64((i + int(seed)) % 8)), Float(float64(i))}); err != nil {
				return false
			}
		}
		// A dummy UDF makes the join condition eligible for rule 3.
		db.RegisterUDF(&ScalarUDF{
			Name: "nudf_id", Arity: 1,
			Fn:   RowUDF(func(_ context.Context, args []Datum) (Datum, error) { return args[0], nil }),
			Cost: 1,
		})
		q := `SELECT sum(r.v) sv, sum(l.w) sw, count(*) c FROM r, l WHERE nudf_id(r.k) = l.k`
		std, err := db.ExecHinted(q, nil)
		if err != nil {
			return false
		}
		sym, err := db.ExecHinted(q, &QueryHints{SymmetricJoin: true})
		if err != nil {
			return false
		}
		// Row multiset equality: exact count, sums within float-summation
		// reordering tolerance.
		for i := range std.Cols {
			a, _ := std.Cols[i].Get(0).AsFloat()
			b, _ := sym.Cols[i].Get(0).AsFloat()
			diff := a - b
			if diff < 0 {
				diff = -diff
			}
			if diff > 1e-6 {
				return false
			}
		}
		c1, _ := std.Cols[2].Get(0).AsInt()
		c2, _ := sym.Cols[2].Get(0).AsInt()
		return c1 == c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: DISTINCT is idempotent and never increases cardinality.
func TestDistinctIdempotentProperty(t *testing.T) {
	f := func(seed uint8) bool {
		db := randDB(t, seed, 50)
		all, err := db.Query(`SELECT g, s FROM r`)
		if err != nil {
			return false
		}
		d1, err := db.Query(`SELECT DISTINCT g, s FROM r`)
		if err != nil {
			return false
		}
		if d1.NumRows() > all.NumRows() {
			return false
		}
		// Distinct over an already-distinct projection must be stable.
		mustExec(t, db, `CREATE TABLE d AS SELECT DISTINCT g, s FROM r`)
		d2, err := db.Query(`SELECT DISTINCT g, s FROM d`)
		if err != nil {
			return false
		}
		return d1.NumRows() == d2.NumRows()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: grouped sums equal the global sum (aggregation partition law).
func TestGroupPartitionProperty(t *testing.T) {
	f := func(seed uint8) bool {
		db := randDB(t, seed, 70)
		grouped, err := db.Query(`SELECT sum(v) s FROM (SELECT g, sum(v) AS v FROM r GROUP BY g) sub`)
		if err != nil {
			return false
		}
		global, err := db.Query(`SELECT sum(v) s FROM r`)
		if err != nil {
			return false
		}
		gv, _ := grouped.Cols[0].Get(0).AsFloat()
		tv, _ := global.Cols[0].Get(0).AsFloat()
		diff := gv - tv
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: a filter then count equals counting with the predicate inline.
func TestFilterCountEquivalenceProperty(t *testing.T) {
	f := func(seed uint8, th uint8) bool {
		db := randDB(t, seed, 50)
		threshold := float64(th%100) / 10
		lit := Float(threshold).String()
		a, err := db.Query(`SELECT count(*) c FROM r WHERE v > ` + lit)
		if err != nil {
			return false
		}
		b, err := db.Query(`SELECT sum(if(v > ` + lit + `, 1, 0)) c FROM r`)
		if err != nil {
			return false
		}
		av, _ := a.Cols[0].Get(0).AsInt()
		bv, _ := b.Cols[0].Get(0).AsInt()
		return av == bv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: join-order hints never change the result of an inner join.
func TestJoinOrderInvarianceProperty(t *testing.T) {
	f := func(seed uint8) bool {
		db := randDB(t, seed, 40)
		mustExec(t, db, `CREATE TABLE m (g Int64, label String)`)
		tbl := db.GetTable("m")
		for i := 0; i < 4; i++ {
			if err := tbl.AppendRow([]Datum{Int(int64(i)), Str(fmt.Sprintf("L%d", i))}); err != nil {
				return false
			}
		}
		q := `SELECT count(*) c, sum(r.v) s FROM r, m WHERE r.g = m.g`
		a, err := db.ExecHinted(q, nil)
		if err != nil {
			return false
		}
		b, err := db.ExecHinted(q, &QueryHints{JoinOrder: []string{"m", "r"}})
		if err != nil {
			return false
		}
		if !Equal(a.Cols[0].Get(0), b.Cols[0].Get(0)) {
			return false
		}
		// Sum compared with reordering tolerance (join order permutes the
		// float summation sequence).
		av, _ := a.Cols[1].Get(0).AsFloat()
		bv, _ := b.Cols[1].Get(0).AsFloat()
		diff := av - bv
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
