package sqldb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/qerr"
)

// factoriseChain is the build rows per matched key in the walk tables: a
// chain longer than hashBlock, whose length divides none of the chunk
// sizes below, so parallel chunks start inside chains.
const factoriseChain = 301

// walkTables holds the walk's inputs. s is the build side of every join it
// takes part in: keys 0 and 1 with factoriseChain rows each, and key 2
// once. g, the probe side, is larger: 31 of its rows match s (gKey), the
// rest do not. Every row of m matches
// s, so m LEFT JOIN s pads nothing. Values mix magnitudes, so a sum that
// took its terms in another order would differ in its bits.
func walkTables(t *testing.T) *DB {
	t.Helper()
	db := New()
	val := func(i int) float64 { return float64(i%7-3)*1e15 + float64(i)/3 }
	tables := []struct {
		name string
		rows func(add func(k, j int64, v float64))
	}{
		{"s", func(add func(k, j int64, v float64)) {
			for i := 0; i < 2*factoriseChain; i++ {
				add(int64(i%2), int64(i%5), val(i))
			}
			add(2, 9, 0.5)
		}},
		{"g", func(add func(k, j int64, v float64)) {
			for i := 0; i < 700; i++ {
				k := gKey(i)
				add(k, int64(i/20%4), val(i+5)/7)
			}
		}},
		{"m", func(add func(k, j int64, v float64)) {
			for i := 0; i < 900; i++ {
				add(int64(i%3), int64(i%6), val(3*i))
			}
		}},
	}
	for _, tb := range tables {
		cols := []*Column{NewColumn(TInt), NewColumn(TInt), NewColumn(TFloat)}
		tb.rows(func(k, j int64, v float64) {
			cols[0].Ints = append(cols[0].Ints, k)
			cols[1].Ints = append(cols[1].Ints, j)
			cols[2].Floats = append(cols[2].Floats, v)
		})
		mustExec(t, db, `CREATE TABLE `+tb.name+` (k Int64, j Int64, v Float64)`)
		if err := db.GetTable(tb.name).AppendColumns(cols); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// gKey is the key of row i of walkTables' g: rows 3, 23, … 603 match s,
// mostly on keys 0 and 1, every fifth on key 2; the others match nothing.
func gKey(i int) int64 {
	switch t := i / 20; {
	case i%20 != 3 || t > 30:
		return int64(10 + i%40)
	case t%5 == 4:
		return 2
	default:
		return int64(t % 2)
	}
}

// runTables holds plain inputs of the factorised shape, stored in runs of
// equal keys whose lengths vary, three runs to a k with j = 0, 1, 2 (as
// DL2SQL's pre-joined input keeps KernelID across MatrixIDs), and whose
// groups come back, two runs later (so four consecutive runs are sometimes
// of distinct groups and sometimes not) and many runs later:
// keys ascending from 0, descending, negative, and spread past the dense
// cap of a chunk's rows, which moves the groups to hashed addressing.
func runTables(t *testing.T) *DB {
	t.Helper()
	db := New()
	for name, key := range map[string]func(run int) int64{
		"r_up":     func(run int) int64 { return int64(run % 97) },
		"r_down":   func(run int) int64 { return int64(5000 - run%211*3) },
		"r_neg":    func(run int) int64 { return -int64(run%53) * 7 },
		"r_spread": func(run int) int64 { return int64(run%61) * 1e12 },
	} {
		cols := []*Column{NewColumn(TInt), NewColumn(TInt), NewColumn(TFloat)}
		for i, run := 0, 0; i < 9000; run++ {
			g := run // the run's group: every fifth run's is two runs back
			if run%5 == 2 {
				g -= 2
			}
			for n := 1 + run%9; n > 0 && i < 9000; n-- {
				cols[0].Ints = append(cols[0].Ints, key(g/3))
				cols[1].Ints = append(cols[1].Ints, int64(g%3))
				cols[2].Floats = append(cols[2].Floats, float64(i%11-5)*1e14+float64(i)/9)
				i++
			}
		}
		mustExec(t, db, `CREATE TABLE `+name+` (k Int64, j Int64, v Float64)`)
		if err := db.GetTable(name).AppendColumns(cols); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestFactorisedMatchesGeneralPath pins the factorised aggregate to the
// general one bit for bit: each query runs with plain GROUP BY columns,
// which the chain walk (over a join) or the run reader (over a table)
// aggregates, and with every part plus 0, which only the general path
// accepts, at Parallelism 1, 2 and 4. The joins build on the left and on
// the right, skip probe rows without a match, and include a LEFT JOIN that
// pads nothing (factorised) and one that pads (not); the join's chunks at
// degrees 2 and 4 start inside hash chains. Each degree is compared with
// itself: partial sums merge in chunk order, so degrees differ in bits.
func TestFactorisedMatchesGeneralPath(t *testing.T) {
	// g ⋈ s visits g's rows in order, each with its chain of s rows.
	starts, pairs := map[int]bool{}, 0
	for i := 0; i < 700; i++ {
		switch gKey(i) {
		case 0, 1:
			starts[pairs], pairs = true, pairs+factoriseChain
		case 2:
			starts[pairs], pairs = true, pairs+1
		}
	}
	for _, deg := range []int{2, 4} {
		chunk := max((pairs+deg-1)/deg, morselRows)
		for lo := chunk; lo < pairs; lo += chunk {
			if starts[lo] {
				t.Fatalf("degree %d: the chunk at pair %d starts a chain", deg, lo)
			}
		}
	}
	type query struct {
		db  *DB
		sql string // %[1]s follows every GROUP BY part
	}
	var queries []query
	walk, runs := walkTables(t), runTables(t)
	for _, q := range []string{
		// One SUM of a product, built on the left and on the right.
		`SELECT s.j%[1]s AS sj, g.j%[1]s AS gj, sum(s.v * g.v) AS p FROM s JOIN g ON s.k = g.k GROUP BY s.j%[1]s, g.j%[1]s`,
		`SELECT g.j%[1]s AS gj, s.j%[1]s AS sj, sum(g.v * s.v) AS p FROM g JOIN s ON g.k = s.k GROUP BY g.j%[1]s, s.j%[1]s`,
		`SELECT g.j%[1]s AS gj, sum(s.v * g.v) AS p FROM g JOIN s ON g.k = s.k GROUP BY g.j%[1]s`,
		// Several SUMs beside COUNT(*), and one-sided SUMs.
		`SELECT s.j%[1]s AS sj, g.j%[1]s AS gj, sum(s.v * g.v) AS p, count(*) AS c, sum(s.v) AS sv, sum(g.v) AS gw FROM s JOIN g ON s.k = g.k GROUP BY s.j%[1]s, g.j%[1]s`,
		`SELECT s.j%[1]s AS sj, sum(g.v) AS gw FROM g JOIN s ON g.k = s.k GROUP BY s.j%[1]s`,
		`SELECT g.j%[1]s AS gj, sum(s.v) AS sv, count(*) AS c FROM s JOIN g ON s.k = g.k GROUP BY g.j%[1]s`,
		// No aggregate at all.
		`SELECT g.j%[1]s AS gj, s.j%[1]s AS sj FROM s JOIN g ON s.k = g.k GROUP BY g.j%[1]s, s.j%[1]s`,
		// A LEFT JOIN whose every row matches, and one that pads.
		`SELECT m.j%[1]s AS mj, s.j%[1]s AS sj, sum(m.v * s.v) AS p, count(*) AS c FROM m LEFT JOIN s ON m.k = s.k GROUP BY m.j%[1]s, s.j%[1]s`,
		`SELECT g.j%[1]s AS gj, count(*) AS c FROM g LEFT JOIN s ON g.k = s.k GROUP BY g.j%[1]s`,
	} {
		queries = append(queries, query{walk, q})
	}
	for _, tb := range []string{"r_up", "r_down", "r_neg", "r_spread"} {
		for _, q := range []string{
			`SELECT k%[1]s AS k, j%[1]s AS j, sum(v) AS s, count(*) AS c FROM ` + tb + ` GROUP BY k%[1]s, j%[1]s`,
			`SELECT k%[1]s AS k, sum(v) AS s FROM ` + tb + ` GROUP BY k%[1]s`,
			`SELECT j%[1]s AS j, k%[1]s AS k, count(*) AS c FROM ` + tb + ` GROUP BY j%[1]s, k%[1]s, j%[1]s`,
			`SELECT k%[1]s AS k FROM ` + tb + ` GROUP BY k%[1]s`,
			// No GROUP BY part: here the general path is forced by the
			// argument, which holds no -0 for the + 0 to change.
			`SELECT sum(v%[1]s) AS s, count(*) AS c FROM ` + tb,
		} {
			queries = append(queries, query{runs, q})
		}
	}
	for _, q := range queries {
		for _, deg := range []int{1, 2, 4} {
			q.db.Parallelism = deg
			want := ""
			for _, suffix := range []string{" + 0", ""} {
				sql := fmt.Sprintf(q.sql, suffix)
				res, err := q.db.Query(sql)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				got := resultBits(res)
				for _, c := range res.Cols {
					got += c.Type.String() + "|"
				}
				if want == "" {
					if res.NumRows() < 2 && strings.Contains(sql, "GROUP BY") {
						t.Fatalf("%s: %d groups", sql, res.NumRows())
					}
					want = got
				} else if got != want {
					t.Fatalf("par %d: %s gives\n%v\nwant (general path)\n%v", deg, sql, got, want)
				}
			}
		}
	}
}

// countdownCtx is a context whose Err reports cancellation from its n-th
// call on, counting every call in calls.
type countdownCtx struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestFactorisedWalkCancels cancels a factorised join aggregate at each of
// its cancellation checks in turn: every run fails with ErrCancelled, and
// the statement checks at least once per hashBlock pairs, so a cancel
// lands inside the chain walk.
func TestFactorisedWalkCancels(t *testing.T) {
	db := walkTables(t)
	db.Parallelism = 1
	const q = `SELECT s.j AS sj, g.j AS gj, sum(s.v * g.v) AS p FROM s JOIN g ON s.k = g.k GROUP BY s.j, g.j`
	full := &countdownCtx{Context: context.Background(), n: math.MaxInt64}
	if _, err := db.QueryContext(full, q); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT count(*) AS n FROM s JOIN g ON s.k = g.k`)
	if err != nil {
		t.Fatal(err)
	}
	checks, pairs := full.calls.Load(), res.Cols[0].Ints[0]
	if checks < pairs/hashBlock {
		t.Fatalf("%d cancellation checks over %d pairs, want one per %d pairs at least", checks, pairs, hashBlock)
	}
	for n := int64(1); n <= checks; n++ {
		res, err := db.QueryContext(&countdownCtx{Context: context.Background(), n: n}, q)
		if !errors.Is(err, qerr.ErrCancelled) || res != nil {
			t.Fatalf("cancelled at check %d of %d: result %v, err %v; want ErrCancelled", n, checks, res != nil, err)
		}
	}
}
