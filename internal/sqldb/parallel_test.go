package sqldb

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/par"
)

// parFixture builds a DB with a fact table pt (rows large enough to cross
// parallelRowThreshold) and a small dimension table ptd, both filled with
// deterministic xorshift data so every test run sees identical inputs.
func parFixture(t *testing.T, rows int) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, "CREATE TABLE pt (id Int64, v Float64, s String, g Int64)")
	mustExec(t, db, "CREATE TABLE ptd (g Int64, name String)")
	pt := db.GetTable("pt")
	state := uint64(99)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < rows; i++ {
		v := float64(next()%100000) / 1000.0
		g := int64(next() % 97)
		row := []Datum{Int(int64(i)), Float(v), Str(fmt.Sprintf("s%03d", next()%211)), Int(g)}
		if err := pt.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	ptd := db.GetTable("ptd")
	// Only even group ids exist in the dimension, so LEFT JOIN probes have
	// genuine misses.
	for g := 0; g < 97; g += 2 {
		if err := ptd.AppendRow([]Datum{Int(int64(g)), Str(fmt.Sprintf("grp_%02d", g))}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// canonRows renders a result as one string per row. With exact=true floats
// keep full round-trip precision (bit-identical comparison); otherwise they
// are rounded to 9 significant digits, absorbing the ulp-level differences
// chunked float summation is allowed to introduce in aggregates.
func canonRows(res *Result, exact bool) []string {
	out := make([]string, res.NumRows())
	var sb strings.Builder
	for i := range out {
		sb.Reset()
		for j, c := range res.Cols {
			if j > 0 {
				sb.WriteByte('|')
			}
			d := c.Get(i)
			switch d.T {
			case TFloat:
				prec := -1
				if !exact {
					prec = 9
				}
				sb.WriteString(strconv.FormatFloat(d.F, 'g', prec, 64))
			case TInt, TBool:
				sb.WriteString(strconv.FormatInt(d.I, 10))
			case TNull:
				sb.WriteString("NULL")
			default:
				sb.WriteString(d.String())
			}
		}
		out[i] = sb.String()
	}
	return out
}

func diffRows(t *testing.T, label string, serial, parallel []string) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("%s: serial returned %d rows, parallel %d", label, len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("%s: row %d differs\n  serial:   %s\n  parallel: %s", label, i, serial[i], parallel[i])
		}
	}
}

// q1ShapeSQL is DL2SQL's convolution shape over parFixture: GROUP BY an Int
// column of each join side, SUM of a Float product with one factor per
// side, which aggregates factorised (agg.go, fusedAgg). Its factor w = v/7
// keeps the sums off the decimal ties that canonRows' rounding would split.
const q1ShapeSQL = "SELECT q.k, p.g, sum(p.v * q.w) AS s, count(*) AS c FROM pt p INNER JOIN (SELECT g, id % 8 AS k, v / 7 AS w FROM pt WHERE id < 300) q ON p.g = q.g GROUP BY q.k, p.g"

// TestParallelMatchesSerial is the in-package differential test: every
// operator family runs the same query at parallelism 1 and 4 and must
// produce the same rows in the same order. Filter, project, join, sort,
// distinct, and limit concatenate morsel outputs in morsel order, so they
// are compared bit-identically; grouped aggregates merge per-chunk float
// partials and are compared after rounding to 9 significant digits.
func TestParallelMatchesSerial(t *testing.T) {
	db := parFixture(t, 12000)
	exactQueries := []string{
		"SELECT id, v, s FROM pt WHERE g < 30 AND v > 10.0",
		"SELECT id, v * 2.0 + 1.0 AS w, id % 7 AS r FROM pt WHERE g < 50",
		"SELECT p.id, d.name FROM pt p INNER JOIN ptd d ON p.g = d.g WHERE p.v < 50.0",
		"SELECT p.id, d.name FROM pt p LEFT JOIN ptd d ON p.g = d.g WHERE p.id < 9000",
		"SELECT id, g FROM pt ORDER BY g, id DESC",
		"SELECT DISTINCT g FROM pt",
		"SELECT DISTINCT s FROM pt WHERE g % 2 = 0",
		"SELECT id, s FROM pt ORDER BY s LIMIT 100 OFFSET 57",
	}
	aggQueries := []string{
		"SELECT g, count(*) AS c, sum(v) AS s, avg(v) AS m, min(id) AS lo, max(id) AS hi FROM pt GROUP BY g ORDER BY g",
		"SELECT count(*) AS c, sum(v) AS s, avg(v) AS m FROM pt WHERE g < 80",
		"SELECT d.name, count(*) AS c, sum(p.v) AS s FROM pt p INNER JOIN ptd d ON p.g = d.g GROUP BY d.name",
		q1ShapeSQL,
		"SELECT g, sum(v) AS s, count(*) AS c FROM pt GROUP BY g",
	}
	run := func(sql string, deg int) *Result {
		t.Helper()
		db.Parallelism = deg
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("parallelism %d, query %q: %v", deg, sql, err)
		}
		return res
	}
	for _, q := range exactQueries {
		serial := canonRows(run(q, 1), true)
		parallel := canonRows(run(q, 4), true)
		diffRows(t, q, serial, parallel)
	}
	for _, q := range aggQueries {
		serial := canonRows(run(q, 1), false)
		parallel := canonRows(run(q, 4), false)
		diffRows(t, q, serial, parallel)
	}
}

// TestParallelSelfDeterminism pins that a parallel run is deterministic
// against itself, bit-for-bit, floats included: chunk boundaries are a pure
// function of the input size and degree, so repeated runs must not wander
// even where parallel results may differ from serial in the last ulp.
func TestParallelSelfDeterminism(t *testing.T) {
	db := parFixture(t, 12000)
	db.Parallelism = 4
	for _, q := range []string{"SELECT g, sum(v) AS s, avg(v) AS m FROM pt GROUP BY g ORDER BY g", q1ShapeSQL} {
		first, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			again, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			diffRows(t, q, canonRows(first, true), canonRows(again, true))
		}
	}
}

// TestParallelUDFGating proves the safety contract of ScalarUDF.ParallelSafe:
// a UDF left at the default (false) must never be invoked from more than one
// worker at a time, even when the surrounding query runs at parallelism 4.
func TestParallelUDFGating(t *testing.T) {
	db := parFixture(t, 12000)
	db.Parallelism = 4
	var inFlight, maxSeen int64
	db.RegisterUDF(&ScalarUDF{
		Name:  "unsafe_probe",
		Arity: 1,
		Fn: RowUDF(func(_ context.Context, args []Datum) (Datum, error) {
			cur := atomic.AddInt64(&inFlight, 1)
			for {
				prev := atomic.LoadInt64(&maxSeen)
				if cur <= prev || atomic.CompareAndSwapInt64(&maxSeen, prev, cur) {
					break
				}
			}
			d := args[0]
			atomic.AddInt64(&inFlight, -1)
			return Int(d.I * 2), nil
		}),
		// ParallelSafe deliberately left false.
	})
	res, err := db.Query("SELECT id, unsafe_probe(id) AS p FROM pt WHERE unsafe_probe(g) > 40")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() == 0 {
		t.Fatal("probe query returned no rows; fixture drifted")
	}
	if got := atomic.LoadInt64(&maxSeen); got > 1 {
		t.Fatalf("non-ParallelSafe UDF observed %d concurrent invocations, want at most 1", got)
	}

	// A ParallelSafe UDF must still compute the same rows as a serial run.
	db.RegisterUDF(&ScalarUDF{
		Name:         "safe_probe",
		Arity:        1,
		Fn:           RowUDF(func(_ context.Context, args []Datum) (Datum, error) { return Int(args[0].I % 13), nil }),
		ParallelSafe: true,
	})
	const q = "SELECT id, safe_probe(id) AS p FROM pt WHERE safe_probe(g) < 7"
	db.Parallelism = 1
	serial, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	db.Parallelism = 4
	parallel, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	diffRows(t, q, canonRows(serial, true), canonRows(parallel, true))
}

// TestExplainAnalyzeParallelAnnotation checks that a genuinely fanned-out
// operator surfaces its worker/morsel/skew actuals in EXPLAIN ANALYZE, and
// that a serial run stays annotation-free.
func TestExplainAnalyzeParallelAnnotation(t *testing.T) {
	db := parFixture(t, 12000)
	db.Parallelism = 4
	res, err := db.Exec("EXPLAIN ANALYZE SELECT id FROM pt WHERE v > 10.0 AND g < 90")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i := 0; i < res.NumRows(); i++ {
		lines = append(lines, res.Cols[0].Get(i).String())
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "parallel workers=") ||
		!strings.Contains(joined, "morsels=") || !strings.Contains(joined, "skew=") {
		t.Fatalf("EXPLAIN ANALYZE lost the parallel annotation:\n%s", joined)
	}
	db.Parallelism = 1
	res, err = db.Exec("EXPLAIN ANALYZE SELECT id FROM pt WHERE v > 10.0 AND g < 90")
	if err != nil {
		t.Fatal(err)
	}
	lines = lines[:0]
	for i := 0; i < res.NumRows(); i++ {
		lines = append(lines, res.Cols[0].Get(i).String())
	}
	if joined := strings.Join(lines, "\n"); strings.Contains(joined, "parallel workers=") {
		t.Fatalf("serial run gained a parallel annotation:\n%s", joined)
	}
}

// TestParallelStatsSkew exercises the par.Stats skew computation the
// annotation reports: a perfectly balanced run has skew 1.0 and a
// single-worker run reports no skew.
func TestParallelStatsSkew(t *testing.T) {
	s := par.Stats{Workers: 2, Morsels: 4, WorkerItems: []int{100, 100}}
	if got := s.Skew(); got != 1.0 {
		t.Fatalf("balanced skew = %v, want 1.0", got)
	}
	s = par.Stats{Workers: 2, Morsels: 4, WorkerItems: []int{150, 50}}
	if got := s.Skew(); got <= 1.0 {
		t.Fatalf("imbalanced skew = %v, want > 1.0", got)
	}
}

// TestConcurrentParallelQueries runs many queries against one DB from separate
// goroutines while each query itself fans out internally. Under -race this
// is the executor's inter- and intra-query safety net.
func TestConcurrentParallelQueries(t *testing.T) {
	db := parFixture(t, 8000)
	db.Parallelism = 4
	queries := []string{
		"SELECT count(*) AS c FROM pt WHERE v > 50.0",
		"SELECT g, count(*) AS c FROM pt GROUP BY g ORDER BY g",
		"SELECT p.id FROM pt p INNER JOIN ptd d ON p.g = d.g WHERE p.v < 20.0",
		"SELECT DISTINCT s FROM pt",
		"SELECT id FROM pt ORDER BY v LIMIT 25",
	}
	want := make([][]string, len(queries))
	for i, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		want[i] = canonRows(res, false)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 40)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				qi := (seed + k) % len(queries)
				res, err := db.Query(queries[qi])
				if err != nil {
					errCh <- fmt.Errorf("%q: %w", queries[qi], err)
					return
				}
				got := canonRows(res, false)
				if len(got) != len(want[qi]) {
					errCh <- fmt.Errorf("%q: got %d rows, want %d", queries[qi], len(got), len(want[qi]))
					return
				}
				for r := range got {
					if got[r] != want[qi][r] {
						errCh <- fmt.Errorf("%q: row %d = %s, want %s", queries[qi], r, got[r], want[qi][r])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestOrderingContracts pins the row-ordering guarantees documented on
// execDistinct, execSort, and execLimit, at both parallelism settings:
//
//   - DISTINCT keeps the FIRST occurrence of each distinct row, in input
//     order;
//   - ORDER BY is a STABLE sort — rows comparing equal on every key keep
//     their input order;
//   - LIMIT/OFFSET slice rows in input order.
func TestOrderingContracts(t *testing.T) {
	for _, deg := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", deg), func(t *testing.T) {
			db := New()
			db.Parallelism = deg
			mustExec(t, db, "CREATE TABLE ord (id Int64, k Int64, tag String)")
			// Insert rows whose k values collide so stability is observable,
			// crossing the parallel threshold to exercise both paths.
			tbl := db.GetTable("ord")
			for i := 0; i < 6000; i++ {
				row := []Datum{Int(int64(i)), Int(int64(i % 5)), Str(fmt.Sprintf("t%d", i%3))}
				if err := tbl.AppendRow(row); err != nil {
					t.Fatal(err)
				}
			}

			// DISTINCT: first occurrence wins, output in first-seen order.
			res := mustExec(t, db, "SELECT DISTINCT tag FROM ord")
			wantTags := []string{"t0", "t1", "t2"}
			if res.NumRows() != len(wantTags) {
				t.Fatalf("DISTINCT returned %d rows, want %d", res.NumRows(), len(wantTags))
			}
			for i, w := range wantTags {
				if got := res.Cols[0].Get(i).S; got != w {
					t.Fatalf("DISTINCT row %d = %q, want %q (first-occurrence order)", i, got, w)
				}
			}

			// Stable sort: for equal k the id column must stay ascending
			// (its input order).
			res = mustExec(t, db, "SELECT id, k FROM ord ORDER BY k")
			prevK, prevID := int64(-1), int64(-1)
			for i := 0; i < res.NumRows(); i++ {
				k, id := res.Cols[1].Get(i).I, res.Cols[0].Get(i).I
				if k < prevK {
					t.Fatalf("ORDER BY k broken at row %d: k=%d after %d", i, k, prevK)
				}
				if k == prevK && id < prevID {
					t.Fatalf("sort not stable: row %d id=%d after id=%d within k=%d", i, id, prevID, k)
				}
				prevK, prevID = k, id
			}

			// LIMIT/OFFSET: rows come from the input slice [offset, offset+limit).
			res = mustExec(t, db, "SELECT id FROM ord LIMIT 10 OFFSET 20")
			if res.NumRows() != 10 {
				t.Fatalf("LIMIT returned %d rows, want 10", res.NumRows())
			}
			for i := 0; i < 10; i++ {
				if got := res.Cols[0].Get(i).I; got != int64(20+i) {
					t.Fatalf("LIMIT/OFFSET row %d = %d, want %d (input order)", i, got, 20+i)
				}
			}
		})
	}
}

// TestParallelSpeedupShape checks that fanning out actually speeds up a
// scan-heavy query when real hardware parallelism exists. It self-gates:
// wall-clock ratios are meaningless under the race detector's
// instrumentation or on machines without at least 4 CPUs, where
// parallelism 4 can only hope for parity with serial. The >=2x target on a
// larger join is internal/bench's BenchmarkGateMorselSpeedup.
func TestParallelSpeedupShape(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock shape test: skipped under -race")
	}
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("wall-clock shape test: need >= 4 CPUs, have %d", n)
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	db := parFixture(t, 200000)
	const q = "SELECT g, count(*) AS c, sum(v) AS s FROM pt WHERE v > 10.0 GROUP BY g ORDER BY g"
	measure := func(deg int) time.Duration {
		db.Parallelism = deg
		if _, err := db.Query(q); err != nil { // warmup
			t.Fatal(err)
		}
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := db.Query(q); err != nil {
				t.Fatal(err)
			}
			if el := time.Since(start); best == 0 || el < best {
				best = el
			}
		}
		return best
	}
	serial := measure(1)
	parallel := measure(4)
	// 1.3x is a deliberately loose floor: the point is the shape (parallel
	// beats serial at all), not a precise scaling factor, so the test stays
	// robust on loaded CI machines.
	if float64(serial) < 1.3*float64(parallel) {
		t.Errorf("parallelism 4 (best %v) not meaningfully faster than serial (best %v) on %d CPUs",
			parallel, serial, runtime.NumCPU())
	}
}
