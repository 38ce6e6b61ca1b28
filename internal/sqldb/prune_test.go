package sqldb

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/qerr"
)

// pruneFixture builds five joinable tables — a (3,000 rows, a nullable
// column), b (60 rows, three per g), c (20 rows), o (4,000 rows) and p (60
// rows, three per g) — a view over a ⋈ b, and two UDFs, so joins run above
// the parallel threshold.
func pruneFixture(t *testing.T, deg int) *DB {
	t.Helper()
	db := New()
	db.Parallelism = deg
	a, err := db.CreateTable("a", Schema{{Name: "id", Type: TInt}, {Name: "g", Type: TInt}, {Name: "x", Type: TFloat}, {Name: "s", Type: TString}, {Name: "n", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		n := Int(int64(i % 5))
		if i%11 == 0 {
			n = Null()
		}
		if err := a.AppendRow([]Datum{Int(int64(i)), Int(int64(i % 20)), Float(float64(i%17)*0.25 - 1.5), Str(fmt.Sprintf("s%d", i%7)), n}); err != nil {
			t.Fatal(err)
		}
	}
	b, err := db.CreateTable("b", Schema{{Name: "id", Type: TInt}, {Name: "g", Type: TInt}, {Name: "y", Type: TFloat}, {Name: "t", Type: TString}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := b.AppendRow([]Datum{Int(int64(i)), Int(int64(i % 20)), Float(float64(i)*0.5 - 3), Str(fmt.Sprintf("t%d", i%4))}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := db.CreateTable("c", Schema{{Name: "g", Type: TInt}, {Name: "w", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := c.AppendRow([]Datum{Int(int64(i)), Int(int64(i * i % 9))}); err != nil {
			t.Fatal(err)
		}
	}
	// o and p hold floats off the binary grid, so every sum over them
	// depends on its accumulation order; o.g = i % 25, so a fifth of o
	// finds no p row.
	mustExec(t, db, `CREATE TABLE o (id Int64, g Int64, h Int64, z Float64)`)
	mustExec(t, db, `CREATE TABLE p (id Int64, g Int64, w Float64)`)
	o, p := db.lookupTable("o"), db.lookupTable("p")
	for i := 0; i < 4000; i++ {
		if err := o.AppendRow([]Datum{Int(int64(i)), Int(int64(i % 25)), Int(int64(i % 7)), Float(float64(i) / 3.0)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		if err := p.AppendRow([]Datum{Int(int64(i)), Int(int64(i % 20)), Float(0.1 * float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, db, `CREATE VIEW v_ab AS SELECT a.id AS aid, b.y AS y, a.x AS x FROM a JOIN b ON a.g = b.g`)
	db.RegisterUDF(&ScalarUDF{
		Name: "twice", Arity: 1, ParallelSafe: true,
		Fn: RowUDF(func(_ context.Context, args []Datum) (Datum, error) {
			f, _ := args[0].AsFloat()
			return Float(2 * f), nil
		}),
	})
	db.RegisterUDF(&ScalarUDF{
		Name: "ident", Arity: 1, ParallelSafe: true,
		Fn: RowUDF(func(_ context.Context, args []Datum) (Datum, error) { return args[0], nil }),
	})
	return db
}

// resultDigest is the FNV-1a hash of a result's schema, and of every value
// in row order with its type (floats by their bits).
func resultDigest(res *Result) uint64 {
	h := fnv.New64a()
	for _, c := range res.Schema {
		fmt.Fprintf(h, "%s.%s:%d|", c.Table, c.Name, c.Type)
	}
	for i := 0; i < res.NumRows(); i++ {
		for _, c := range res.Cols {
			d := c.Get(i)
			if d.T == TFloat {
				fmt.Fprintf(h, "%d:%x|", d.T, math.Float64bits(d.F))
			} else {
				fmt.Fprintf(h, "%d:%s|", d.T, d.String())
			}
		}
	}
	return h.Sum64()
}

// TestJoinPruningResultsPinned pins the answers of join queries that read
// only some of their joined columns, at Parallelism 1 and 4. The digests
// over a, b and c were recorded before joins gathered only the columns
// their ancestors read, so they show pruning changes no row, value, type
// or order; those over o and p were recorded while joins still returned
// whole-output pair arrays, so they show that handing pairs on a block at
// a time changes none either.
func TestJoinPruningResultsPinned(t *testing.T) {
	sym := &QueryHints{SymmetricJoin: true}
	cases := []struct {
		name  string
		sql   string
		hints *QueryHints
		want  [2]uint64 // Parallelism 1, 4
	}{
		{"star", `SELECT * FROM a JOIN b ON a.g = b.g`, nil, [2]uint64{0xcf8c49adb15022fd, 0xcf8c49adb15022fd}},
		{"qualified and unqualified", `SELECT a.id, y, s, b.t FROM a JOIN b ON a.g = b.g`, nil, [2]uint64{0x473ffef9888132e9, 0x473ffef9888132e9}},
		{"case in between", `SELECT a.id, CASE WHEN a.x > 0 THEN b.y ELSE 0 - b.y END AS cy, a.n IN (1, 3) AS inn, b.y BETWEEN -1 AND 1 AS bt FROM a, b WHERE a.g = b.g`, nil, [2]uint64{0x8bae1cd6f78c6a6f, 0x8bae1cd6f78c6a6f}},
		{"having", `SELECT a.g, sum(a.x * b.y) AS sxy, count(*) AS c FROM a JOIN b ON a.g = b.g GROUP BY a.g HAVING sum(b.y) > 0`, nil, [2]uint64{0x84e7a8c50642fbfb, 0x84e7a8c50642fbfb}},
		{"order by unprojected", `SELECT a.id, b.id FROM a JOIN b ON a.g = b.g ORDER BY b.y DESC, a.x, a.id, b.id LIMIT 50`, nil, [2]uint64{0x6046f7840c1e433, 0x6046f7840c1e433}},
		{"non-equi residual", `SELECT a.id, b.id AS bid FROM a, b WHERE a.g = b.g AND a.x < b.y`, nil, [2]uint64{0x4b3a15c9cfcad4a2, 0x4b3a15c9cfcad4a2}},
		{"nested loop", `SELECT a.id, c.w FROM a, c WHERE a.id < 40 AND a.g + c.w > 25`, nil, [2]uint64{0x93bb9c1150510ba7, 0x93bb9c1150510ba7}},
		{"left join", `SELECT a.id, a.s, b.t FROM a LEFT JOIN b ON a.id = b.id`, nil, [2]uint64{0x123bbf81aceeba98, 0x123bbf81aceeba98}},
		{"left join group by", `SELECT b.t, count(*) AS c, sum(b.y) AS sy FROM a LEFT JOIN b ON a.id = b.id GROUP BY b.t`, nil, [2]uint64{0x7558d6ecc2b1abc7, 0x7558d6ecc2b1abc7}},
		{"subquery alias", `SELECT s.aid, s.yy FROM (SELECT a.id AS aid, b.y AS yy, a.s AS ss FROM a JOIN b ON a.g = b.g) s WHERE s.yy > 0`, nil, [2]uint64{0x6ba4d8c994dbb958, 0x6ba4d8c994dbb958}},
		{"subquery star", `SELECT q.x FROM (SELECT * FROM a JOIN c ON a.g = c.g) q WHERE q.w > 3`, nil, [2]uint64{0xba90c17917254fe, 0xba90c17917254fe}},
		{"count over subquery star", `SELECT count(*) AS c FROM (SELECT * FROM a JOIN c ON a.g = c.g) q`, nil, [2]uint64{0x2d1b23c4b3982b1b, 0x2d1b23c4b3982b1b}},
		{"view", `SELECT aid, y FROM v_ab WHERE x > 0`, nil, [2]uint64{0x68aff468216aa622, 0x68aff468216aa622}},
		{"union all", `SELECT a.id, b.y FROM a JOIN b ON a.g = b.g WHERE a.id < 10 UNION ALL SELECT c.g, b.y FROM c JOIN b ON c.g = b.g`, nil, [2]uint64{0x558cd9d43f6b9daf, 0x558cd9d43f6b9daf}},
		{"three-way", `SELECT a.id, b.t, c.w FROM a, b, c WHERE a.g = b.g AND b.g = c.g AND c.w > 2`, nil, [2]uint64{0x1574b253a730ee26, 0x1574b253a730ee26}},
		{"count distinct", `SELECT b.t, count(DISTINCT a.s) AS ds, count(*) AS c FROM a JOIN b ON a.g = b.g GROUP BY b.t`, nil, [2]uint64{0xb28b9ade17af5978, 0xb28b9ade17af5978}},
		{"row udf argument", `SELECT a.g, sum(twice(b.y)) AS s2 FROM a JOIN b ON a.g = b.g GROUP BY a.g`, nil, [2]uint64{0x959e856f7311ba18, 0x959e856f7311ba18}},
		{"conv shaped", `SELECT b.g * 100 + a.g AS k, sum(a.x * b.y) AS v, avg(b.y) AS m, min(a.s) AS lo, max(a.x) AS hi FROM a JOIN b ON a.g = b.g GROUP BY b.g, a.g`, nil, [2]uint64{0xdd579378a2918193, 0xdd579378a2918193}},
		{"count only", `SELECT count(*) AS c FROM a JOIN b ON a.g = b.g`, nil, [2]uint64{0xd6baf36ed30d6e29, 0xd6baf36ed30d6e29}},
		{"count filtered scan", `SELECT count(*) AS c FROM a WHERE a.x > 0`, nil, [2]uint64{0x5bdab30c8e832ded, 0x5bdab30c8e832ded}},
		{"literal over join", `SELECT 1 AS one FROM a JOIN c ON a.g = c.g WHERE a.id < 5`, nil, [2]uint64{0x2c0331615cfaae00, 0x2c0331615cfaae00}},
		{"global aggregate", `SELECT sum(b.y) AS sy, argMax(a.id, a.x) AS am FROM a JOIN b ON a.g = b.g WHERE b.t = 't1'`, nil, [2]uint64{0x13bc6ef675ab601f, 0x13bc6ef675ab601f}},
		{"nullable group key", `SELECT a.n, count(*) AS c, sum(b.y) AS sy FROM a JOIN b ON a.g = b.g GROUP BY a.n`, nil, [2]uint64{0xbe4f933f9c840be2, 0xbe4f933f9c840be2}},
		{"distinct", `SELECT DISTINCT a.s, b.t FROM a JOIN b ON a.g = b.g`, nil, [2]uint64{0x18e0c5b7a5a38096, 0x18e0c5b7a5a38096}},
		{"order by alias", `SELECT a.s, sum(b.y) AS sy FROM a JOIN b ON a.g = b.g GROUP BY a.s ORDER BY sy DESC, s`, nil, [2]uint64{0xab450011b8fb6422, 0xab450011b8fb6422}},
		{"symmetric", `SELECT a.g, sum(b.y) AS sy FROM a, b WHERE a.g = ident(b.g) GROUP BY a.g`, sym, [2]uint64{0x7a70e388ad5d1aa3, 0x7a70e388ad5d1aa3}},
		// Order-sensitive sums over o ⋈ p: every join feeds at least 4 ×
		// morselRows pairs, so Parallelism 4 runs four aggregate partials
		// (or gathers in parallel), and a change in the order pairs reach
		// the aggregate or in where its chunks start changes the bits. The
		// projected cases pin the rows gathered in parallel, the empty ones
		// joins without pairs.
		{"o⋈p inner", `SELECT o.h, sum(o.z * p.w) AS s, avg(p.w) AS m, count(*) AS c FROM o JOIN p ON o.g = p.g GROUP BY o.h`, nil, [2]uint64{0xe8fddf6d3db4531c, 0xb9284ed962dc7b5a}},
		{"o⋈p inner build left", `SELECT p.id % 4 AS k, sum(o.z - p.w) AS s, varPop(o.z) AS v FROM p JOIN o ON p.g = o.g GROUP BY p.id % 4`, nil, [2]uint64{0xf54fc011ac64d0c9, 0x13b52a7e4a4574d8}},
		{"o⋈p global", `SELECT sum(o.z * p.w) AS s, stddevSamp(p.w * o.z) AS sd FROM o, p WHERE o.g = p.g`, nil, [2]uint64{0xd602adf3902fb66e, 0xdfb1d6f395f6086e}},
		{"o⋈p left", `SELECT p.id % 3 AS k, sum(o.z * 0.7) AS s, sum(p.w / 3) AS sw, count(p.id) AS c FROM o LEFT JOIN p ON o.g = p.g GROUP BY p.id % 3`, nil, [2]uint64{0xed7316dba5b7d90c, 0xf583cdb361bee6e8}},
		{"o⋈p symmetric", `SELECT o.h, sum(o.z * p.w) AS s FROM o, p WHERE o.g = ident(p.g) GROUP BY o.h`, sym, [2]uint64{0x99d5f837d334fa3, 0x90028bfcf6e0b540}},
		{"o⋈p count distinct", `SELECT o.h, count(DISTINCT p.w) AS d, sum(o.z / (p.w + 1)) AS s FROM o JOIN p ON o.g = p.g GROUP BY o.h`, nil, [2]uint64{0x5182d5225c21a610, 0x5182d5225c21a610}},
		{"o⋈p argmax ties", `SELECT o.h, argMax(o.id * 100 + p.id, p.g) AS am, argMin(o.z, p.id % 3) AS an, sum(o.z) AS s FROM o JOIN p ON o.g = p.g GROUP BY o.h`, nil, [2]uint64{0x47218947b5af8395, 0x67cfb2c878df5114}},
		{"o⋈p no pairs", `SELECT o.h, sum(o.z) AS s FROM o JOIN p ON o.g = p.g + 100 GROUP BY o.h`, nil, [2]uint64{0x50263f91be3868e2, 0x50263f91be3868e2}},
		{"o⋈p no pairs global", `SELECT count(*) AS c, sum(o.z * p.w) AS s FROM o JOIN p ON o.id = p.id + 5000`, nil, [2]uint64{0xfa46b170cf9a2f74, 0xfa46b170cf9a2f74}},
		{"o⋈p no pairs projected", `SELECT o.id, p.w FROM o JOIN p ON o.g = p.g + 100`, nil, [2]uint64{0x350c3a651295fbac, 0x350c3a651295fbac}},
		{"o⋈p empty left input", `SELECT p.id % 3 AS k, count(*) AS c FROM o LEFT JOIN p ON o.g = p.g WHERE o.id < 0 GROUP BY p.id % 3`, nil, [2]uint64{0x94a5595d1b58a3b7, 0x94a5595d1b58a3b7}},
		{"o⋈p empty cross input", `SELECT c.w, count(*) AS c FROM o, c WHERE o.id < 0 GROUP BY c.w`, nil, [2]uint64{0x43bcd03e3a5d8d13, 0x43bcd03e3a5d8d13}},
		{"o⋈p left projected", `SELECT o.id, o.z, p.w FROM o LEFT JOIN p ON o.g = p.g`, nil, [2]uint64{0x8f8f0d46d1825ce0, 0x8f8f0d46d1825ce0}},
		{"o⋈p symmetric projected", `SELECT o.id, p.id AS pid, p.w FROM o, p WHERE o.g = ident(p.g)`, sym, [2]uint64{0xe942ed60afcc46ac, 0xe942ed60afcc46ac}},
		{"o⋈p nested loop projected", `SELECT o.id, c.w, o.z * c.g AS zg FROM o, c WHERE o.id < 500`, nil, [2]uint64{0x8f7656f8fdb66ae9, 0x8f7656f8fdb66ae9}},
		{"o⋈p nested loop", `SELECT c.w, sum(o.z * c.g) AS s, argMax(o.id, c.w) AS am FROM o, c WHERE o.id < 500 GROUP BY c.w`, nil, [2]uint64{0xba257a97612830df, 0xffa5c1941bf21d7d}},
	}
	for di, deg := range []int{1, 4} {
		db := pruneFixture(t, deg)
		for _, tc := range cases {
			res, err := db.ExecHinted(tc.sql, tc.hints)
			if err != nil {
				t.Errorf("par %d %s: %v", deg, tc.name, err)
				continue
			}
			if got := resultDigest(res); got != tc.want[di] {
				t.Errorf("par %d %s: digest %#x, want %#x (%d rows)", deg, tc.name, got, tc.want[di], res.NumRows())
			}
		}
		// An ambiguous unqualified column keeps its error wherever it is read.
		for sql, want := range map[string]string{
			`SELECT g FROM a JOIN b ON a.id = b.id`:                        `sqldb: ambiguous column "g"`,
			`SELECT count(*) AS c FROM a JOIN b ON a.id = b.id GROUP BY g`: `sqldb: ambiguous column "g"`,
			`SELECT sum(y * g) AS v FROM a JOIN b ON a.g = b.g`:            `sqldb: ambiguous column "g"`,
			`SELECT a.id FROM a JOIN b ON a.g = b.g ORDER BY id`:           `sqldb: ambiguous column "id"`,
		} {
			if _, err := db.Query(sql); err == nil || err.Error() != want {
				t.Errorf("par %d %s: err %v, want %q", deg, sql, err, want)
			}
		}
	}
}

// TestMemoryBudgetChargesColumnsOnce: a column is charged where it first
// enters the query, so a projection passing a filtered column through, or a
// FROM subquery renaming it, charges nothing more.
func TestMemoryBudgetChargesColumnsOnce(t *testing.T) {
	db := New()
	tbl, err := db.CreateTable("t", Schema{{Name: "a", Type: TInt}, {Name: "b", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := tbl.AppendRow([]Datum{Int(int64(i)), Int(int64(-i))}); err != nil {
			t.Fatal(err)
		}
	}
	// The filter keeps all 10,000 rows of a: 80,000 bytes.
	for _, sql := range []string{
		`SELECT a FROM t WHERE a >= 0`,
		`SELECT s.a FROM (SELECT a FROM t WHERE a >= 0) s`,
	} {
		db.MemoryBudget = 90000
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s under a 90,000-byte budget: %v", sql, err)
		}
		if res.NumRows() != 10000 {
			t.Fatalf("%s: %d rows", sql, res.NumRows())
		}
		db.MemoryBudget = 70000
		if _, err := db.Query(sql); !errors.Is(err, qerr.ErrMemoryBudget) {
			t.Fatalf("%s under a 70,000-byte budget: err %v, want ErrMemoryBudget", sql, err)
		}
	}
}

// TestJoinGroupByAllocationShape runs Q1 as one join + GROUP BY statement:
// the join hands its pairs to the aggregate a block at a time, so the
// statement must allocate less than the join's pair arrays alone would
// (two int32 row indexes per pair).
func TestJoinGroupByAllocationShape(t *testing.T) {
	db := q1Tables(t)
	db.Parallelism = 1
	run := func() {
		res, err := db.Query(q1SQL)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != benchPositions*benchKernels {
			t.Fatalf("groups = %d", res.NumRows())
		}
	}
	run()
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	pairs := uint64(benchPositions * benchOrders * benchKernels * 8)
	if least >= pairs {
		t.Fatalf("Q1 allocated %d bytes, want less than its join's pair arrays (%d)", least, pairs)
	}
	t.Logf("Q1 allocated %d bytes; its join's pair arrays are %d", least, pairs)
}

// TestJoinUnderAggregateActualsAndBudget: a join feeding an aggregate keeps
// its own plan node — its EXPLAIN ANALYZE actuals and its span — and is
// charged for what it keeps alive (the build index and the block buffers),
// not for its pairs: Q1 runs under a 1 MiB budget its 73,728 pairs and
// their gathered group keys (about 1.77 MB) would exceed, and still fails
// cleanly under 64 KiB.
func TestJoinUnderAggregateActualsAndBudget(t *testing.T) {
	db := q1Tables(t)
	res, err := db.Exec("EXPLAIN ANALYZE " + q1SQL)
	if err != nil {
		t.Fatal(err)
	}
	var plan []string
	for i := 0; i < res.NumRows(); i++ {
		plan = append(plan, res.Cols[0].Get(i).String())
	}
	pairs := benchPositions * benchOrders * benchKernels
	if len(plan) < 2 || !strings.HasPrefix(plan[0], "Aggregate ") ||
		!strings.HasPrefix(strings.TrimSpace(plan[1]), "HashJoin ") ||
		!strings.Contains(plan[1], fmt.Sprintf("actual rows=%d calls=1 ", pairs)) {
		t.Fatalf("join under the aggregate lost its actuals:\n%s", strings.Join(plan, "\n"))
	}

	db.Traces = obs.NewTraceStore(obs.TraceStoreConfig{Seed: 1, SlowThreshold: -1, SampleEvery: 1})
	db.EnableSysCatalog()
	if _, err := db.Query(q1SQL); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query(`SELECT s.name AS name, p.name AS parent FROM sys.spans s, sys.spans p WHERE s.trace_id = p.trace_id AND s.parent_id = p.span_id AND s.name = 'HashJoin'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Cols[1].Get(0).String() != "Aggregate" {
		t.Fatalf("want one HashJoin span under the Aggregate span, got %d rows", res.NumRows())
	}
	db.Traces = nil

	for _, deg := range []int{1, 4} {
		db.Parallelism = deg
		db.MemoryBudget = 1 << 20
		res, err := db.Query(q1SQL)
		if err != nil {
			t.Fatalf("par %d: Q1 under a 1 MiB budget: %v", deg, err)
		}
		if res.NumRows() != benchPositions*benchKernels {
			t.Fatalf("par %d: groups = %d", deg, res.NumRows())
		}
		db.MemoryBudget = 64 * 1024
		if _, err := db.Query(q1SQL); !errors.Is(err, qerr.ErrMemoryBudget) {
			t.Fatalf("par %d: Q1 under a 64 KiB budget: err %v, want ErrMemoryBudget", deg, err)
		}
	}
}

// TestJoinUnderAggregateChargesFactorisedWindow: a factorised aggregate
// charges its dense window to the query's memory budget. Each side's GROUP
// BY key spans 61 values, so the window has 61 × 61 slots, 14,884 bytes:
// a 14 KiB budget refuses the query, which everything else it holds would
// fit, and 64 KiB admits it.
func TestJoinUnderAggregateChargesFactorisedWindow(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE a (k Int64, j Int64, v Float64)`)
	mustExec(t, db, `CREATE TABLE b (k Int64, j Int64, w Float64)`)
	mustExec(t, db, `INSERT INTO a VALUES (1, 0, 1.5), (1, 60, 2.5)`)
	mustExec(t, db, `INSERT INTO b VALUES (1, 0, 3.0), (1, 60, 4.0)`)
	const q = `SELECT a.j, b.j, sum(a.v * b.w) AS s FROM a JOIN b ON a.k = b.k GROUP BY a.j, b.j`
	db.MemoryBudget = 64 << 10
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("under a 64 KiB budget: %v", err)
	}
	if res.NumRows() != 4 {
		t.Fatalf("groups = %d, want 4", res.NumRows())
	}
	db.MemoryBudget = 14 << 10
	if _, err := db.Query(q); !errors.Is(err, qerr.ErrMemoryBudget) {
		t.Fatalf("under a 14 KiB budget: err %v, want ErrMemoryBudget", err)
	}
}

// TestPruneDL2SQLJoins checks the columns the pruning pass records for the
// joins of DL2SQL's convolution (Q1), mapping (Q2) and bias statements.
func TestPruneDL2SQLJoins(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE fm (MatrixID Int64, OrderID Int64, Value Float64)`)
	mustExec(t, db, `CREATE TABLE k (KernelID Int64, OrderID Int64, Value Float64)`)
	mustExec(t, db, `CREATE TABLE flat (TupleID Int64, KernelID Int64, Value Float64)`)
	mustExec(t, db, `CREATE TABLE mapping (TupleID Int64, MatrixID Int64, OrderID Int64)`)
	mustExec(t, db, `CREATE TABLE bias (KernelID Int64, Value Float64)`)
	for _, tc := range []struct {
		sql        string
		read, cols int
	}{
		{`SELECT B.KernelID * 4 + A.MatrixID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM fm A INNER JOIN k B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID`, 4, 6},
		{`SELECT B.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value FROM flat A, mapping B WHERE A.TupleID = B.TupleID`, 3, 6},
		{`SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM flat A, bias B WHERE A.KernelID = B.KernelID`, 4, 5},
	} {
		p, err := db.PlanSelect(tc.sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		var j *LJoin
		for j == nil {
			switch n := p.(type) {
			case *LJoin:
				j = n
			case *LAgg:
				p = n.Child
			case *LProject:
				p = n.Child
			default:
				t.Fatalf("%s: no join under %T", tc.sql, p)
			}
		}
		read := 0
		for _, u := range j.used {
			if u {
				read++
			}
		}
		if read != tc.read || len(j.used) != tc.cols {
			t.Errorf("%s: join reads %d of %d columns, want %d of %d", tc.sql, read, len(j.used), tc.read, tc.cols)
		}
	}
}
