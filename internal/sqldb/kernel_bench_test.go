package sqldb

import (
	"testing"
)

// Per-operator microbenchmarks of the typed hash kernels, sized like one
// DL2SQL convolution of the side-16 student model (conv2: 16 output
// positions × 144 receptive-field elements against 32 kernels).

const (
	benchPositions = 16
	benchOrders    = 144
	benchKernels   = 32
)

// q1Tables loads the FeatureMap {MatrixID, OrderID, Value} and Kernel
// {KernelID, OrderID, Value} tables of one Q1.
func q1Tables(b testing.TB) *DB { return q1TablesSpread(b, 1) }

// sparseSpread multiplies every ID of the sparse benchmark variants: it
// spreads the keys far wider than a dense key table's window may grow, so
// those variants run the hashed addressing.
const sparseSpread = 1000003

// q1TablesSpread is q1Tables with every ID multiplied by spread.
func q1TablesSpread(b testing.TB, spread int64) *DB {
	b.Helper()
	db := New()
	fm, err := db.CreateTable("fm", Schema{{Name: "MatrixID", Type: TInt}, {Name: "OrderID", Type: TInt}, {Name: "Value", Type: TFloat}})
	if err != nil {
		b.Fatal(err)
	}
	for m := 0; m < benchPositions; m++ {
		for o := 0; o < benchOrders; o++ {
			if err := fm.AppendRow([]Datum{Int(int64(m) * spread), Int(int64(o) * spread), Float(float64(m*o%7) - 3)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	k, err := db.CreateTable("k", Schema{{Name: "KernelID", Type: TInt}, {Name: "OrderID", Type: TInt}, {Name: "Value", Type: TFloat}})
	if err != nil {
		b.Fatal(err)
	}
	for c := 0; c < benchKernels; c++ {
		for o := 0; o < benchOrders; o++ {
			if err := k.AppendRow([]Datum{Int(int64(c) * spread), Int(int64(o) * spread), Float(float64(c+o%5) / 10)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	return db
}

// keySpreads runs a benchmark's body over the dense IDs DL2SQL writes and
// over the same IDs spread past the dense window.
func keySpreads(b *testing.B, body func(b *testing.B, db *DB)) {
	for _, v := range []struct {
		name   string
		spread int64
	}{{"dense", 1}, {"sparse", sparseSpread}} {
		b.Run(v.name, func(b *testing.B) { body(b, q1TablesSpread(b, v.spread)) })
	}
}

// BenchmarkHashJoin is Q1's FeatureMap ⋈ Kernel on the Int OrderID key.
func BenchmarkHashJoin(b *testing.B) {
	keySpreads(b, func(b *testing.B, db *DB) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := db.Query(`SELECT A.MatrixID, B.KernelID, A.Value, B.Value FROM fm A INNER JOIN k B ON A.OrderID = B.OrderID`)
			if err != nil {
				b.Fatal(err)
			}
			if res.NumRows() != benchPositions*benchOrders*benchKernels {
				b.Fatalf("join rows = %d", res.NumRows())
			}
		}
	})
}

// q1SQL is one whole DL2SQL convolution, as the translator renders it: the
// FeatureMap ⋈ Kernel join and the GROUP BY summing its products.
const q1SQL = `SELECT B.KernelID * 144 + A.MatrixID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM fm A INNER JOIN k B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID`

// BenchmarkJoinGroupBy is Q1 as one statement: the aggregate reads the
// join's match pairs.
func BenchmarkJoinGroupBy(b *testing.B) {
	keySpreads(b, func(b *testing.B, db *DB) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := db.Query(q1SQL)
			if err != nil {
				b.Fatal(err)
			}
			if res.NumRows() != benchPositions*benchKernels {
				b.Fatalf("groups = %d", res.NumRows())
			}
		}
	})
}

// BenchmarkGroupBySum is Q1's aggregation: two Int keys, SUM of a Float
// product, over the join's output.
func BenchmarkGroupBySum(b *testing.B) {
	keySpreads(b, func(b *testing.B, db *DB) {
		if _, err := db.Exec(`CREATE TABLE j AS SELECT A.MatrixID AS MatrixID, B.KernelID AS KernelID, A.Value AS a, B.Value AS b FROM fm A INNER JOIN k B ON A.OrderID = B.OrderID`); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := db.Query(`SELECT KernelID, MatrixID, SUM(a * b) AS Value FROM j GROUP BY KernelID, MatrixID`)
			if err != nil {
				b.Fatal(err)
			}
			if res.NumRows() != benchPositions*benchKernels {
				b.Fatalf("groups = %d", res.NumRows())
			}
		}
	})
}

// BenchmarkPreJoinedGroupBy is Q1 over its pairs stored pre-multiplied and
// in group order, as DL2SQL's pre-joined input stores them: the GROUP BY
// reads a run of rows with equal keys at a time.
func BenchmarkPreJoinedGroupBy(b *testing.B) {
	keySpreads(b, func(b *testing.B, db *DB) {
		if _, err := db.Exec(`CREATE TABLE pj AS SELECT B.KernelID AS KernelID, A.MatrixID AS MatrixID, A.Value * B.Value AS Value FROM fm A INNER JOIN k B ON A.OrderID = B.OrderID ORDER BY KernelID, MatrixID`); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := db.Query(`SELECT KernelID * 144 + MatrixID AS TupleID, KernelID AS KernelID, SUM(Value) AS Value FROM pj GROUP BY KernelID, MatrixID`)
			if err != nil {
				b.Fatal(err)
			}
			if res.NumRows() != benchPositions*benchKernels {
				b.Fatalf("groups = %d", res.NumRows())
			}
		}
	})
}

// BenchmarkCreateTableAs materializes a query result into a new table (the
// DL2SQL pipeline's per-step CREATE TEMP TABLE … AS SELECT).
func BenchmarkCreateTableAs(b *testing.B) {
	db := q1Tables(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`CREATE TEMP TABLE c AS SELECT KernelID * 144 + OrderID AS TupleID, KernelID, Value FROM k`); err != nil {
			b.Fatal(err)
		}
		db.DropTable("c")
	}
}

// stepSQL is a DL2SQL convolution step under the pre-join mapping: the
// mapping join re-indexing the flat input runs as a derived table, joined
// with the kernel into a GROUP BY summing the products.
const stepSQL = `CREATE TEMP TABLE out AS SELECT K.KernelID * 16 + X.MatrixID AS TupleID, K.KernelID AS KernelID, SUM(X.Value * K.Value) AS Value FROM (SELECT B.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value FROM x A, map B WHERE A.TupleID = B.TupleID) X INNER JOIN k K ON X.OrderID = K.OrderID GROUP BY K.KernelID, X.MatrixID`

// BenchmarkPreparedStepReexec re-executes one prepared DL2SQL step over an
// input table dropped and re-created before every run, as each inference
// re-creates its temp tables: the step's kept plan serves every run.
func BenchmarkPreparedStepReexec(b *testing.B) {
	db := q1Tables(b)
	const inputs = 256
	m, err := db.CreateTable("map", Schema{{Name: "TupleID", Type: TInt}, {Name: "MatrixID", Type: TInt}, {Name: "OrderID", Type: TInt}})
	if err != nil {
		b.Fatal(err)
	}
	for p := 0; p < benchPositions; p++ {
		for o := 0; o < benchOrders; o++ {
			if err := m.AppendRow([]Datum{Int(int64((p*7 + o) % inputs)), Int(int64(p)), Int(int64(o))}); err != nil {
				b.Fatal(err)
			}
		}
	}
	xSchema := Schema{{Name: "TupleID", Type: TInt}, {Name: "Value", Type: TFloat}}
	ids, vals := NewColumn(TInt), NewColumn(TFloat)
	for i := 0; i < inputs; i++ {
		if err := ids.Append(Int(int64(i))); err != nil {
			b.Fatal(err)
		}
		if err := vals.Append(Float(float64(i%11) - 5)); err != nil {
			b.Fatal(err)
		}
	}
	step, err := db.Prepare(stepSQL)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.DropTable("x")
		x, err := db.CreateTable("x", xSchema)
		if err != nil {
			b.Fatal(err)
		}
		if err := x.AppendColumns([]*Column{ids, vals}); err != nil {
			b.Fatal(err)
		}
		if _, err := step.Exec(); err != nil {
			b.Fatal(err)
		}
		if n := db.GetTable("out").NumRows(); n != benchPositions*benchKernels {
			b.Fatalf("groups = %d", n)
		}
		db.DropTable("out")
	}
}
