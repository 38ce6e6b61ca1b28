package sqldb_test

import (
	"context"
	"fmt"

	"repro/internal/sqldb"
)

// The engine executes standard SQL against in-memory columnar tables.
func Example() {
	db := sqldb.New()
	_, err := db.Exec(`
		CREATE TABLE sensor (device Int64, temp Float64);
		INSERT INTO sensor VALUES (1, 21.5), (1, 22.5), (2, 30.0);
	`)
	if err != nil {
		panic(err)
	}
	res, err := db.Query(`SELECT device, avg(temp) AS t FROM sensor GROUP BY device ORDER BY device`)
	if err != nil {
		panic(err)
	}
	for i := 0; i < res.NumRows(); i++ {
		fmt.Printf("device %s: %s\n", res.Cols[0].Get(i), res.Cols[1].Get(i))
	}
	// Output:
	// device 1: 22
	// device 2: 30
}

// Scalar UDFs extend the engine — the paper's nUDF mechanism.
func ExampleDB_RegisterUDF() {
	db := sqldb.New()
	if _, err := db.Exec(`CREATE TABLE t (x Int64); INSERT INTO t VALUES (1), (2), (3)`); err != nil {
		panic(err)
	}
	db.RegisterUDF(&sqldb.ScalarUDF{
		Name:  "square",
		Arity: 1,
		Fn: sqldb.RowUDF(func(_ context.Context, args []sqldb.Datum) (sqldb.Datum, error) {
			v, _ := args[0].AsInt()
			return sqldb.Int(v * v), nil
		}),
	})
	res, err := db.Query(`SELECT sum(square(x)) AS s FROM t`)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Cols[0].Get(0))
	// Output: 14
}

// EXPLAIN returns the optimized plan as rows.
func ExampleDB_Exec_explain() {
	db := sqldb.New()
	if _, err := db.Exec(`CREATE TABLE t (x Int64)`); err != nil {
		panic(err)
	}
	res, err := db.Exec(`EXPLAIN SELECT x FROM t WHERE x > 1`)
	if err != nil {
		panic(err)
	}
	for i := 0; i < res.NumRows(); i++ {
		fmt.Println(res.Cols[0].Get(i))
	}
	// Output:
	// Project 1 items
	//   Scan t as t (est 1 rows) filters=1: [(x > 1)]
}
