package sqldb

import (
	"context"
	"testing"
	"testing/quick"
)

func TestVectorFilterMatchesGeneric(t *testing.T) {
	db := newTestDB(t)
	// Same predicate in vectorizable and non-vectorizable (arith) forms
	// must agree for every operator.
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		fast := mustExec(t, db, `SELECT count(*) c FROM emp WHERE salary `+op+` 80`)
		slow := mustExec(t, db, `SELECT count(*) c FROM emp WHERE salary `+op+` 80 + 0`)
		if fast.Cols[0].Get(0).I != slow.Cols[0].Get(0).I {
			t.Fatalf("op %s: vectorized %v vs generic %v", op, fast.Cols[0].Get(0), slow.Cols[0].Get(0))
		}
	}
}

func TestVectorFilterMirroredLiteral(t *testing.T) {
	db := newTestDB(t)
	a := mustExec(t, db, `SELECT count(*) c FROM emp WHERE 80 < salary`)
	b := mustExec(t, db, `SELECT count(*) c FROM emp WHERE salary > 80`)
	if a.Cols[0].Get(0).I != b.Cols[0].Get(0).I {
		t.Fatalf("mirrored literal: %v vs %v", a.Cols[0].Get(0), b.Cols[0].Get(0))
	}
}

func TestVectorFilterStringAndBool(t *testing.T) {
	db := newTestDB(t)
	r := mustExec(t, db, `SELECT count(*) c FROM emp WHERE dept = 'eng' AND active = TRUE`)
	if r.Cols[0].Get(0).I != 2 {
		t.Fatalf("string+bool vector filter: %v", r.Cols[0].Get(0))
	}
	r = mustExec(t, db, `SELECT count(*) c FROM emp WHERE name >= 'c' AND name < 'e'`)
	if r.Cols[0].Get(0).I != 2 { // carol, dave
		t.Fatalf("string range: %v", r.Cols[0].Get(0))
	}
}

func TestVectorFilterSkipsNulls(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `INSERT INTO emp (id, name) VALUES (9, 'ghost')`)
	r := mustExec(t, db, `SELECT count(*) c FROM emp WHERE salary < 1e9`)
	if r.Cols[0].Get(0).I != 5 {
		t.Fatalf("null row leaked through vector filter: %v", r.Cols[0].Get(0))
	}
}

func TestVectorFilterCombinesWithUDF(t *testing.T) {
	db := newTestDB(t)
	calls := 0
	db.RegisterUDF(&ScalarUDF{
		Name: "probe", Arity: 1,
		Fn: RowUDF(func(_ context.Context, args []Datum) (Datum, error) {
			calls++
			return Bool(true), nil
		}),
		Cost: 1e6,
	})
	r := mustExec(t, db, `SELECT count(*) c FROM emp WHERE probe(id) AND salary > 95`)
	if r.Cols[0].Get(0).I != 1 {
		t.Fatalf("combined filter: %v", r.Cols[0].Get(0))
	}
	if calls != 1 {
		t.Fatalf("UDF must only see rows surviving the vector kernel, called %d times", calls)
	}
}

// Property: for random thresholds, the vectorized float filter agrees with
// a hand-computed count.
func TestVectorFloatFilterProperty(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE v (x Float64)`)
	vals := []float64{-3, -1.5, 0, 0.25, 1, 2.5, 2.5, 9}
	for _, v := range vals {
		mustExec(t, db, `INSERT INTO v VALUES (`+Float(v).String()+`)`)
	}
	f := func(th int8) bool {
		threshold := float64(th) / 4
		want := 0
		for _, v := range vals {
			if v > threshold {
				want++
			}
		}
		res, err := db.Query(`SELECT count(*) c FROM v WHERE x > ` + Float(threshold).String())
		if err != nil {
			return false
		}
		return res.Cols[0].Get(0).I == int64(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
