package sqldb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
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

// TestCaseChooseMatchesGeneral holds CASE's one-pass form (one WHEN, THEN
// and ELSE column references or literals) to the general form, which runs
// each part on the rows that reach it: same vector kind, column type, NULL
// mask and value bits, over a dense range, a row list and no rows. The
// columns hold -0, NaN, ±Inf, a subnormal and NULLs; the conditions are
// TRUE, FALSE and NULL at random.
func TestCaseChooseMatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	floats := []float64{-1.5, 2, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), -3e-320}
	in := &Result{}
	add := func(name string, typ Type, value func() Datum) {
		c := NewColumn(typ)
		for r := 0; r < 300; r++ {
			if err := c.Append(value()); err != nil {
				t.Fatal(err)
			}
		}
		in.Schema, in.Cols = append(in.Schema, OutCol{Table: "cv", Name: name, Type: typ}), append(in.Cols, c)
	}
	float := func() Datum { return Float(floats[rng.Intn(len(floats))]) }
	orNull := func(value func() Datum) func() Datum {
		return func() Datum {
			if rng.Intn(4) == 0 {
				return Null()
			}
			return value()
		}
	}
	small := func() Datum { return Int(int64(rng.Intn(9) - 4)) }
	boolean := func() Datum { return Bool(rng.Intn(2) == 0) }
	add("f", TFloat, float)
	add("g", TFloat, float)
	add("fn", TFloat, orNull(float))
	add("i", TInt, small)
	add("j", TInt, small)
	add("s", TString, func() Datum { return Str(fmt.Sprint("s", rng.Intn(3))) })
	add("b", TBool, boolean)
	add("bn", TBool, orNull(boolean))
	// UPDATE ... SET bu = NULL marks a row NULL and leaves its old value.
	add("bu", TBool, func() Datum { return Bool(true) })
	for r := 0; r < 300; r += 3 {
		if err := setColumnValue(in.Cols[len(in.Cols)-1], r, Null()); err != nil {
			t.Fatal(err)
		}
	}
	db := New()
	idx := make([]int, 0, in.NumRows())
	for r := 0; r < in.NumRows(); r += 1 + r%3 {
		idx = append(idx, r)
	}
	for _, expr := range []string{
		"CASE WHEN f < 0 THEN 0.0 ELSE f END", // DL2SQL's ReLU
		"CASE WHEN f < 0 THEN g ELSE f END",
		"CASE WHEN b THEN g ELSE f END",
		"CASE WHEN bn THEN g ELSE f END", // a NULL WHEN takes ELSE
		"CASE WHEN bu THEN g ELSE f END",
		"CASE WHEN b AND bn THEN g ELSE f END",
		"CASE WHEN b OR bn THEN g ELSE f END",
		"CASE WHEN fn < g THEN g ELSE f END",
		"CASE WHEN i > j THEN i ELSE j END",
		"CASE WHEN i > 0 THEN 7 ELSE i END",
		"CASE WHEN f < 0 THEN fn ELSE g END", // NULLs in THEN
		"CASE WHEN f < 0 THEN 1 ELSE f END",  // Int and Float values mix
		"CASE WHEN i > 0 THEN 1.5 ELSE i END",
		"CASE WHEN b THEN f END", // no ELSE: NULL
		"CASE WHEN b THEN NULL ELSE NULL END",
		"CASE WHEN i THEN s ELSE 'x' END", // an Int WHEN; String values
		"CASE WHEN f THEN b ELSE bn END",
		"CASE WHEN i > 100 THEN f ELSE NULL END", // every value NULL
	} {
		stmt, err := Parse("SELECT " + expr + " FROM cv")
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		x, err := db.compileVec(nil, stmt.(*SelectStmt).Items[0].Expr, in.Schema)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		k := x.k.(*caseNode)
		if k.pick == nil {
			t.Fatalf("%s: not compiled to the one-pass form", expr)
		}
		for _, s := range []sel{{lo: 7, hi: in.NumRows()}, {idx: idx}, {}} {
			got, err := k.eval(in, s)
			if err != nil {
				t.Fatalf("%s: %v", expr, err)
			}
			general := *k
			general.pick = nil
			want, err := general.eval(in, s)
			if err != nil {
				t.Fatalf("%s general: %v", expr, err)
			}
			if err := sameVec(got, want); err != nil {
				t.Fatalf("%s over %d rows: %v", expr, s.len(), err)
			}
		}
	}
}

// sameVec reports how got differs from want: in kind (typed column or
// datums), column type, NULL mask presence, length, or any value's bits.
func sameVec(got, want vec) error {
	if (got.col == nil) != (want.col == nil) {
		return fmt.Errorf("typed column %v, want %v", got.col != nil, want.col != nil)
	}
	if got.col != nil {
		if got.col.Type != want.col.Type || (got.col.Nulls == nil) != (want.col.Nulls == nil) {
			return fmt.Errorf("column %s (NULL mask %v), want %s (NULL mask %v)",
				got.col.Type, got.col.Nulls != nil, want.col.Type, want.col.Nulls != nil)
		}
	}
	if got.len() != want.len() {
		return fmt.Errorf("%d values, want %d", got.len(), want.len())
	}
	for i := 0; i < got.len(); i++ {
		if g, w := got.get(i), want.get(i); g.T != w.T || !sameDatum(g, w) {
			return fmt.Errorf("value %d: %v (%s), want %v (%s)", i, g, g.T, w, w.T)
		}
	}
	return nil
}
