package sqldb

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCSVExportImportRoundTrip(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT id, name, dept, salary, active FROM emp ORDER BY id`)
	var buf bytes.Buffer
	if err := ExportCSV(res, &buf); err != nil {
		t.Fatal(err)
	}
	db2 := New()
	mustExec(t, db2, `CREATE TABLE emp (id Int64, name String, dept String, salary Float64, active Bool)`)
	n, err := db2.ImportCSV("emp", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("imported %d rows", n)
	}
	a := mustExec(t, db, `SELECT sum(salary) s, count(*) c FROM emp WHERE active = TRUE`)
	b := mustExec(t, db2, `SELECT sum(salary) s, count(*) c FROM emp WHERE active = TRUE`)
	if a.Cols[0].Get(0).F != b.Cols[0].Get(0).F || a.Cols[1].Get(0).I != b.Cols[1].Get(0).I {
		t.Fatalf("round trip differs: %v vs %v", a.GetRow(0), b.GetRow(0))
	}
}

func TestCSVImportNulls(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a Int64, b String)`)
	n, err := db.ImportCSV("t", strings.NewReader("a,b\n1,x\n,y\n3,\n"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("rows = %d", n)
	}
	r := mustExec(t, db, `SELECT count(*) c FROM t WHERE a IS NULL`)
	if r.Cols[0].Get(0).I != 1 {
		t.Fatalf("null ints: %v", r.Cols[0].Get(0))
	}
	r = mustExec(t, db, `SELECT count(*) c FROM t WHERE b IS NULL`)
	if r.Cols[0].Get(0).I != 1 {
		t.Fatalf("null strings: %v", r.Cols[0].Get(0))
	}
}

func TestCSVImportErrors(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.ImportCSV("nosuch", strings.NewReader("a\n1\n")); err == nil {
		t.Fatal("missing table must fail")
	}
	if _, err := db.ImportCSV("emp", strings.NewReader("nocol\n1\n")); err == nil {
		t.Fatal("unknown column must fail")
	}
	if _, err := db.ImportCSV("emp", strings.NewReader("id\nnotanumber\n")); err == nil {
		t.Fatal("bad integer must fail")
	}
	mustExec(t, db, `CREATE TABLE m (b Blob)`)
	if _, err := db.ImportCSV("m", strings.NewReader("b\nxx\n")); err == nil {
		t.Fatal("blob column must be rejected")
	}
}

func TestCSVBoolParsing(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (f Bool)`)
	n, err := db.ImportCSV("t", strings.NewReader("f\ntrue\n0\nYES\nf\n"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("rows = %d", n)
	}
	r := mustExec(t, db, `SELECT count(*) c FROM t WHERE f = TRUE`)
	if r.Cols[0].Get(0).I != 2 {
		t.Fatalf("bool parsing: %v", r.Cols[0].Get(0))
	}
}

// Concurrent read queries against a shared database must be safe.
func TestConcurrentQueries(t *testing.T) {
	db := newTestDB(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := db.Query(`SELECT dept, count(*) c FROM emp GROUP BY dept`)
				if err != nil {
					errs <- err
					return
				}
				if res.NumRows() != 3 {
					errs <- nil
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent query failed: %v", err)
	}
}

// Concurrent appends during reads must be safe (snapshot-isolated scans).
func TestConcurrentAppendAndQuery(t *testing.T) {
	db := newTestDB(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		tbl := db.GetTable("emp")
		for i := 0; i < 300; i++ {
			_ = tbl.AppendRow([]Datum{Int(int64(1000 + i)), Str("w"), Str("ops"), Float(1), Bool(true)})
		}
		close(stop)
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := db.Query(`SELECT count(*) c, sum(salary) s FROM emp WHERE salary > 0`)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Cols[0].Get(0).I < 5 {
					t.Error("snapshot lost base rows")
					return
				}
			}
		}()
	}
	wg.Wait()
}
