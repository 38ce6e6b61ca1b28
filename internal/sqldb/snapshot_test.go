package sqldb

import (
	"bytes"
	"path/filepath"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE VIEW engs AS SELECT id, name FROM emp WHERE dept = 'eng'`)
	blob := NewColumn(TBlob)
	tbl, err := db.CreateTable("media", Schema{{Name: "id", Type: TInt}, {Name: "data", Type: TBlob}})
	if err != nil {
		t.Fatal(err)
	}
	_ = blob
	if err := tbl.AppendRow([]Datum{Int(1), Blob([]byte{9, 8, 7})}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `INSERT INTO emp (id, name) VALUES (42, 'nullish')`) // NULL columns

	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := New()
	if err := db2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	// Same data.
	a := mustExec(t, db, `SELECT count(*) c, sum(salary) s FROM emp`)
	b := mustExec(t, db2, `SELECT count(*) c, sum(salary) s FROM emp`)
	if a.Cols[0].Get(0).I != b.Cols[0].Get(0).I || a.Cols[1].Get(0).F != b.Cols[1].Get(0).F {
		t.Fatalf("restored emp differs: %v vs %v", a.GetRow(0), b.GetRow(0))
	}
	// NULLs preserved.
	r := mustExec(t, db2, `SELECT count(*) c FROM emp WHERE salary IS NULL`)
	if r.Cols[0].Get(0).I != 1 {
		t.Fatalf("restored NULLs: %v", r.Cols[0].Get(0))
	}
	// Blobs preserved.
	r = mustExec(t, db2, `SELECT length(data) n FROM media`)
	if r.Cols[0].Get(0).I != 3 {
		t.Fatalf("restored blob: %v", r.Cols[0].Get(0))
	}
	// Views preserved and functional.
	r = mustExec(t, db2, `SELECT count(*) c FROM engs`)
	if r.Cols[0].Get(0).I != 2 {
		t.Fatalf("restored view: %v", r.Cols[0].Get(0))
	}
}

func TestRestoreRequiresEmptyDB(t *testing.T) {
	db := newTestDB(t)
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := db.Restore(&buf); err == nil {
		t.Fatal("restore into non-empty DB must fail")
	}
}

func TestRestoreBadMagic(t *testing.T) {
	db := New()
	if err := db.Restore(bytes.NewReader([]byte("NOTASNAP"))); err == nil {
		t.Fatal("bad magic must fail")
	}
}

func TestRestoreTruncated(t *testing.T) {
	db := newTestDB(t)
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	half := buf.Bytes()[:buf.Len()/2]
	db2 := New()
	if err := db2.Restore(bytes.NewReader(half)); err == nil {
		t.Fatal("truncated snapshot must fail")
	}
}

func TestSaveLoadFile(t *testing.T) {
	db := newTestDB(t)
	path := filepath.Join(t.TempDir(), "snap.db")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	db2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := mustExec(t, db2, `SELECT count(*) c FROM emp`)
	if r.Cols[0].Get(0).I != 5 {
		t.Fatalf("loaded rows: %v", r.Cols[0].Get(0))
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.db")); err == nil {
		t.Fatal("missing file must fail")
	}
}

func TestExplainStatement(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `EXPLAIN SELECT name FROM emp WHERE salary > 50 ORDER BY name`)
	if res.NumRows() < 2 {
		t.Fatalf("explain rows = %d", res.NumRows())
	}
	joined := ""
	for i := 0; i < res.NumRows(); i++ {
		joined += res.Cols[0].Get(i).S + "\n"
	}
	for _, want := range []string{"Scan emp", "Sort", "Project"} {
		if !containsSub(joined, want) {
			t.Fatalf("explain missing %q:\n%s", want, joined)
		}
	}
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
