package schedule

import (
	"context"
	"testing"
	"time"

	"repro/internal/sqldb"
)

func TestSysSchedulerTable(t *testing.T) {
	db := sqldb.New()
	db.EnableSysCatalog()
	s := New(Config{Window: time.Millisecond})
	defer s.Drain()
	RegisterSysTable(db, s)

	cb := &countingBackend{}
	be := cb.backend()
	for i := 0; i < 3; i++ {
		if _, _, err := inferOne(context.Background(), s, be, 1, []byte("a"), blobN(i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Exec("SELECT submitted, executed, batches, max_batch_knob FROM sys.scheduler")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Fatalf("sys.scheduler rows = %d, want 1", res.NumRows())
	}
	submitted, _ := res.Cols[0].Get(0).AsInt()
	executed, _ := res.Cols[1].Get(0).AsInt()
	batches, _ := res.Cols[2].Get(0).AsInt()
	knob, _ := res.Cols[3].Get(0).AsInt()
	if submitted != 3 || executed != 3 {
		t.Fatalf("submitted=%d executed=%d, want 3/3", submitted, executed)
	}
	if batches < 1 || batches > 3 {
		t.Fatalf("batches=%d", batches)
	}
	if knob != 32 {
		t.Fatalf("max_batch_knob=%d, want default 32", knob)
	}
	// sys.* relations bypass the plan cache; the scan must not be served
	// stale counters through a cached plan.
	db.EnableCache(16)
	exp, err := db.Exec("EXPLAIN SELECT submitted FROM sys.scheduler")
	if err != nil {
		t.Fatal(err)
	}
	if got := exp.Cols[0].Get(0).String(); got != "cache: bypass" {
		t.Fatalf("EXPLAIN first line %q, want %q", got, "cache: bypass")
	}
}
