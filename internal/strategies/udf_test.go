package strategies

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/colquery"
	"repro/internal/faults"
	"repro/internal/qerr"
)

// udfRunOutcome is what one DB-UDF execution reports: its answer, its
// forward passes (the strategy accounting on its context), and the
// per-call share of its inference bucket.
type udfRunOutcome struct {
	key   string
	calls int64
	share int
}

// TestDBUDFConcurrentExecutions runs DB-UDF from several goroutines on one
// Context. The bound nUDFs are one shared catalog entry, so every run must
// see its own models and accounting through its statement context: same
// answer as a serial run, and the same forward-pass count and per-call
// inference charge, not a neighbour's.
func TestDBUDFConcurrentExecutions(t *testing.T) {
	env := testContext(t)
	// A per-call overhead far above any measured forward pass makes the
	// inference bucket's per-call share exact: floor(Inference / overhead).
	const perCall = 1000.0
	env.Profile.DLPerCallOverheadSec = perCall
	types := []colquery.QueryType{colquery.Type1, colquery.Type2, colquery.Type3, colquery.Type4}
	queries := make([]*colquery.Query, len(types))
	for i, typ := range types {
		q, err := colquery.GenerateAnalyzed(typ, colquery.TemplateParams{Selectivity: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}
	run := func(q *colquery.Query) (udfRunOutcome, error) {
		acct := &stratAcct{}
		res, bd, err := (&DBUDF{}).Execute(withStratAcct(context.Background(), acct), env, q)
		if err != nil {
			return udfRunOutcome{}, err
		}
		return udfRunOutcome{key: resultKey(res), calls: acct.inferCalls.Load(), share: int(bd.Inference / perCall)}, nil
	}
	want := make([]udfRunOutcome, len(queries))
	for i, q := range queries {
		out, err := run(q)
		if err != nil {
			t.Fatalf("serial %v: %v", types[i], err)
		}
		if out.calls == 0 || int64(out.share) != out.calls {
			t.Fatalf("serial %v: %d forward passes, inference share %d calls", types[i], out.calls, out.share)
		}
		want[i] = out
	}

	// A stall at every morsel boundary keeps all the runs in flight at
	// once, so each statement compiles and calls its nUDFs while the other
	// runs are mid-statement on the same catalog entries.
	env.Dataset.DB.Faults = faults.New(1, faults.Rule{Point: faults.PointMorselDelay, Delay: time.Millisecond})
	const goroutines, perGoroutine = 6, 4
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, goroutines*perGoroutine)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perGoroutine; i++ {
				qi := (g + i) % len(queries)
				got, err := run(queries[qi])
				switch {
				case err != nil:
					errs <- err
				case got.key != want[qi].key:
					errs <- errors.New(types[qi].String() + ": result differs from the serial run")
				case got != want[qi]:
					errs <- errors.New(types[qi].String() + ": accounting differs from the serial run")
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBoundNUDFOutsideDBUDF calls a bound nUDF from plain SQL. The UDF is
// in the catalog but has no models outside a DB-UDF execution, so the
// statement fails with a typed error instead of "unknown function" or a
// recovered panic.
func TestBoundNUDFOutsideDBUDF(t *testing.T) {
	env := testContext(t)
	_, err := env.Dataset.DB.Query(`SELECT nUDF_detect(keyframe) AS d FROM video LIMIT 1`)
	if !errors.Is(err, errNoUDFRun) {
		t.Fatalf("err = %v, want errNoUDFRun", err)
	}
	if strings.Contains(err.Error(), "unknown function") || errors.Is(err, qerr.ErrInternal) {
		t.Fatalf("err = %v, want a typed nUDF error", err)
	}
}
