package strategies

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/colquery"
	"repro/internal/faults"
	"repro/internal/hwprofile"
	"repro/internal/iotdata"
	"repro/internal/modelrepo"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/sqldb"
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

// windowContext is a dataset whose full-quarter window holds 4,200 video
// rows, above the executor's 4,096-row fan-out threshold, so the filter,
// join and aggregate operators that call the nUDFs split into parallel
// morsels at Parallelism > 1.
func windowContext(t *testing.T) *Context {
	t.Helper()
	ds, err := iotdata.Generate(iotdata.Config{Scale: 42, KeyframeSide: 8, Seed: 7, PatternCount: 6})
	if err != nil {
		t.Fatal(err)
	}
	env := NewContext(ds)
	if err := env.BindDefaults(modelrepo.NewRepository(8, 99), 20); err != nil {
		t.Fatal(err)
	}
	return env
}

// windowQuery is a Type 1–4 template over the whole quarter for Types 2–4.
// Type 1 keeps January: its fabric and video sides are cross-joined, and a
// quarter of each would be a 300k-row product.
func windowQuery(t *testing.T, typ colquery.QueryType) *colquery.Query {
	t.Helper()
	p := colquery.TemplateParams{Selectivity: 0.05}
	if typ != colquery.Type1 {
		p.DateLo, p.DateHi = "2020-12-31", "2021-04-01"
	}
	q, err := colquery.GenerateAnalyzed(typ, p)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// resultBits hashes a result's values in row order, floats by their bits.
func resultBits(res *sqldb.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i, n := 0, res.NumRows(); i < n; i++ {
		for _, c := range res.Cols {
			d := c.Get(i)
			b[0] = byte(d.T)
			h.Write(b[:1])
			binary.LittleEndian.PutUint64(b[:], uint64(d.I))
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(d.F))
			h.Write(b[:])
			h.Write([]byte(d.S))
			h.Write(d.B)
		}
	}
	return h.Sum64()
}

// udfAccounting is what one DB-UDF execution reports about its calls.
type udfAccounting struct {
	queriesCalls  int64  // sys.queries.udf_calls of the statement
	forwardPasses int    // the DLCallOverhead(calls) term, in calls
	result        uint64 // resultBits of the answer
}

// TestDBUDFCallAccountingPinned pins DB-UDF's per-call accounting on Types
// 1–4 at Parallelism 1 and 4 to values recorded before nUDF calls were
// batched: physical batching must not change how many calls the engine
// counts, how many forward passes the hardware profile charges dispatch
// overhead for, or any bit of the answer.
func TestDBUDFCallAccountingPinned(t *testing.T) {
	env := windowContext(t)
	// A per-call overhead far above any measured forward pass makes the
	// inference bucket's per-call share exact: floor(Inference / overhead).
	const perCall = 1000.0
	env.Profile.DLPerCallOverheadSec = perCall
	db := env.Dataset.DB
	db.History = obs.NewQueryHistory(16)
	// Recorded with row-at-a-time nUDF calls; the same at both degrees.
	// sys.queries counts every call, an aggregate argument's (Type 2) too.
	want := map[colquery.QueryType]udfAccounting{
		colquery.Type1: {queriesCalls: 1379, forwardPasses: 1379, result: 0x4dfa4cffd1f7979f},
		colquery.Type2: {queriesCalls: 4200, forwardPasses: 4200, result: 0x4a966ebb3513a2a2},
		colquery.Type3: {queriesCalls: 4200, forwardPasses: 4200, result: 0xb804c896d238603d},
		colquery.Type4: {queriesCalls: 4200, forwardPasses: 4200, result: 0x337a1f5eba60992d},
	}
	for _, par := range []int{1, 4} {
		db.Parallelism = par
		for typ := colquery.Type1; typ <= colquery.Type4; typ++ {
			res, bd, err := (&DBUDF{}).Execute(context.Background(), env, windowQuery(t, typ))
			if err != nil {
				t.Fatalf("%v at Parallelism %d: %v", typ, par, err)
			}
			recs := db.History.Snapshot()
			got := udfAccounting{
				queriesCalls:  recs[len(recs)-1].UDFCalls,
				forwardPasses: int(bd.Inference / perCall),
				result:        resultBits(res),
			}
			if got != want[typ] {
				t.Errorf("%v at Parallelism %d: got %+v, want %+v", typ, par, got, want[typ])
			}
		}
	}
}

// TestDBUDFBucketsNonNegativeParallel runs DB-UDF with its nUDF calls spread
// over parallel morsels. The workers' inference intervals overlap, so their
// summed seconds can exceed the statement's wall time; the relational bucket
// must still be what the wall time minus inference leaves, never negative.
func TestDBUDFBucketsNonNegativeParallel(t *testing.T) {
	env := windowContext(t)
	env.Profile = hwprofile.Profile{Name: "host", InferenceSpeedup: 1, RelationalSpeedup: 1, DLModelLoadFactor: 1}
	for _, par := range []int{2, 4} {
		env.Dataset.DB.Parallelism = par
		for typ := colquery.Type1; typ <= colquery.Type4; typ++ {
			_, bd, err := (&DBUDF{}).Execute(context.Background(), env, windowQuery(t, typ))
			if err != nil {
				t.Fatalf("%v at Parallelism %d: %v", typ, par, err)
			}
			if bd.Loading < 0 || bd.Inference < 0 || bd.Relational < 0 {
				t.Errorf("%v at Parallelism %d: negative bucket %+v", typ, par, bd)
			}
		}
	}
}

// TestDBUDFMemoizesDuplicatesWithinBatch doubles every video row, so each
// keyframe reaches the nUDF twice in one batch. With memoization on, the
// second call is answered by the first's forward pass, as a cache hit
// answered it when calls came one row at a time: forward passes are half
// the calls, and the answer is the uncached one.
func TestDBUDFMemoizesDuplicatesWithinBatch(t *testing.T) {
	env := testContext(t)
	db := env.Dataset.DB
	db.History = obs.NewQueryHistory(16)
	if _, err := db.Exec(`INSERT INTO video SELECT * FROM video`); err != nil {
		t.Fatal(err)
	}
	q, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	run := func() (string, int64, int64) {
		acct := &stratAcct{}
		res, _, err := (&DBUDF{}).Execute(withStratAcct(context.Background(), acct), env, q)
		if err != nil {
			t.Fatal(err)
		}
		recs := db.History.Snapshot()
		return resultKey(res), recs[len(recs)-1].UDFCalls, acct.inferCalls.Load()
	}
	want, calls, passes := run()
	if calls == 0 || passes != calls {
		t.Fatalf("uncached: %d calls, %d forward passes", calls, passes)
	}
	env.EnableInferCache(4096)
	got, calls, passes := run()
	if got != want || passes != calls/2 {
		t.Fatalf("cached: %d calls, %d forward passes (want %d); same answer: %v", calls, passes, calls/2, got == want)
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
