package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/colquery"
	"repro/internal/faults"
	"repro/internal/iotdata"
	"repro/internal/modelrepo"
	"repro/internal/qerr"
	"repro/internal/strategies"
)

// chaosEnv builds a fresh dataset + strategy context for fault testing.
// Each matrix cell gets its own fixture because injectors are stateful and
// the DB-side injector hangs off the shared database handle.
func chaosEnv(t *testing.T) (*strategies.Context, *iotdata.Dataset) {
	t.Helper()
	ds, err := iotdata.Generate(iotdata.Config{Scale: 2, KeyframeSide: 8, Seed: 7, PatternCount: 6})
	if err != nil {
		t.Fatal(err)
	}
	env := strategies.NewContext(ds)
	repo := modelrepo.NewRepository(8, 99)
	if err := env.BindDefaults(repo, 20); err != nil {
		t.Fatal(err)
	}
	return env, ds
}

// TestChaosFaultMatrix is the chaos differential suite: every fault class
// crossed with every strategy. The contract under injection is
// result-or-typed-error — a run must either produce exactly the no-fault
// baseline result or fail with a qerr lifecycle error. Wrong results,
// panics, and deadlocks (enforced by the test binary's timeout) are all
// failures. Fault classes that only perturb timing (slow morsels) or that
// a strategy never crosses (serving faults under DL2SQL) must leave the
// result identical to the baseline.
func TestChaosFaultMatrix(t *testing.T) {
	env, ds := chaosEnv(t)
	// Keep retries fast and make hangs interruptible: a hung serving call
	// is cut off by the per-attempt timeout, not by the 1h hang default.
	// The timeout is generous because healthy serving takes tens of
	// milliseconds under -race; a hung attempt still resolves in ~2s.
	env.Retry = strategies.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond,
		MaxDelay: 4 * time.Millisecond, AttemptTimeout: 2 * time.Second, JitterSeed: 3}

	q, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}

	// No-fault baselines per strategy (the strategies already agree with
	// each other per the differential harness; computing one baseline per
	// strategy keeps this test independent of that property).
	baseline := map[string]string{}
	for _, s := range strategies.All() {
		res, _, err := s.Execute(context.Background(), env, q)
		if err != nil {
			t.Fatalf("baseline %s: %v", s.Name(), err)
		}
		baseline[s.Name()] = diffCanonKey(res)
	}

	classes := []struct {
		name string
		spec string
	}{
		{"serving error", "serving.error:p=1"},
		{"serving error intermittent", "serving.error:every=2;seed=5"},
		{"serving hang", "serving.hang:p=1"},
		{"serving partial response", "serving.partial:p=1"},
		{"udf decode failure", "udf.decode:p=1"},
		{"dl2sql translate failure", "dl2sql.translate:p=1"},
		{"slow morsels", "morsel.delay:d=200us,every=7"},
		{"memory pressure", "mem.pressure:bytes=32768"},
		{"combined flaky", "serving.error:p=0.5;udf.decode:p=0.3;morsel.delay:d=100us,every=11;seed=9"},
	}

	for _, c := range classes {
		for _, s := range strategies.All() {
			inj, err := faults.Parse(c.spec)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			env.Faults = inj
			ds.DB.Faults = inj
			res, _, err := s.Execute(context.Background(), env, q)
			env.Faults = nil
			ds.DB.Faults = nil
			label := fmt.Sprintf("%s under %q", s.Name(), c.name)
			if err != nil {
				if !qerr.Lifecycle(err) {
					t.Errorf("%s: untyped error %v", label, err)
				}
				continue
			}
			if got := diffCanonKey(res); got != baseline[s.Name()] {
				t.Errorf("%s: wrong result under fault injection", label)
			}
		}
	}
}

// TestChaosFallbackLadderEndToEnd forces a dead serving pipe and checks
// that ExecuteWithFallback still answers the query correctly by degrading
// DB-PyTorch → DB-UDF, with the path visible in the breakdown and metrics.
func TestChaosFallbackLadderEndToEnd(t *testing.T) {
	env, ds := chaosEnv(t)
	env.Retry = strategies.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, JitterSeed: 3}
	q, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := (&strategies.DBUDF{}).Execute(context.Background(), env, q)
	if err != nil {
		t.Fatal(err)
	}

	env.Faults = faults.New(1, faults.Rule{Point: faults.PointServingError})
	ds.DB.Faults = env.Faults
	res, bd, err := strategies.ExecuteWithFallback(context.Background(), env, &strategies.DBPyTorch{}, q)
	if err != nil {
		t.Fatalf("fallback execution failed: %v", err)
	}
	if diffCanonKey(res) != diffCanonKey(want) {
		t.Fatal("fallback result differs from direct DB-UDF result")
	}
	if len(bd.FallbackPath) != 2 || bd.FallbackPath[0] != "DB-PyTorch" || bd.FallbackPath[1] != "DB-UDF" {
		t.Fatalf("FallbackPath = %v, want [DB-PyTorch DB-UDF]", bd.FallbackPath)
	}
}

// TestDeadlineFuzzSmoke sprays randomized tiny deadlines over the
// collaborative query template corpus at parallelism 2. Every run must end
// in a correct result or a typed lifecycle error within the deadline's
// order of magnitude, and the worker pool must not leak goroutines. CI runs
// it as a smoke step: it hunts deadline races at arbitrary points in the
// query lifecycle rather than at hand-picked ones.
func TestDeadlineFuzzSmoke(t *testing.T) {
	env, ds := chaosEnv(t)
	ds.DB.Parallelism = 2
	env.Retry = strategies.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, JitterSeed: 3}
	rng := rand.New(rand.NewSource(11))
	types := []colquery.QueryType{colquery.Type1, colquery.Type2, colquery.Type3, colquery.Type4}

	before := runtime.NumGoroutine()
	runs := 24
	if testing.Short() {
		runs = 8
	}
	for i := 0; i < runs; i++ {
		typ := types[i%len(types)]
		q, err := colquery.GenerateAnalyzed(typ, colquery.TemplateParams{Selectivity: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		s := strategies.All()[rng.Intn(4)]
		// 50µs–51ms: from "expires before the first morsel" up to "expires
		// somewhere inside inference".
		d := time.Duration(50+rng.Intn(51000)) * time.Microsecond
		ctx, cancel := context.WithTimeout(context.Background(), d)
		res, _, err := s.Execute(ctx, env, q)
		cancel()
		if err == nil {
			if res == nil {
				t.Fatalf("run %d (%s, %v, d=%v): nil result without error", i, s.Name(), typ, d)
			}
			continue
		}
		if !qerr.Lifecycle(err) {
			t.Fatalf("run %d (%s, %v, d=%v): untyped error %v", i, s.Name(), typ, d, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutine leak after deadline fuzz: %d before, %d after", before, g)
	}
}
