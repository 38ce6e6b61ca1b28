package bench

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/colquery"
	"repro/internal/server"
	"repro/internal/sqldb"
	"repro/internal/strategies"
)

// TestServerConcurrentColQueries sends collaborative queries from several
// sessions at once: every template (Types 1–4) under every strategy, with
// the fallback ladder off and on. Served colqueries run concurrently, so
// each answer must still be bit-identical to the same strategy run alone
// embedded, and no request may degrade or fail.
func TestServerConcurrentColQueries(t *testing.T) {
	env, ds, srv, _ := serverFixture(t)
	ds.DB.Parallelism = 1

	type job struct {
		typ      colquery.QueryType
		q        *colquery.Query
		strategy string
		fallback bool
		want     *sqldb.Result
	}
	var jobs []job
	for _, typ := range []colquery.QueryType{colquery.Type1, colquery.Type2, colquery.Type3, colquery.Type4} {
		q, err := colquery.GenerateAnalyzed(typ, colquery.TemplateParams{Selectivity: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range strategies.All() {
			want, _, err := s.Execute(context.Background(), env, q)
			if err != nil {
				t.Fatalf("embedded %s on %v: %v", s.Name(), typ, err)
			}
			for _, fallback := range []bool{false, true} {
				jobs = append(jobs, job{typ: typ, q: q, strategy: s.Name(), fallback: fallback, want: want})
			}
		}
	}

	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	const sessions = 2
	var wg sync.WaitGroup
	errs := make(chan error, sessions*len(jobs))
	for si := 0; si < sessions; si++ {
		cli := server.Dial(hs.URL).WithHTTPClient(hs.Client())
		if err := cli.Connect(context.Background(), fmt.Sprintf("conc%d", si)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close(context.Background()) })
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			// Each session walks the jobs from its own offset, so different
			// strategies and templates overlap on the server.
			for k := range jobs {
				j := jobs[(k+si*len(jobs)/sessions)%len(jobs)]
				got, err := cli.ColQuery(context.Background(), j.q.SQL, j.strategy, j.fallback)
				switch {
				case err != nil:
					errs <- fmt.Errorf("%s on %v (fallback=%v): %w", j.strategy, j.typ, j.fallback, err)
				case got.Strategy != j.strategy || len(got.FallbackPath) != 0:
					errs <- fmt.Errorf("%s on %v (fallback=%v): answered by %s via %v", j.strategy, j.typ, j.fallback, got.Strategy, got.FallbackPath)
				case !resultsBitIdentical(j.want, got.Result):
					errs <- fmt.Errorf("%s on %v (fallback=%v): served result is not bit-identical to embedded", j.strategy, j.typ, j.fallback)
				}
			}
		}(si)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
