package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/hwprofile"
	"repro/internal/iotdata"
	"repro/internal/modelrepo"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/server"
	"repro/internal/strategies"
)

// hostProfile makes a CostBreakdown report measured host seconds. The
// default edge profile adds a simulated 12 ms of framework overhead per
// inference call, which would make the buckets exceed the wall time they
// are compared with.
var hostProfile = hwprofile.Profile{Name: "host", InferenceSpeedup: 1, RelationalSpeedup: 1, DLModelLoadFactor: 1}

// The database and the models are the same on every run: like a TPC data
// set, they are the fixed state the seeded operations run against. Drawing
// them from the run's seed as well made the work of a run depend on the
// seed — at these sizes the number of keyframes a window holds differs by a
// fifth between seeds — and no metric repeated within its bound.
const (
	dataSeed  = 42
	modelSeed = 99
)

// fixture is one fully set-up system under test.
type fixture struct {
	sp  spec
	ds  *iotdata.Dataset
	env *strategies.Context

	// Served fixtures only.
	srv     *server.Server
	hs      *httptest.Server
	clients []*server.Client
	points  []*server.Stmt // each session's prepared point lookup
	wire    *countingTransport

	// How long each part of set-up took; total is setup_s.
	generate, build, bind, serve, total time.Duration
}

// newFixture is the set-up a user pays before the first query: generate
// the data, build the model repository, bind the nUDFs and, when served,
// start the server, connect every session and prepare its statement.
func newFixture(ctx context.Context, sp spec) (*fixture, error) {
	f := &fixture{sp: sp}
	start := time.Now()
	ds, err := iotdata.Generate(iotdata.Config{Scale: sp.Scale, KeyframeSide: sp.Side, Seed: dataSeed, PatternCount: 6})
	if err != nil {
		return nil, fmt.Errorf("generating dataset: %w", err)
	}
	f.ds = ds
	f.generate = time.Since(start)

	t := time.Now()
	repo := modelrepo.NewRepository(sp.Side, modelSeed)
	f.build = time.Since(t)

	t = time.Now()
	db := ds.DB
	db.Metrics = obs.NewRegistry()
	db.History = obs.NewQueryHistory(512)
	if sp.PlanCache > 0 {
		db.EnableCache(sp.PlanCache)
	}
	if sp.Served {
		// Tracing is always on behind sqlserved; keep its defaults.
		db.Traces = obs.NewTraceStore(obs.TraceStoreConfig{Seed: dataSeed, Metrics: db.Metrics})
	}
	db.EnableSysCatalog()
	env := strategies.NewContext(ds)
	env.Profile = hostProfile
	if err := env.BindDefaults(repo, 20); err != nil {
		return nil, fmt.Errorf("binding models: %w", err)
	}
	env.Metrics, env.History, env.Traces = db.Metrics, db.History, db.Traces
	if sp.InferCache {
		env.EnableInferCache(inferCacheCapacity(env))
	}
	if sp.Scheduler {
		schedule.RegisterSysTable(db, env.EnableScheduler(schedule.Config{}))
	}
	if sp.Served {
		env.Breaker = &strategies.Breaker{}
	}
	env.AttachObservability(db)
	f.env = env
	f.bind = time.Since(t)

	if sp.Served {
		t = time.Now()
		if err := f.startServer(ctx); err != nil {
			f.close()
			return nil, err
		}
		f.serve = time.Since(t)
	}
	f.total = time.Since(start)
	return f, nil
}

// inferCacheCapacity is half the distinct (model, keyframe) pairs the
// workload's windows touch: the windows cover the whole quarter, so every
// video row, once per distinct bound model.
func inferCacheCapacity(env *strategies.Context) int {
	models := map[*modelrepo.Entry]bool{}
	for _, b := range env.Bindings {
		models[b.Entry] = true
	}
	return env.Dataset.DB.GetTable("video").NumRows() * len(models) / 2
}

func (f *fixture) startServer(ctx context.Context) error {
	f.srv = server.New(f.ds.DB, f.env, server.Config{})
	f.hs = httptest.NewServer(f.srv.Handler())
	f.wire = &countingTransport{next: f.hs.Client().Transport}
	hc := &http.Client{Transport: f.wire}
	for s := 0; s < f.sp.Sessions; s++ {
		cli := server.Dial(f.hs.URL).WithHTTPClient(hc)
		if err := cli.Connect(ctx, fmt.Sprintf("tenant-%d", s)); err != nil {
			return fmt.Errorf("connecting session %d: %w", s, err)
		}
		f.clients = append(f.clients, cli)
		st, err := cli.Prepare(ctx, pointSQL)
		if err != nil {
			return fmt.Errorf("preparing point lookup: %w", err)
		}
		f.points = append(f.points, st)
	}
	return nil
}

// close stops everything the fixture started and waits for it.
func (f *fixture) close() {
	for _, c := range f.clients {
		_ = c.Close(context.Background()) // the server is going away with its sessions
	}
	if f.srv != nil {
		f.srv.Drain() // also drains the scheduler
	} else if f.env != nil && f.env.Scheduler != nil {
		f.env.Scheduler.Drain()
	}
	if f.hs != nil {
		f.hs.Close()
	}
}

// countingTransport counts the bytes of every request and response body.
type countingTransport struct {
	next  http.RoundTripper
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.ContentLength > 0 {
		t.bytes.Add(r.ContentLength)
	}
	resp, err := t.next.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
