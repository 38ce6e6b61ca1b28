// Command sqlserved runs the serving front end: one process hosting the
// embedded engine behind the HTTP/JSON API in internal/server, so many
// clients (sqlsh -connect, server.Client, curl) share one database, one
// statement/plan cache, and one admission controller.
//
// Usage:
//
//	sqlserved -addr :7878                        # empty database
//	sqlserved -iot -scale 5 -models              # IoT dataset + model bindings
//	sqlserved -load snap.db -cache 256           # snapshot + stmt/plan cache
//	sqlserved -max-concurrent 8 -max-queue 64    # admission sizing
//
// SIGINT/SIGTERM triggers a graceful drain: stop admitting, reject the
// queue, give in-flight queries -drain-grace to finish, cancel stragglers
// through their lifecycle contexts, flush the slow log, exit. The /metrics
// and /debug/pprof endpoints are mounted on the same listener.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/iotdata"
	"repro/internal/modelrepo"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sqldb"
	"repro/internal/strategies"
)

func main() {
	var (
		addr  = flag.String("addr", ":7878", "listen address")
		iot   = flag.Bool("iot", false, "start with the synthetic IoT dataset")
		scale = flag.Int("scale", 2, "IoT dataset scale unit")
		side  = flag.Int("side", 8, "IoT keyframe resolution")
		load  = flag.String("load", "", "restore a snapshot file")
		model = flag.Bool("models", false, "bind the default nUDF models (enables /v1/colquery; needs -iot)")

		cacheN   = flag.Int("cache", 128, "statement/plan cache entries per LRU (0 = off)")
		parallel = flag.Int("parallel", 0, "executor worker degree (0 = NumCPU)")

		maxConc    = flag.Int("max-concurrent", 8, "global execution slots")
		maxQueue   = flag.Int("max-queue", 64, "admission queue depth before fail-fast rejection")
		tenantConc = flag.Int("tenant-concurrent", 0, "per-tenant in-flight cap (0 = max-concurrent)")
		memBudget  = flag.Int64("mem-budget", 0, "default per-tenant per-query byte budget (0 = DB knob only)")

		drainGrace  = flag.Duration("drain-grace", 5*time.Second, "drain: wait this long before cancelling in-flight queries")
		sessionIdle = flag.Duration("session-idle", 15*time.Minute, "evict sessions idle this long (0 = never)")
		slowLog     = flag.String("slowlog", "", "append slow-query JSON records to this file")
		slowThresh  = flag.Duration("slow-threshold", 100*time.Millisecond, "slow-query threshold")

		traceMax    = flag.Int("trace-max", 256, "retained traces in the tail-sampled store")
		traceSlow   = flag.Duration("trace-slow", 250*time.Millisecond, "retain every trace at least this slow (negative = off)")
		traceSample = flag.Int("trace-sample", 64, "retain 1 in N normal traces (1 = all, negative = none)")
	)
	flag.Parse()

	var db *sqldb.DB
	var ds *iotdata.Dataset
	switch {
	case *load != "":
		var err error
		db, err = sqldb.LoadFile(*load)
		if err != nil {
			fatalf("loading %s: %v", *load, err)
		}
		fmt.Printf("restored %d tables from %s\n", len(db.TableNames()), *load)
	case *iot:
		var err error
		ds, err = iotdata.Generate(iotdata.Config{Scale: *scale, KeyframeSide: *side, Seed: 42, PatternCount: 6})
		if err != nil {
			fatalf("generating dataset: %v", err)
		}
		db = ds.DB
		fmt.Printf("generated IoT dataset (scale %d)\n", *scale)
	default:
		db = sqldb.New()
	}

	db.Parallelism = *parallel
	if *cacheN > 0 {
		db.EnableCache(*cacheN)
	}
	if db.Metrics == nil {
		db.Metrics = obs.NewRegistry()
	}
	db.History = obs.NewQueryHistory(512)
	db.History.SetSlowThreshold(*slowThresh)
	db.Traces = obs.NewTraceStore(obs.TraceStoreConfig{
		MaxTraces:     *traceMax,
		SlowThreshold: *traceSlow,
		SampleEvery:   *traceSample,
		Metrics:       db.Metrics,
	})
	db.EnableSysCatalog()

	var flushSlow func()
	if *slowLog != "" {
		f, err := os.OpenFile(*slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatalf("opening slow log: %v", err)
		}
		bw := bufio.NewWriter(f)
		db.History.SetSlowLog(bw)
		flushSlow = func() {
			bw.Flush()
			f.Close()
		}
	}

	// The inference surface needs a dataset plus bound models; without
	// -models the server still serves plain SQL.
	var env *strategies.Context
	if *model {
		if ds == nil {
			fatalf("-models requires -iot (the bindings calibrate against the dataset)")
		}
		env = strategies.NewContext(ds)
		repo := modelrepo.NewRepository(8, 99)
		if err := env.BindDefaults(repo, 20); err != nil {
			fatalf("binding models: %v", err)
		}
		env.Metrics = db.Metrics
		env.History = db.History
		env.Traces = db.Traces
		env.Breaker = &strategies.Breaker{}
		env.AttachObservability(db)
		fmt.Printf("bound %d nUDF models\n", len(env.Bindings))
	}

	srv := server.New(db, env, server.Config{
		Admission: server.AdmissionConfig{
			MaxConcurrent:    *maxConc,
			MaxQueue:         *maxQueue,
			TenantConcurrent: *tenantConc,
		},
		TenantMemoryDefault: *memBudget,
		SessionIdleTimeout:  *sessionIdle,
		DrainGrace:          *drainGrace,
	})
	if flushSlow != nil {
		srv.OnDrain(flushSlow)
	}

	hs := srv.HTTPServer(*addr)
	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("draining...")
		srv.Drain()
		hs.Close()
		close(done)
	}()

	fmt.Printf("sqlserved listening on %s\n", *addr)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatalf("%v", err)
	}
	<-done
	fmt.Println("drained; bye")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sqlserved: "+format+"\n", args...)
	os.Exit(1)
}
