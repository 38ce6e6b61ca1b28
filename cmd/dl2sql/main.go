// Command dl2sql is an interactive driver for collaborative queries: it
// generates the synthetic IoT dataset, binds the model repository's nUDFs,
// and executes a query (or one of the Table I templates) under a chosen
// strategy, printing the result and the loading/inference/relational cost
// breakdown.
//
// Usage:
//
//	dl2sql -type 3 -strategy dl2sql-op            # run a Type 3 template
//	dl2sql -query "SELECT ... nUDF_detect(...)"   # run arbitrary SQL
//	dl2sql -type 4 -strategy all -profile server-gpu
//	dl2sql -type 1 -strategy all -trace run.json  # Chrome trace of each phase
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/colquery"
	"repro/internal/hwprofile"
	"repro/internal/iotdata"
	"repro/internal/modelrepo"
	"repro/internal/obs"
	"repro/internal/sqldb"
	"repro/internal/strategies"
)

func main() {
	var (
		queryType = flag.Int("type", 3, "query template type 1-4 (ignored when -query is set)")
		query     = flag.String("query", "", "explicit collaborative SQL to run")
		strat     = flag.String("strategy", "dl2sql-op", "dl2sql | dl2sql-op | db-udf | db-pytorch | all")
		profile   = flag.String("profile", "edge-cpu", "edge-cpu | server-cpu | server-gpu")
		scale     = flag.Int("scale", 2, "dataset scale unit")
		side      = flag.Int("side", 8, "keyframe resolution")
		sel       = flag.Float64("sel", 0.05, "template relational selectivity")
		maxRows   = flag.Int("maxrows", 10, "result rows to print")
		explain   = flag.Bool("explain", false, "also print the analyzed query type and nUDF usages")
		trace     = flag.String("trace", "", "write a Chrome trace_event JSON of every strategy execution to this file")
		parallel  = flag.Int("parallel", 0, "executor worker degree (0 = NumCPU default, 1 = serial)")
	)
	flag.Parse()

	ds, err := iotdata.Generate(iotdata.Config{Scale: *scale, KeyframeSide: *side, Seed: 42, PatternCount: 6})
	if err != nil {
		fatalf("generating dataset: %v", err)
	}
	ds.DB.Parallelism = *parallel
	ctx := strategies.NewContext(ds)
	repo := modelrepo.NewRepository(*side, 42)
	if err := ctx.BindDefaults(repo, 30); err != nil {
		fatalf("binding models: %v", err)
	}
	prof, ok := hwprofile.ByName(*profile)
	if !ok {
		fatalf("unknown profile %q", *profile)
	}
	ctx.Profile = prof
	// -trace runs every strategy under one keep-all trace rooted at a
	// "dl2sql" span; the strategy:* spans are its children. Without it the
	// store is nil and Enter/Exit no-op.
	var traces *obs.TraceStore
	if *trace != "" {
		traces = obs.NewTraceStore(obs.TraceStoreConfig{SampleEvery: 1, MaxSpansPerTrace: 1 << 20})
	}
	runCtx, scope := traces.Enter(context.Background(), "dl2sql", "dl2sql", time.Now())

	sql := *query
	if sql == "" {
		sql, err = colquery.Generate(colquery.QueryType(*queryType), colquery.TemplateParams{Selectivity: *sel})
		if err != nil {
			fatalf("generating template: %v", err)
		}
	}
	q, err := colquery.Analyze(sql)
	if err != nil {
		fatalf("analyzing query: %v", err)
	}

	fmt.Printf("query (%s, %s difficulty):\n  %s\n\n", q.Type, q.Type.Difficulty(), sql)
	if *explain {
		for _, u := range q.UDFs {
			loc := "where"
			if u.InSelect {
				loc = "select"
			}
			if u.InJoin {
				loc = "join"
			}
			fmt.Printf("  nUDF %s(%s) in %s clause\n", u.Name, u.Arg, loc)
		}
		fmt.Println()
	}

	var strats []strategies.Strategy
	switch strings.ToLower(*strat) {
	case "dl2sql":
		strats = []strategies.Strategy{&strategies.DL2SQL{}}
	case "dl2sql-op":
		strats = []strategies.Strategy{&strategies.DL2SQL{Optimized: true}}
	case "db-udf":
		strats = []strategies.Strategy{&strategies.DBUDF{}}
	case "db-pytorch":
		strats = []strategies.Strategy{&strategies.DBPyTorch{}}
	case "all":
		strats = strategies.All()
	default:
		fatalf("unknown strategy %q", *strat)
	}

	for _, s := range strats {
		res, bd, err := s.Execute(runCtx, ctx, q)
		if err != nil {
			fatalf("%s: %v", s.Name(), err)
		}
		fmt.Printf("== %s on %s ==\n", s.Name(), prof.Name)
		fmt.Printf("loading %.4fs  inference %.4fs  relational %.4fs  total %.4fs\n",
			bd.Loading, bd.Inference, bd.Relational, bd.Total())
		printResult(res, *maxRows)
		fmt.Println()
	}

	if *trace != "" {
		scope.Exit(time.Now(), "")
		var buf bytes.Buffer
		spans, err := traces.WriteChromeTrace(&buf)
		if err == nil {
			err = os.WriteFile(*trace, buf.Bytes(), 0o644)
		}
		if err != nil {
			fatalf("writing trace: %v", err)
		}
		fmt.Printf("wrote %d spans to %s (load in chrome://tracing or ui.perfetto.dev)\n", spans, *trace)
	}
}

func printResult(res *sqldb.Result, maxRows int) {
	if res == nil {
		fmt.Println("(no result)")
		return
	}
	names := make([]string, len(res.Schema))
	for i, c := range res.Schema {
		names[i] = c.Name
	}
	fmt.Printf("%d rows: %s\n", res.NumRows(), strings.Join(names, " | "))
	n := res.NumRows()
	if n > maxRows {
		n = maxRows
	}
	for i := 0; i < n; i++ {
		cells := make([]string, len(res.Cols))
		for j, c := range res.Cols {
			cells[j] = c.Get(i).String()
		}
		fmt.Println("  " + strings.Join(cells, " | "))
	}
	if res.NumRows() > maxRows {
		fmt.Printf("  ... (%d more)\n", res.NumRows()-maxRows)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dl2sql: "+format+"\n", args...)
	os.Exit(1)
}
