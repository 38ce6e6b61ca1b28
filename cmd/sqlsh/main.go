// Command sqlsh is an interactive SQL shell for the embedded engine. It can
// start from an empty database, the synthetic IoT dataset, or a snapshot
// file, and supports the engine's full dialect plus EXPLAIN / EXPLAIN
// ANALYZE and a few shell meta-commands:
//
//	\d              list tables and views
//	\d NAME         describe a table
//	\profile        span self time per operator (sys.spans grouped by name)
//	\profile reset  start a fresh trace store (so does \trace PATH)
//	\parallel N     set the executor's worker degree (0 = NumCPU, 1 = serial)
//	\cache N        enable the statement/plan cache (N entries per LRU)
//	\cache stats    show cache hit/miss/eviction counters; \cache off disables
//	\timing on|off  print each query's wall time
//	\timeout DUR    per-query deadline (e.g. 500ms, 2s); \timeout off clears
//	\faults SPEC    install a fault injector (see internal/faults spec
//	                grammar, e.g. "morsel.delay:d=5ms;seed=1"); \faults stats
//	                shows fire counts, \faults off removes it
//	\trace PATH     start tracing; \trace off writes Chrome trace JSON to PATH
//	\sys            list the sys.* system tables with descriptions (they are
//	                ordinary relations: SELECT * FROM sys.queries works, and
//	                Ctrl-C cancels a sys.* scan like any other query)
//	\slowlog        show queries over the slow threshold; \slowlog DUR sets it
//	\save PATH      snapshot the database to a file
//	\q              quit (flushes an active trace first)
//
// Ctrl-C cancels the in-flight query (which returns a typed "query
// cancelled" error) instead of killing the shell.
//
// Usage:
//
//	sqlsh                      # empty database
//	sqlsh -iot -scale 5        # synthetic IoT dataset
//	sqlsh -load snap.db        # restore a snapshot
//	echo "SELECT 1 AS x;" | sqlsh
//
// With -connect the shell talks to a running sqlserved instead of an
// embedded database; sessions, admission control, and the statement/plan
// cache live server-side, and server state is queryable through the sys.*
// tables (SELECT * FROM sys.sessions):
//
//	sqlsh -connect http://127.0.0.1:7878 -tenant analytics
//
// In connect mode \timeout and \parallel set the server-side session
// variables; Ctrl-C cancels the in-flight request (the server observes the
// disconnect and cancels the query at the next morsel boundary). \trace
// works against the server's tail-sampled trace store: each response's
// trace ID (when the sampler retained it) is echoed after the query, and
// \trace off fetches the last retained trace from /v1/traces/{id} as
// Chrome trace JSON.
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/iotdata"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/server"
	"repro/internal/sqldb"
)

// shell is the embedded-mode state shared between queries and meta-commands.
type shell struct {
	db        *sqldb.DB
	timing    bool
	traceFile string        // destination for the active trace; "" when off
	timeout   time.Duration // per-query deadline; 0 = none
}

func main() {
	var (
		iot     = flag.Bool("iot", false, "start with the synthetic IoT dataset")
		scale   = flag.Int("scale", 2, "IoT dataset scale unit")
		side    = flag.Int("side", 8, "IoT keyframe resolution")
		load    = flag.String("load", "", "restore a snapshot file")
		connect = flag.String("connect", "", "connect to a sqlserved base URL instead of embedding a database")
		tenant  = flag.String("tenant", "", "tenant label for -connect (server default when empty)")
	)
	flag.Parse()

	if *connect != "" {
		runClientShell(*connect, *tenant)
		return
	}

	var db *sqldb.DB
	switch {
	case *load != "":
		var err error
		db, err = sqldb.LoadFile(*load)
		if err != nil {
			fatalf("loading %s: %v", *load, err)
		}
		fmt.Printf("restored %d tables from %s\n", len(db.TableNames()), *load)
	case *iot:
		ds, err := iotdata.Generate(iotdata.Config{Scale: *scale, KeyframeSide: *side, Seed: 42, PatternCount: 6})
		if err != nil {
			fatalf("generating dataset: %v", err)
		}
		db = ds.DB
		fmt.Printf("generated IoT dataset (scale %d)\n", *scale)
	default:
		db = sqldb.New()
	}
	db.Traces = obs.NewTraceStore(keepAll)
	// Self-observability: every statement leaves a record in the query
	// history ring, and the sys.* catalog exposes engine state to SQL
	// (\sys lists the tables; try SELECT * FROM sys.queries).
	if db.Metrics == nil {
		db.Metrics = obs.NewRegistry()
	}
	db.History = obs.NewQueryHistory(256)
	db.History.SetSlowThreshold(100 * time.Millisecond)
	db.EnableSysCatalog()
	sh := &shell{db: db}
	repl(sh.meta, sh.run, sh.flushTrace)
}

// repl is the loop both modes share. It reads statements from stdin: a
// statement ends at a line ending in ';', and one left without ';' runs at
// EOF. A line starting with '\' between statements goes to meta, which
// may run statements through exec and returns false to quit. Each
// statement runs through run under a context that Ctrl-C cancels; at an
// idle prompt Ctrl-C is swallowed with a hint, so it never kills the
// shell. finish runs on quit and at EOF.
func repl(meta func(cmd string, exec func(sql string)) bool, run func(ctx context.Context, sql string), finish func()) {
	var (
		mu       sync.Mutex
		inflight context.CancelFunc // cancels the running statement; nil when idle
	)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		for range sig {
			mu.Lock()
			c := inflight
			mu.Unlock()
			if c == nil {
				fmt.Println("^C (use \\q to quit)")
				continue
			}
			c()
		}
	}()
	exec := func(sql string) {
		if strings.TrimSpace(sql) == "" {
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		mu.Lock()
		inflight = cancel
		mu.Unlock()
		run(ctx, sql)
		mu.Lock()
		inflight = nil
		mu.Unlock()
		cancel()
	}

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	interactive := isTerminal()
	prompt := func(p string) {
		if interactive {
			fmt.Print(p)
		}
	}
	var pending strings.Builder
	prompt("sqlsh> ")
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if pending.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if !meta(trimmed, exec) {
				finish()
				return
			}
			prompt("sqlsh> ")
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		if !strings.HasSuffix(trimmed, ";") {
			prompt("   ..> ")
			continue
		}
		exec(pending.String())
		pending.Reset()
		prompt("sqlsh> ")
	}
	exec(pending.String())
	finish()
}

// meta handles shell meta-commands; it returns false to quit.
func (sh *shell) meta(cmd string, exec func(sql string)) bool {
	db := sh.db
	fields := strings.Fields(cmd)
	switch fields[0] {
	case `\q`, `\quit`:
		return false
	case `\d`:
		if len(fields) == 1 {
			names := db.TableNames()
			sort.Strings(names)
			for _, n := range names {
				t := db.GetTable(n)
				fmt.Printf("%-20s %d rows\n", n, t.NumRows())
			}
			return true
		}
		t := db.GetTable(fields[1])
		if t == nil {
			fmt.Printf("no table %q\n", fields[1])
			return true
		}
		for _, c := range t.Schema {
			fmt.Printf("  %-20s %s\n", c.Name, c.Type)
		}
		return true
	case `\profile`:
		if len(fields) == 2 && fields[1] == "reset" {
			db.Traces = obs.NewTraceStore(keepAll)
			fmt.Println("profile reset")
			return true
		}
		// Leaves out statement spans and statements reading sys.spans.
		exec(`SELECT name, count(*) AS calls, sum(self_ms) AS self_ms FROM sys.spans
WHERE name <> 'query' AND trace_id NOT IN (SELECT trace_id FROM sys.spans WHERE name = 'SysScan sys.spans')
GROUP BY name ORDER BY self_ms DESC;`)
		return true
	case `\parallel`:
		if len(fields) == 1 {
			deg := db.Parallelism
			if deg == 0 {
				fmt.Printf("parallelism: default (%d workers)\n", par.DefaultDegree())
			} else {
				fmt.Printf("parallelism: %d\n", deg)
			}
			return true
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			fmt.Println("usage: \\parallel N   (0 = NumCPU default, 1 = serial)")
			return true
		}
		db.Parallelism = n
		switch n {
		case 0:
			fmt.Printf("parallelism reset to default (%d workers)\n", par.DefaultDegree())
		case 1:
			fmt.Println("parallelism 1 (serial)")
		default:
			fmt.Printf("parallelism %d\n", n)
		}
		return true
	case `\cache`:
		if len(fields) == 1 || fields[1] == "stats" {
			if !db.CacheEnabled() {
				fmt.Println("cache: disabled (enable with \\cache N)")
				return true
			}
			fmt.Println(db.CacheStats().String())
			return true
		}
		if fields[1] == "off" {
			db.EnableCache(0)
			fmt.Println("cache disabled")
			return true
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			fmt.Println("usage: \\cache N | \\cache stats | \\cache off")
			return true
		}
		db.EnableCache(n)
		if n == 0 {
			fmt.Println("cache disabled")
		} else {
			fmt.Printf("statement/plan cache enabled (%d entries per LRU)\n", n)
		}
		return true
	case `\sys`:
		for _, st := range db.SysTables() {
			fmt.Printf("%-18s %s\n", st.Name, st.Description)
		}
		return true
	case `\slowlog`:
		if len(fields) == 2 {
			d, err := time.ParseDuration(fields[1])
			if err != nil || d <= 0 {
				fmt.Println("usage: \\slowlog [DUR]   (e.g. \\slowlog 250ms; no argument lists slow queries)")
				return true
			}
			db.History.SetSlowThreshold(d)
			fmt.Printf("slow-query threshold %s\n", d)
			return true
		}
		slow := db.History.SlowSnapshot()
		if len(slow) == 0 {
			fmt.Printf("no queries over %s yet\n", db.History.SlowThreshold())
			return true
		}
		for _, r := range slow {
			errNote := ""
			if r.ErrClass != "" {
				errNote = "  [" + r.ErrClass + "]"
			}
			fmt.Printf("%8.1fms  %6d rows  %s%s\n",
				float64(r.Wall)/1e6, r.RowsOut, r.SQL, errNote)
		}
		return true
	case `\timing`:
		switch {
		case len(fields) == 1:
			sh.timing = !sh.timing
		case fields[1] == "on":
			sh.timing = true
		case fields[1] == "off":
			sh.timing = false
		default:
			fmt.Println("usage: \\timing [on|off]")
			return true
		}
		fmt.Printf("timing %s\n", onOff(sh.timing))
		return true
	case `\timeout`:
		switch {
		case len(fields) == 1:
			if sh.timeout == 0 {
				fmt.Println("timeout: off")
			} else {
				fmt.Printf("timeout: %s\n", sh.timeout)
			}
		case fields[1] == "off" || fields[1] == "0":
			sh.timeout = 0
			fmt.Println("timeout off")
		default:
			d, err := time.ParseDuration(fields[1])
			if err != nil || d <= 0 {
				fmt.Println("usage: \\timeout DURATION | \\timeout off   (e.g. \\timeout 500ms)")
				return true
			}
			sh.timeout = d
			fmt.Printf("timeout %s\n", d)
		}
		return true
	case `\faults`:
		switch {
		case len(fields) == 1 || fields[1] == "stats":
			if db.Faults == nil {
				fmt.Println("faults: off (install with \\faults SPEC)")
			} else {
				fmt.Println(db.Faults.String())
			}
		case fields[1] == "off":
			db.Faults = nil
			fmt.Println("faults off")
		default:
			inj, err := faults.Parse(strings.Join(fields[1:], " "))
			if err != nil {
				fmt.Printf("bad fault spec: %v\n", err)
				fmt.Println(`usage: \faults point[:p=P,every=N,after=N,count=N,d=DUR,bytes=B][;...][;seed=S]`)
				return true
			}
			db.Faults = inj
			fmt.Printf("faults installed: %s\n", inj.String())
		}
		return true
	case `\trace`:
		if len(fields) != 2 {
			fmt.Println("usage: \\trace PATH | \\trace off")
			return true
		}
		if fields[1] == "off" {
			if sh.traceFile == "" {
				fmt.Println("tracing is not active")
				return true
			}
			sh.flushTrace()
			return true
		}
		sh.traceFile = fields[1]
		db.Traces = obs.NewTraceStore(keepAll) // the file holds the statements from here on
		fmt.Printf("tracing to %s (\\trace off to write)\n", sh.traceFile)
		return true
	case `\save`:
		if len(fields) != 2 {
			fmt.Println("usage: \\save PATH")
			return true
		}
		if err := db.SaveFile(fields[1]); err != nil {
			fmt.Printf("save failed: %v\n", err)
		} else {
			fmt.Printf("saved to %s\n", fields[1])
		}
		return true
	}
	fmt.Printf("unknown meta-command %s\n", fields[0])
	return true
}

// keepAll configures the shell's one trace store, which retains every
// statement's span tree for \profile, \trace and sys.spans.
var keepAll = obs.TraceStoreConfig{SampleEvery: 1, MaxTraces: 1 << 16, MaxSpansPerTrace: 1 << 20}

// flushTrace writes the traces retained since \trace PATH (if tracing is
// active) as Chrome trace_event JSON.
func (sh *shell) flushTrace() {
	if sh.traceFile == "" {
		return
	}
	var buf bytes.Buffer
	spans, err := sh.db.Traces.WriteChromeTrace(&buf)
	if err != nil {
		fmt.Printf("trace write failed: %v\n", err)
	} else {
		writeTraceFile(sh.traceFile, buf.Bytes(), fmt.Sprintf("%d spans", spans))
	}
	sh.traceFile = ""
}

// writeTraceFile is the one \trace flush path, shared by the embedded
// shell (the whole keep-all store) and the -connect shell (one trace
// fetched from the server).
func writeTraceFile(path string, chromeJSON []byte, what string) {
	if err := os.WriteFile(path, chromeJSON, 0o644); err != nil {
		fmt.Printf("trace write failed: %v\n", err)
		return
	}
	fmt.Printf("wrote %s to %s (load in chrome://tracing or ui.perfetto.dev)\n", what, path)
}

func (sh *shell) run(ctx context.Context, sql string) {
	if sh.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, sh.timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := sh.db.ExecContext(ctx, sql)
	show(res, err, time.Since(start), sh.timing)
}

// show prints a statement's result or error, then its wall time when
// \timing is on.
func show(res *sqldb.Result, err error, elapsed time.Duration, timing bool) {
	if err != nil {
		fmt.Printf("error: %v\n", err)
		return
	}
	printResult(res)
	if timing {
		fmt.Printf("Time: %s\n", elapsed.Round(time.Microsecond))
	}
}

// printResult renders a result relation ("ok" for statements without one).
func printResult(res *sqldb.Result) {
	if res == nil {
		fmt.Println("ok")
		return
	}
	header := make([]string, len(res.Schema))
	for i, c := range res.Schema {
		header[i] = c.Name
	}
	fmt.Println(strings.Join(header, " | "))
	n := res.NumRows()
	const maxRows = 200
	for i := 0; i < n && i < maxRows; i++ {
		cells := make([]string, len(res.Cols))
		for j, c := range res.Cols {
			cells[j] = c.Get(i).String()
		}
		fmt.Println(strings.Join(cells, " | "))
	}
	if n > maxRows {
		fmt.Printf("... (%d more rows)\n", n-maxRows)
	}
	fmt.Printf("(%d rows)\n", n)
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// isTerminal reports whether stdin looks interactive (best effort without
// importing syscall-specific packages).
func isTerminal() bool {
	fi, err := os.Stdin.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sqlsh: "+format+"\n", args...)
	os.Exit(1)
}

// ---- -connect mode: the shell as a sqlserved client ----

// cshell is the connected-mode state.
type cshell struct {
	cli    *server.Client
	timing bool
	// traceFile is the destination for the last retained server-side
	// trace ("" when \trace is off); lastShown dedups the per-query
	// trace-ID echo.
	traceFile string
	lastShown string
}

func runClientShell(base, tenant string) {
	cli := server.Dial(base)
	ctx, cancelConnect := context.WithTimeout(context.Background(), 5*time.Second)
	err := cli.Connect(ctx, tenant)
	cancelConnect()
	if err != nil {
		fatalf("connecting to %s: %v", base, err)
	}
	fmt.Printf("connected to %s (session %s, tenant %s)\n", base, cli.Session(), cli.Tenant())
	sh := &cshell{cli: cli}
	repl(sh.meta, sh.run, sh.close)
}

func (sh *cshell) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	sh.cli.Close(ctx)
}

// meta handles connected-mode meta-commands; \timeout and \parallel set
// server-side session variables. Engine-state commands point at the sys.*
// tables, which work through the server like any other relation.
func (sh *cshell) meta(cmd string, _ func(sql string)) bool {
	fields := strings.Fields(cmd)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	switch fields[0] {
	case `\q`, `\quit`:
		return false
	case `\timing`:
		switch {
		case len(fields) == 1:
			sh.timing = !sh.timing
		case fields[1] == "on":
			sh.timing = true
		case fields[1] == "off":
			sh.timing = false
		default:
			fmt.Println("usage: \\timing [on|off]")
			return true
		}
		fmt.Printf("timing %s\n", onOff(sh.timing))
		return true
	case `\timeout`:
		if len(fields) != 2 {
			fmt.Println("usage: \\timeout DURATION | \\timeout off")
			return true
		}
		d := time.Duration(0)
		if fields[1] != "off" && fields[1] != "0" {
			var err error
			d, err = time.ParseDuration(fields[1])
			if err != nil || d <= 0 {
				fmt.Println("usage: \\timeout DURATION | \\timeout off   (e.g. \\timeout 500ms)")
				return true
			}
		}
		if err := sh.cli.SetTimeout(ctx, d); err != nil {
			fmt.Printf("error: %v\n", err)
			return true
		}
		if d == 0 {
			fmt.Println("timeout off")
		} else {
			fmt.Printf("timeout %s (server-side)\n", d)
		}
		return true
	case `\parallel`:
		if len(fields) != 2 {
			fmt.Println("usage: \\parallel N   (0 = server default)")
			return true
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			fmt.Println("usage: \\parallel N   (0 = server default)")
			return true
		}
		if err := sh.cli.SetParallelism(ctx, n); err != nil {
			fmt.Printf("error: %v\n", err)
			return true
		}
		fmt.Printf("parallelism %d (server-side)\n", n)
		return true
	case `\sys`:
		fmt.Println("server state is in the sys.* tables, e.g.:")
		fmt.Println("  SELECT * FROM sys.sessions;")
		fmt.Println("  SELECT * FROM sys.admission;")
		fmt.Println("  SELECT sql, wall_ms FROM sys.queries ORDER BY wall_ms DESC;")
		fmt.Println("  SELECT * FROM sys.spans WHERE trace_id = '...';")
		return true
	case `\trace`:
		if len(fields) != 2 {
			fmt.Println("usage: \\trace PATH | \\trace off")
			return true
		}
		if fields[1] == "off" {
			if sh.traceFile == "" {
				fmt.Println("tracing is not active")
				return true
			}
			sh.flushTrace(ctx)
			return true
		}
		sh.traceFile = fields[1]
		fmt.Printf("tracing to %s: retained trace IDs are echoed after each query; \\trace off fetches the last one\n", sh.traceFile)
		return true
	}
	fmt.Printf("meta-command %s is not available in -connect mode\n", fields[0])
	return true
}

func (sh *cshell) run(ctx context.Context, sql string) {
	start := time.Now()
	res, err := sh.cli.Query(ctx, sql)
	show(res, err, time.Since(start), sh.timing)
	if err == nil && sh.traceFile != "" {
		if id := sh.cli.LastTraceID(); id != "" && id != sh.lastShown {
			fmt.Printf("trace: %s\n", id)
			sh.lastShown = id
		}
	}
}

// flushTrace fetches the last retained server-side trace from
// /v1/traces/{id} and writes it as Chrome trace_event JSON.
func (sh *cshell) flushTrace(ctx context.Context) {
	defer func() { sh.traceFile = "" }()
	id := sh.cli.LastTraceID()
	if id == "" {
		fmt.Println("no retained trace yet (the tail sampler kept none of this session's requests)")
		return
	}
	raw, err := sh.cli.TraceJSON(ctx, id)
	if err != nil {
		fmt.Printf("trace fetch failed: %v\n", err)
		return
	}
	writeTraceFile(sh.traceFile, raw, "trace "+id)
}
