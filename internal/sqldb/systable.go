package sqldb

// In-database self-observability: the sys.* virtual-table catalog.
//
// A SysTable is a named virtual table whose rows are produced at scan time
// from live engine state instead of stored columns. Registered sys tables
// resolve through the normal name-resolution path (newScan consults the
// catalog before tables and views), plan as an LSysScan leaf, and execute
// through the standard executor — so the full relational surface (WHERE,
// ORDER BY, joins, aggregates, EXPLAIN, EXPLAIN ANALYZE, cancellation,
// memory budgets) works over engine state for free:
//
//	SELECT sql, wall_ms FROM sys.queries WHERE wall_ms > 100 ORDER BY wall_ms DESC
//
// Sys tables are volatile — every scan re-reads live state — so the plan
// cache automatically refuses to cache plans over them (their names do not
// resolve as cacheable dependencies), and each execution sees fresh rows.
//
// EnableSysCatalog installs the built-in catalog: sys.metrics, sys.queries,
// sys.slow_queries, sys.cache, sys.breaker, and sys.runtime. Higher layers
// extend it with RegisterSysTable (the strategy layer replaces the
// sys.breaker stub with live circuit-breaker state) and RegisterCacheStats
// (extra rows for sys.cache, e.g. the inference cache).

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/par"
)

// SysTable is one virtual table: a fixed schema plus a scan function that
// materializes the current rows from live engine state.
type SysTable struct {
	// Name is the dotted catalog name, e.g. "sys.queries".
	Name string
	// Description is the one-line summary surfaced by SysTables (and the
	// sqlsh \sys meta-command).
	Description string
	// Schema is the table's output schema (OutCol.Table left blank; the
	// planner stamps the query's alias on it).
	Schema []OutCol
	// Scan materializes the table's current rows.
	Scan func(db *DB) (*Result, error)
}

// LSysScan is the leaf plan node reading a virtual system table.
type LSysScan struct {
	SysTable *SysTable
	Alias    string
	schema   []OutCol
	EstRows  float64
}

func (*LSysScan) planNode()             {}
func (s *LSysScan) OutSchema() []OutCol { return s.schema }

// RegisterSysTable installs (or replaces, by name) a virtual table.
func (db *DB) RegisterSysTable(st *SysTable) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.sysTables == nil {
		db.sysTables = map[string]*SysTable{}
	}
	db.sysTables[strings.ToLower(st.Name)] = st
}

// CacheStat is one named sys.cache row.
type CacheStat struct {
	Name string
	cache.Stats
}

// RegisterCacheStats adds a provider of extra sys.cache rows (the strategy
// layer registers its inference-cache stats here).
func (db *DB) RegisterCacheStats(fn func() []CacheStat) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.sysCacheFns = append(db.sysCacheFns, fn)
}

// lookupSysTable resolves a registered sys table by (case-insensitive) name.
func (db *DB) lookupSysTable(name string) *SysTable {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.sysTables[strings.ToLower(name)]
}

// SysTables lists the registered virtual tables sorted by name.
func (db *DB) SysTables() []*SysTable {
	db.mu.RLock()
	out := make([]*SysTable, 0, len(db.sysTables))
	for _, st := range db.sysTables {
		out = append(out, st)
	}
	db.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// newSysScan plans access to a virtual table under the given alias.
func (db *DB) newSysScan(st *SysTable, alias string) Plan {
	schema := make([]OutCol, len(st.Schema))
	for i, c := range st.Schema {
		schema[i] = OutCol{Table: alias, Name: c.Name, Type: c.Type}
	}
	// Estimated cardinality: sys tables are small; history-backed ones are
	// bounded by the ring capacity.
	est := 64.0
	if db.History != nil && (st.Name == "sys.queries" || st.Name == "sys.slow_queries") {
		est = float64(db.History.Cap())
	}
	return &LSysScan{SysTable: st, Alias: alias, schema: schema, EstRows: est}
}

// execSysScan materializes a virtual table scan.
func (db *DB) execSysScan(s *LSysScan, ec *execCtx) (*Result, error) {
	start := time.Now()
	res, err := s.SysTable.Scan(db)
	if err != nil {
		return nil, fmt.Errorf("sqldb: scanning %s: %w", s.SysTable.Name, err)
	}
	res.Schema = s.schema
	ec.profScan(res.NumRows(), start)
	return res, nil
}

// sysRow appends one row of datums to parallel columns.
func sysRow(cols []*Column, vals ...Datum) error {
	for i, v := range vals {
		if err := cols[i].Append(v); err != nil {
			return err
		}
	}
	return nil
}

// sysResult allocates result columns matching a schema.
func sysResult(schema []OutCol) (*Result, []*Column) {
	cols := make([]*Column, len(schema))
	for i, c := range schema {
		cols[i] = NewColumn(c.Type)
	}
	return &Result{Schema: schema, Cols: cols}, cols
}

// EnableSysCatalog registers the built-in sys.* virtual tables. Idempotent;
// call after wiring Metrics and History so the catalog reflects them.
// sys.breaker starts as an empty placeholder — the strategy layer replaces
// it with live circuit-breaker state when observability is attached there.
func (db *DB) EnableSysCatalog() {
	db.RegisterSysTable(sysMetricsTable())
	db.RegisterSysTable(sysQueriesTable("sys.queries",
		"recent statements from the query-history ring: statement text, strategy, cache state, per-query resource accounting, timing, and error class",
		func(db *DB) []queryHistRow { return historyRows(db, false) }))
	db.RegisterSysTable(sysQueriesTable("sys.slow_queries",
		"statements that crossed the slow-query threshold (survive main-ring churn)",
		func(db *DB) []queryHistRow { return historyRows(db, true) }))
	db.RegisterSysTable(sysCacheTable())
	db.RegisterSysTable(sysBreakerStub())
	db.RegisterSysTable(sysRuntimeTable())
	db.RegisterSysTable(sysTracesTable())
	db.RegisterSysTable(sysSpansTable())
}

// ---- sys.metrics ----

func sysMetricsTable() *SysTable {
	schema := []OutCol{
		{Name: "name", Type: TString}, {Name: "kind", Type: TString},
		{Name: "value", Type: TFloat}, {Name: "count", Type: TInt},
		{Name: "min", Type: TFloat}, {Name: "max", Type: TFloat},
		{Name: "mean", Type: TFloat}, {Name: "p50", Type: TFloat},
		{Name: "p95", Type: TFloat}, {Name: "p99", Type: TFloat},
	}
	return &SysTable{
		Name:        "sys.metrics",
		Description: "every registered counter, gauge, and histogram; histograms carry count/min/max/mean and interpolated p50/p95/p99",
		Schema:      schema,
		Scan: func(db *DB) (*Result, error) {
			res, cols := sysResult(schema)
			if db.Metrics == nil {
				return res, nil
			}
			snap := db.Metrics.Snapshot()
			type row struct {
				name string
				vals []Datum
			}
			var rows []row
			for name, v := range snap.Counters {
				rows = append(rows, row{name, []Datum{Str("counter"), Float(float64(v)), Int(v),
					Null(), Null(), Null(), Null(), Null(), Null()}})
			}
			for name, v := range snap.Gauges {
				rows = append(rows, row{name, []Datum{Str("gauge"), Float(v), Null(),
					Null(), Null(), Null(), Null(), Null(), Null()}})
			}
			for name, s := range snap.Histograms {
				rows = append(rows, row{name, []Datum{Str("histogram"), Float(s.Sum), Int(int64(s.Count)),
					Float(s.Min), Float(s.Max), Float(s.Mean), Float(s.P50), Float(s.P95), Float(s.P99)}})
			}
			sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
			for _, r := range rows {
				if err := sysRow(cols, append([]Datum{Str(r.name)}, r.vals...)...); err != nil {
					return nil, err
				}
			}
			return res, nil
		},
	}
}

// ---- sys.queries / sys.slow_queries ----

// queryHistRow adapts obs.QueryRecord for relational rendering.
type queryHistRow struct {
	id                                  int64
	sql, strategy, fallback, cacheState string
	start                               time.Time
	wallMs, busyMs                      float64
	rowsOut, rowsScanned, bytesOut      int64
	morsels, parallelOps                int64
	udfCalls, inferCalls, retries       int64
	errClass, errText                   string
	traceID                             string
}

func historyRows(db *DB, slow bool) []queryHistRow {
	if db.History == nil {
		return nil
	}
	recs := db.History.Snapshot()
	if slow {
		recs = db.History.SlowSnapshot()
	}
	rows := make([]queryHistRow, len(recs))
	for i, r := range recs {
		rows[i] = queryHistRow{
			id: r.ID, sql: r.SQL, strategy: r.Strategy, fallback: r.Fallback,
			cacheState: r.CacheState, start: r.Start,
			wallMs: float64(r.Wall) / 1e6, busyMs: float64(r.Busy) / 1e6,
			rowsOut: r.RowsOut, rowsScanned: r.RowsScanned, bytesOut: r.BytesOut,
			morsels: r.Morsels, parallelOps: r.ParallelOps,
			udfCalls: r.UDFCalls, inferCalls: r.InferCalls, retries: r.Retries,
			errClass: r.ErrClass, errText: r.Err, traceID: r.TraceID,
		}
	}
	return rows
}

func sysQueriesTable(name, desc string, rowsOf func(db *DB) []queryHistRow) *SysTable {
	schema := []OutCol{
		{Name: "id", Type: TInt}, {Name: "sql", Type: TString},
		{Name: "strategy", Type: TString}, {Name: "fallback", Type: TString},
		{Name: "cache", Type: TString}, {Name: "start", Type: TString},
		{Name: "wall_ms", Type: TFloat}, {Name: "busy_ms", Type: TFloat},
		{Name: "rows_out", Type: TInt}, {Name: "rows_scanned", Type: TInt},
		{Name: "bytes_out", Type: TInt}, {Name: "morsels", Type: TInt},
		{Name: "parallel_ops", Type: TInt}, {Name: "udf_calls", Type: TInt},
		{Name: "infer_calls", Type: TInt}, {Name: "retries", Type: TInt},
		{Name: "err_class", Type: TString}, {Name: "err", Type: TString},
		{Name: "trace_id", Type: TString},
	}
	return &SysTable{
		Name:        name,
		Description: desc,
		Schema:      schema,
		Scan: func(db *DB) (*Result, error) {
			res, cols := sysResult(schema)
			for _, r := range rowsOf(db) {
				err := sysRow(cols,
					Int(r.id), Str(r.sql), Str(r.strategy), Str(r.fallback),
					Str(r.cacheState), Str(r.start.Format(time.RFC3339Nano)),
					Float(r.wallMs), Float(r.busyMs),
					Int(r.rowsOut), Int(r.rowsScanned), Int(r.bytesOut),
					Int(r.morsels), Int(r.parallelOps), Int(r.udfCalls),
					Int(r.inferCalls), Int(r.retries),
					Str(r.errClass), Str(r.errText), Str(r.traceID))
				if err != nil {
					return nil, err
				}
			}
			return res, nil
		},
	}
}

// ---- sys.cache ----

func sysCacheTable() *SysTable {
	schema := []OutCol{
		{Name: "cache", Type: TString}, {Name: "len", Type: TInt},
		{Name: "cap", Type: TInt}, {Name: "hits", Type: TInt},
		{Name: "misses", Type: TInt}, {Name: "evictions", Type: TInt},
		{Name: "hit_rate", Type: TFloat},
	}
	return &SysTable{
		Name:        "sys.cache",
		Description: "statement store occupancy and hit statistics, one row while EnableCache is on (plus any registered higher-layer caches)",
		Schema:      schema,
		Scan: func(db *DB) (*Result, error) {
			res, cols := sysResult(schema)
			store := db.store.Load()
			db.mu.RLock()
			fns := append([]func() []CacheStat(nil), db.sysCacheFns...)
			db.mu.RUnlock()
			var rows []CacheStat
			if store != nil {
				rows = append(rows, CacheStat{Name: "statement", Stats: store.Stats()})
			}
			for _, fn := range fns {
				rows = append(rows, fn()...)
			}
			for _, r := range rows {
				err := sysRow(cols, Str(r.Name), Int(int64(r.Len)), Int(int64(r.Cap)),
					Int(r.Hits), Int(r.Misses), Int(r.Evictions), Float(r.HitRate()))
				if err != nil {
					return nil, err
				}
			}
			return res, nil
		},
	}
}

// ---- sys.breaker ----

// sysBreakerStub is the default (empty) breaker table; the strategy layer,
// which owns the circuit breakers, re-registers sys.breaker with live rows.
func sysBreakerStub() *SysTable {
	schema := BreakerTableSchema()
	return &SysTable{
		Name:        "sys.breaker",
		Description: "circuit-breaker state per serving component (populated when the strategy layer attaches observability)",
		Schema:      schema,
		Scan: func(db *DB) (*Result, error) {
			res, _ := sysResult(schema)
			return res, nil
		},
	}
}

// BreakerTableSchema is the canonical sys.breaker schema, shared between
// the stub registered here and the live table the strategy layer installs.
func BreakerTableSchema() []OutCol {
	return []OutCol{
		{Name: "component", Type: TString}, {Name: "state", Type: TString},
		{Name: "trips", Type: TInt}, {Name: "fail_threshold", Type: TInt},
		{Name: "cooldown_ms", Type: TFloat},
	}
}

// ---- sys.runtime ----

var processStart = time.Now()

func sysRuntimeTable() *SysTable {
	schema := []OutCol{{Name: "key", Type: TString}, {Name: "value", Type: TFloat}}
	return &SysTable{
		Name:        "sys.runtime",
		Description: "process runtime: goroutines, heap, GC, parallel-pool occupancy, history occupancy",
		Schema:      schema,
		Scan: func(db *DB) (*Result, error) {
			res, cols := sysResult(schema)
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			occ := par.Occupancy()
			kv := []struct {
				k string
				v float64
			}{
				{"uptime_s", time.Since(processStart).Seconds()},
				{"goroutines", float64(runtime.NumGoroutine())},
				{"num_cpu", float64(runtime.NumCPU())},
				{"heap_alloc_bytes", float64(ms.HeapAlloc)},
				{"heap_sys_bytes", float64(ms.HeapSys)},
				{"total_alloc_bytes", float64(ms.TotalAlloc)},
				{"gc_cycles", float64(ms.NumGC)},
				{"gc_pause_total_ms", float64(ms.PauseTotalNs) / 1e6},
				{"parallelism", float64(db.parDegree())},
				{"par_default_degree", float64(occ.DefaultDegree)},
				{"par_active_workers", float64(occ.ActiveWorkers)},
				{"par_runs", float64(occ.Runs)},
				{"par_morsels", float64(occ.Morsels)},
				{"history_len", float64(db.History.Len())},
				{"history_cap", float64(db.History.Cap())},
				{"slow_threshold_ms", float64(db.History.SlowThreshold()) / 1e6},
			}
			for _, e := range kv {
				if err := sysRow(cols, Str(e.k), Float(e.v)); err != nil {
					return nil, err
				}
			}
			return res, nil
		},
	}
}
