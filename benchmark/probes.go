package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/colquery"
	"repro/internal/dl2sql"
	"repro/internal/iotdata"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/sqldb"
	"repro/internal/strategies"
	"repro/internal/tensor"
)

// counters is a snapshot of the layers' public statistics; the traced
// phase reports the difference between two of them.
type counters struct {
	sql   sqldb.CacheStats
	infer cache.Stats
	sched schedule.Stats
	wire  int64
}

func snapshotCounters(f *fixture) counters {
	c := counters{sql: f.ds.DB.CacheStats(), infer: f.env.InferCacheStats()}
	if f.env.Scheduler != nil {
		c.sched = f.env.Scheduler.Stats()
	}
	if f.wire != nil {
		c.wire = f.wire.bytes.Load()
	}
	return c
}

// share is part/whole, 0 when there is no whole.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// probeReps is how often a probe repeats its call.
const probeReps = 15

// prober times direct calls into a layer. Probes run after the timed phase,
// so they are part of no operation's latency.
type prober struct {
	tr   *tracer
	reps int
}

// probe times fn reps times under a probe span each and returns the median
// duration.
func (pr prober) probe(name string, fn func() error) (time.Duration, error) {
	durs := make([]float64, 0, pr.reps)
	for i := 0; i < pr.reps; i++ {
		s := pr.tr.start(name, nil, -1, probeLane)
		err := fn()
		durs = append(durs, float64(s.end()))
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
	}
	return time.Duration(median(durs)), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerMetrics fills m with every per-layer metric except the set-up phases
// and the tracing overhead, which run() knows. A metric of a layer the
// workload does not use stays 0.
func layerMetrics(ctx context.Context, m map[string]float64, f *fixture, p *phaseResult, before counters, pr prober, scripts [][]op) error {
	for _, d := range perLayer {
		if _, set := m[d.Name]; !set {
			m[d.Name] = 0
		}
	}
	now := snapshotCounters(f)
	ops := float64(p.attempted)

	// strategies: the returned cost breakdowns, mean per query.
	var bucketS, wallS float64
	for _, s := range strategySlugs {
		b := p.buckets[s.Name]
		if b == nil || b.n == 0 {
			continue
		}
		n := float64(b.n)
		m["strategies."+s.Slug+".loading_ms"] = b.loading / n * 1e3
		m["strategies."+s.Slug+".inference_ms"] = b.inference / n * 1e3
		m["strategies."+s.Slug+".relational_ms"] = b.relational / n * 1e3
		bucketS += b.loading + b.inference + b.relational
		wallS += b.wall
	}
	if wallS > 0 {
		m["strategies.unattributed_share"] = 1 - bucketS/wallS
	}
	m["strategies.fallback_count"] = float64(p.fallbacks)

	// Counters over the traced phase.
	stmt := now.sql.Stmt.Hits + now.sql.Stmt.Misses - before.sql.Stmt.Hits - before.sql.Stmt.Misses
	plan := now.sql.Plan.Hits + now.sql.Plan.Misses - before.sql.Plan.Hits - before.sql.Plan.Misses
	m["sqldb.stmt_cache_hit_rate"] = share(float64(now.sql.Stmt.Hits-before.sql.Stmt.Hits), float64(stmt))
	m["sqldb.plan_cache_hit_rate"] = share(float64(now.sql.Plan.Hits-before.sql.Plan.Hits), float64(plan))
	m["sqldb.plan_invalidations"] = float64(now.sql.PlanInvalidations - before.sql.PlanInvalidations)
	lookups := now.infer.Hits + now.infer.Misses - before.infer.Hits - before.infer.Misses
	m["strategies.infer_cache_hit_rate"] = share(float64(now.infer.Hits-before.infer.Hits), float64(lookups))
	m["strategies.infer_cache_evictions"] = float64(now.infer.Evictions - before.infer.Evictions)
	submitted := float64(now.sched.Submitted - before.sched.Submitted)
	m["schedule.submitted"] = submitted
	m["schedule.cache_hit_share"] = share(float64(now.sched.CacheHits-before.sched.CacheHits), submitted)
	m["schedule.dedup_share"] = share(float64(now.sched.DedupHits-before.sched.DedupHits), submitted)
	m["schedule.mean_batch"] = share(float64(now.sched.Executed-before.sched.Executed), float64(now.sched.Batches-before.sched.Batches))
	m["schedule.max_batch"] = float64(now.sched.MaxBatch)
	m["server.wire_bytes_per_query"] = share(float64(now.wire-before.wire), ops)
	m["runtime.gc_cycles"] = float64(p.gcCycles)
	m["runtime.gc_pause_ms"] = ms(p.gcPause)

	if p99, ok := percentile(p.pooled(), 99); ok && f.sp.Served {
		m["server.latency_p99_ms"] = p99
	}
	db := f.ds.DB
	if res, err := db.QueryContext(ctx, "SELECT sum(rows_scanned) AS s, sum(rows_out) AS o FROM sys.queries"); err == nil && res.NumRows() == 1 {
		scanned, _ := res.Cols[0].Get(0).AsFloat()
		out, _ := res.Cols[1].Get(0).AsFloat()
		m["sqldb.rows_scanned_per_row_out"] = share(scanned, out)
	}
	if f.sp.Served {
		if res, err := db.QueryContext(ctx, "SELECT sum(queued_total) AS q, sum(rejected) AS r FROM sys.admission"); err == nil && res.NumRows() == 1 {
			m["server.queued"], _ = res.Cols[0].Get(0).AsFloat()
			m["server.rejected"], _ = res.Cols[1].Get(0).AsFloat()
		}
		m["server.queue_wait_ms"] = db.Metrics.Snapshot().Histograms[obs.MetricServerQueueSeconds].Mean * 1e3
	}

	if d := pr.tr.meanOf("colquery.Analyze"); d > 0 {
		m["colquery.analyze_us"] = us(d)
	}
	if err := statementProbes(ctx, m, f, pr, distinctOps(scripts, 8)); err != nil {
		return err
	}
	// Each group of direct calls runs only where the workload uses the
	// layer; elsewhere its metrics stay 0.
	if f.sp.runs("DB-UDF", "DB-PyTorch") {
		if err := nnProbes(m, f, pr); err != nil {
			return err
		}
	}
	if f.sp.runs("DL2SQL", "DL2SQL-OP") {
		if err := dl2sqlProbes(m, f, pr); err != nil {
			return err
		}
	}
	if f.sp.InferCache {
		if err := cacheProbes(m, f, pr); err != nil {
			return err
		}
	}

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m["runtime.heap_live_mb_end"] = float64(mem.HeapAlloc) / (1 << 20)
	return nil
}

// distinctOps returns up to n operations with different SQL, spread over
// the cells in script order.
func distinctOps(scripts [][]op, n int) []op {
	seen := map[string]bool{}
	perCell := map[string]int{}
	var out []op
	for _, script := range scripts {
		for _, o := range script {
			if seen[o.SQL] || perCell[o.Cell] >= 2 || len(out) == n {
				continue
			}
			seen[o.SQL] = true
			perCell[o.Cell]++
			out = append(out, o)
		}
	}
	return out
}

// statementProbes calls colquery, sqldb and the server directly with the
// workload's own statements.
func statementProbes(ctx context.Context, m map[string]float64, f *fixture, pr prober, ops []op) error {
	db := f.ds.DB
	var analyze, parse, plan, exec, overhead []float64
	for _, o := range ops {
		if o.Kind == kindWrite {
			continue
		}
		relational := o.SQL // what sqldb can plan on its own
		if o.Kind == kindColQuery {
			relational = o.Skeleton
			d, err := pr.probe("colquery.Analyze", func() error { _, err := colquery.Analyze(o.SQL); return err })
			if err != nil {
				return err
			}
			analyze = append(analyze, us(d))
		}
		d, err := pr.probe("sqldb.Parse", func() error { _, err := sqldb.Parse(o.SQL); return err })
		if err != nil {
			return err
		}
		parse = append(parse, us(d))
		run := func() error { _, err := db.QueryContext(ctx, relational); return err }
		if o.Kind == kindPoint {
			st, err := db.Prepare(o.SQL)
			if err != nil {
				return err
			}
			run = func() error { _, err := st.QueryContext(ctx, sqldb.Int(o.Arg)); return err }
		} else {
			if d, err = pr.probe("sqldb.PlanSelect", func() error { _, err := db.PlanSelect(relational, nil); return err }); err != nil {
				return err
			}
			plan = append(plan, us(d))
		}
		embedded, err := pr.probe("sqldb.QueryContext", run)
		if err != nil {
			return err
		}
		exec = append(exec, ms(embedded))

		if !f.sp.Served {
			continue
		}
		// The same statement on the same engine, once through the client
		// and once embedded: the difference is what the server adds.
		cli := f.clients[0]
		var served time.Duration
		switch o.Kind {
		case kindColQuery:
			strat := strategyTable()[o.Strategy]
			q, err := colquery.Analyze(o.SQL)
			if err != nil {
				return err
			}
			if embedded, err = pr.probe("strategies.ExecuteWithFallback", func() error {
				_, _, err := strategies.ExecuteWithFallback(ctx, f.env, strat, q)
				return err
			}); err != nil {
				return err
			}
			served, err = pr.probe("Client.ColQuery", func() error { _, err := cli.ColQuery(ctx, o.SQL, o.Strategy, true); return err })
		case kindPoint:
			served, err = pr.probe("Stmt.Exec", func() error { _, err := f.points[0].Exec(ctx, sqldb.Int(o.Arg)); return err })
		default:
			served, err = pr.probe("Client.Query", func() error { _, err := cli.Query(ctx, o.SQL); return err })
		}
		if err != nil {
			return err
		}
		overhead = append(overhead, ms(served-embedded))
	}
	if len(analyze) > 0 && m["colquery.analyze_us"] == 0 {
		m["colquery.analyze_us"] = mean(analyze)
	}
	m["sqldb.parse_us"], m["sqldb.plan_us"], m["sqldb.exec_ms"] = mean(parse), mean(plan), mean(exec)
	m["server.roundtrip_overhead_ms"] = mean(overhead)
	if len(f.sp.Cells) > 0 {
		return nil // only the plain-SQL mix writes
	}

	id := int64(9_000_000)
	d, err := pr.probe("sqldb.Exec(INSERT)", func() error {
		id++
		_, err := db.ExecContext(ctx, fmt.Sprintf(insertDevice, id, 20.0, 50.0))
		return err
	})
	if err != nil {
		return err
	}
	m["sqldb.insert_us"] = us(d)
	_, err = db.ExecContext(ctx, "DELETE FROM device WHERE deviceID > 9000000")
	return err
}

// probeInputs returns the model the workload's nudf_detect is bound to and
// the first eight keyframes of its video table.
func probeInputs(f *fixture) (*strategies.UDFBinding, []*tensor.Tensor, error) {
	binding := f.env.Bindings["nudf_detect"]
	blobCol := f.ds.DB.GetTable("video").SnapshotCols()[3]
	inputs := make([]*tensor.Tensor, 8)
	for i := range inputs {
		in, err := iotdata.KeyframeTensor(blobCol.Get(i).B)
		if err != nil {
			return nil, nil, err
		}
		inputs[i] = in
	}
	return binding, inputs, nil
}

// firstConv is the model's first convolution layer, nil when it has none.
func firstConv(model *nn.Model) *nn.Conv2D {
	for _, l := range model.Layers {
		if c, ok := l.(*nn.Conv2D); ok {
			return c
		}
	}
	return nil
}

// nnProbes calls nn and tensor directly with the model and keyframes the
// workload's nUDFs are bound to.
func nnProbes(m map[string]float64, f *fixture, pr prober) error {
	binding, inputs, err := probeInputs(f)
	if err != nil {
		return err
	}
	model := binding.Entry.Model
	d, err := pr.probe("nn.DecodeBytes", func() error { _, err := nn.DecodeBytes(binding.Artifact); return err })
	if err != nil {
		return err
	}
	m["nn.decode_ms"] = ms(d)
	i := 0
	if d, err = pr.probe("nn.Forward", func() error { i++; _, err := model.Forward(inputs[i%len(inputs)]); return err }); err != nil {
		return err
	}
	m["nn.forward_us"] = us(d)
	if d, err = pr.probe("nn.PredictBatch(8)", func() error { _, err := model.PredictBatch(inputs); return err }); err != nil {
		return err
	}
	m["nn.predict_batch8_us_per_sample"] = us(d) / float64(len(inputs))
	m["nn.flops_per_forward"] = float64(model.FLOPs())
	conv := firstConv(model)
	if conv == nil {
		return nil
	}
	var cols *tensor.Tensor
	if d, err = pr.probe("tensor.Im2Col", func() (err error) {
		cols, err = tensor.Im2Col(inputs[0], conv.K, conv.Stride, conv.Pad)
		return err
	}); err != nil {
		return err
	}
	m["tensor.im2col_us"] = us(d)
	colsT, err := tensor.Transpose(cols) // (inC*k*k) x positions, as Conv2D.Forward multiplies it
	if err != nil {
		return err
	}
	if d, err = pr.probe("tensor.MatMul", func() error { _, err := tensor.MatMul(conv.Weight, colsT); return err }); err != nil {
		return err
	}
	w, c := conv.Weight.Shape(), colsT.Shape()
	m["tensor.matmul_mflops"] = 2 * float64(w[0]*w[1]*c[1]) / d.Seconds() / 1e6
	return nil
}

// dl2sqlProbes calls the translator directly, under its own table prefix on
// the workload's engine.
func dl2sqlProbes(m map[string]float64, f *fixture, pr prober) error {
	binding, inputs, err := probeInputs(f)
	if err != nil {
		return err
	}
	model, db := binding.Entry.Model, f.ds.DB
	t := dl2sql.NewTranslator(db, "probe_dl2sql")
	var sm *dl2sql.StoredModel
	drop := func() {
		if sm != nil {
			for _, name := range sm.TableNames() {
				db.DropTable(name)
			}
		}
	}
	defer drop()
	d, err := pr.probe("dl2sql.StoreModel", func() (err error) {
		drop()
		sm, err = t.StoreModel(model)
		return err
	})
	if err != nil {
		return err
	}
	m["dl2sql.store_model_ms"] = ms(d)
	m["dl2sql.storage_bytes"] = float64(sm.StorageBytes(db))
	if conv := firstConv(model); conv != nil {
		if d, err = pr.probe("dl2sql.EncodeInput", func() error {
			_, err := t.EncodeInput("probe_dl2sql_input", inputs[0], conv.K, conv.Stride, conv.Pad)
			return err
		}); err != nil {
			return err
		}
		db.DropTable("probe_dl2sql_input")
		m["dl2sql.encode_input_us"] = us(d)
	}
	i := 0
	if d, err = pr.probe("dl2sql.Infer", func() error { i++; _, _, err := t.Infer(sm, inputs[i%len(inputs)]); return err }); err != nil {
		return err
	}
	m["dl2sql.infer_ms"] = ms(d)
	return nil
}

// cacheProbes times an LRU of the prediction cache's type at its capacity,
// so a Put evicts.
func cacheProbes(m map[string]float64, f *fixture, pr prober) error {
	lru := cache.New[strategies.InferKey, int](inferCacheCapacity(f.env))
	const n = 4096
	put, err := pr.probe("cache.LRU.Put", func() error {
		for k := 0; k < n; k++ {
			lru.Put(strategies.InferKey{Model: 1, Input: uint64(k)}, k)
		}
		return nil
	})
	if err != nil {
		return err
	}
	get, err := pr.probe("cache.LRU.Get", func() error {
		for k := 0; k < n; k++ {
			lru.Get(strategies.InferKey{Model: 1, Input: uint64(k)})
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["cache.lru_put_ns"] = float64(put) / n
	m["cache.lru_get_ns"] = float64(get) / n
	return nil
}
