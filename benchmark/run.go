package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/colquery"
	"repro/internal/sqldb"
	"repro/internal/strategies"
)

// runConfig is one run of one workload.
type runConfig struct {
	sp      spec
	seed    int64
	seconds float64 // length of the timed phase
	traced  bool    // per-layer run: spans on in every second slice, then probes
	setups  int     // fresh set-ups; setup_s is their median
	slices  int     // slices the timed phase aims at
	probes  int     // traced run: repetitions of each probe
	// traceFile is where the traced run writes its spans ("" = nowhere).
	traceFile string
}

// runResult is what one run reports.
type runResult struct {
	Attempted    int
	Failed       int
	FirstFailure string
	// Short is set when the timed phase finished too few operations for
	// latency_p95_ms to have ten samples beyond it.
	Short   bool
	Samples int // operations behind the latency metrics
	// Slowdown is the machine's slowdown over the timed phase, the mean of
	// SliceSlowdown; SliceQPS is each slice's throughput as measured.
	Slowdown      float64
	SliceSlowdown []float64
	SliceQPS      []float64
	// CellLatency is each cell's latency in ms; their mean is
	// typebal_latency_ms.
	CellLatency map[string]float64
	Metrics     map[string]float64
	// Raw holds the time metrics as measured, before the division by the
	// slowdown. Metrics that are counts have no entry.
	Raw   map[string]float64
	Spans []spanTotals // traced run only
}

// timedSlices is how many slices the end-to-end run aims at; traceSlices
// the same for the traced run.
const (
	timedSlices = 10
	traceSlices = 6
)

// minTimedOps is the sample count a nearest-rank p95 needs to keep ten
// samples beyond it.
const minTimedOps = 200

// runBudget bounds a whole run; an operation still running when it expires
// fails with a timeout instead of hanging the benchmark.
const runBudget = 150 * time.Second

// bucketSum accumulates one strategy's returned cost breakdowns.
type bucketSum struct {
	n                              int
	loading, inference, relational float64 // seconds
	wall                           float64 // seconds inside Execute / the client call
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	lat        map[string][]float64 // cell -> per-operation latency, ms
	attempted  int
	failed     int
	buckets    map[string]*bucketSum // strategy name -> sums
	fallbacks  int
	speed      speed // the calibration bursts the sessions ran between rounds
	// Of one slice, not added up:
	peakRSS float64 // MiB, the slice's own high-water mark
	spanned bool    // the harness's spans were on
}

func newPhaseResult() *phaseResult {
	return &phaseResult{lat: map[string][]float64{}, buckets: map[string]*bucketSum{}}
}

// add folds q into p.
func (p *phaseResult) add(q *phaseResult) {
	p.wall += q.wall
	p.cpu += q.cpu
	p.allocBytes += q.allocBytes
	p.gcCycles += q.gcCycles
	p.gcPause += q.gcPause
	p.attempted += q.attempted
	p.failed += q.failed
	p.fallbacks += q.fallbacks
	p.speed.add(q.speed)
	for cell, l := range q.lat {
		p.lat[cell] = append(p.lat[cell], l...)
	}
	for name, b := range q.buckets {
		sum := p.buckets[name]
		if sum == nil {
			sum = &bucketSum{}
			p.buckets[name] = sum
		}
		sum.n += b.n
		sum.loading += b.loading
		sum.inference += b.inference
		sum.relational += b.relational
		sum.wall += b.wall
	}
}

func (p *phaseResult) correct() int { return p.attempted - p.failed }

func (p *phaseResult) qps() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(p.correct()) / p.wall.Seconds()
}

func (p *phaseResult) pooled() []float64 {
	var all []float64
	for _, l := range p.lat {
		all = append(all, l...)
	}
	sort.Float64s(all)
	return all
}

// session is one closed-loop caller: it sends its next operation only when
// the previous one has been answered.
type session struct {
	lane   int
	script []op
	next   int // position in the script, kept across phases
	f      *fixture
	check  *checker
	strats map[string]strategies.Strategy // embedded only

	tally        *phaseResult // what this session did in the current phase
	firstFailure string

	calib     *calibrator
	calibMark time.Time // when the session last ran a burst
}

// roundLen is the number of operations in one round of a script.
func roundLen(sp spec) int {
	if len(sp.Cells) > 0 {
		return len(sp.Cells)
	}
	n := 0
	for _, m := range sqlMix {
		n += m.n
	}
	return n
}

// exec sends one operation to the program under test.
func (s *session) exec(ctx context.Context, tr *tracer, o op, root *span, id int) (res *sqldb.Result, err error) {
	var bd strategies.CostBreakdown
	start := time.Now()
	switch {
	case !s.f.sp.Served:
		if o.Kind != kindColQuery {
			return nil, errors.New("embedded workloads run collaborative queries only")
		}
		a := tr.start("colquery.Analyze", root, id, s.lane)
		q, aerr := colquery.Analyze(o.SQL)
		a.end()
		if aerr != nil {
			return nil, aerr
		}
		e := tr.start("Strategy.Execute", root, id, s.lane)
		start = time.Now()
		res, bd, err = s.strats[o.Strategy].Execute(ctx, s.f.env, q)
		e.end()
	case o.Kind == kindColQuery:
		c := tr.start("Client.ColQuery", root, id, s.lane)
		r, cerr := s.f.clients[s.lane].ColQuery(ctx, o.SQL, o.Strategy, true)
		c.end()
		if cerr != nil {
			return nil, cerr
		}
		res = r.Result
		bd = strategies.CostBreakdown{Loading: r.LoadingS, Inference: r.InferenceS, Relational: r.RelationalS, FallbackPath: r.FallbackPath}
	case o.Kind == kindPoint:
		c := tr.start("Stmt.Exec", root, id, s.lane)
		res, err = s.f.points[s.lane].Exec(ctx, sqldb.Int(o.Arg))
		c.end()
	default:
		c := tr.start("Client.Query", root, id, s.lane)
		res, err = s.f.clients[s.lane].Query(ctx, o.SQL)
		c.end()
	}
	if err == nil && o.Kind == kindColQuery {
		b := s.tally.buckets[o.Strategy]
		if b == nil {
			b = &bucketSum{}
			s.tally.buckets[o.Strategy] = b
		}
		b.n++
		b.loading += bd.Loading
		b.inference += bd.Inference
		b.relational += bd.Relational
		b.wall += time.Since(start).Seconds()
		if len(bd.FallbackPath) > 0 {
			s.tally.fallbacks++
		}
	}
	return res, err
}

// runRounds runs n whole rounds of the script, and a calibration burst
// after an operation whenever enough time has passed to pay for one.
func (s *session) runRounds(ctx context.Context, tr *tracer, n int) {
	per := roundLen(s.f.sp)
	for ; n > 0; n-- {
		for i := 0; i < per; i++ {
			o := s.script[s.next%len(s.script)]
			id := s.next
			s.next++
			root := tr.start("op", nil, id, s.lane)
			t0 := time.Now()
			res, err := s.exec(ctx, tr, o, root, id)
			d := time.Since(t0)
			root.end()
			s.record(o, res, err, d)
			if s.tally.speed.burst(s.calib, time.Duration(float64(time.Since(s.calibMark))*calibShare)) {
				s.calibMark = time.Now()
			}
		}
	}
}

// record counts one finished operation: a correct one adds its latency to
// its cell, anything else is a failure and has no latency.
func (s *session) record(o op, res *sqldb.Result, err error, d time.Duration) {
	s.tally.attempted++
	ok, why := s.check.outcome(o, res, err)
	if ok {
		s.tally.lat[o.Cell] = append(s.tally.lat[o.Cell], ms(d))
		return
	}
	s.tally.failed++
	if s.firstFailure == "" {
		s.firstFailure = o.Cell + ": " + why + " [" + o.SQL + "]"
	}
}

// runPhase runs the given number of rounds on every session concurrently
// and adds up what they did.
func runPhase(ctx context.Context, sessions []*session, tr *tracer, rounds int) *phaseResult {
	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for _, s := range sessions {
		s.tally = newPhaseResult()
		s.calibMark = start
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			s.runRounds(ctx, tr, rounds)
		}(s)
	}
	wg.Wait()
	p := newPhaseResult()
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
	p.peakRSS, p.spanned = peakRSSMiB(), tr != nil
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.gcCycles = after.NumGC - before.NumGC
	p.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	for _, s := range sessions {
		p.add(s.tally)
	}
	// The bursts are the harness's own work: out of the wall time goes a
	// session's share of them, out of the CPU time all of them.
	p.wall -= p.speed.spent / time.Duration(len(sessions))
	p.cpu -= p.speed.spent
	return p
}

// timedPhase runs slices until the timed phase has lasted cfg.seconds, give
// or take half a slice, and at least two. A slice is the same whole number
// of periods on every session, as many as fit a slice's share of the time
// at the pace of the slice before (perRound to begin with), so every slice
// does the same work and sessions never run on alone for long. The traced
// run has the harness's spans on in every second slice, so that drift over
// the run (cache contents, heap size) lands on both sides alike.
func timedPhase(ctx context.Context, cfg runConfig, sessions []*session, tr *tracer, perRound time.Duration) []*phaseResult {
	length := time.Duration(cfg.seconds * float64(time.Second))
	target := length / time.Duration(cfg.slices)
	var slices []*phaseResult
	var elapsed time.Duration
	for {
		periods := 1
		if per := perRound * time.Duration(cfg.sp.Period); per > 0 && target > per {
			periods = int(float64(target)/float64(per) + 0.5)
		}
		rounds := periods * cfg.sp.Period
		spans := tr
		if len(slices)%2 == 0 {
			spans = nil
		}
		p := runPhase(ctx, sessions, spans, rounds)
		slices = append(slices, p)
		elapsed += p.wall
		perRound = p.wall / time.Duration(rounds)
		if len(slices) >= 2 && elapsed+p.wall/2 >= length || ctx.Err() != nil {
			return slices
		}
	}
}

// run executes one workload once: set-up, reference answers, warm-up, the
// timed phase and, when traced, the probes.
func run(ctx context.Context, cfg runConfig) (*runResult, error) {
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()
	sp := cfg.sp
	scripts := genScripts(sp, cfg.seed)

	// Set-up, several times over; the last fixture is the one measured.
	var f *fixture
	var totals, gen, build, bind, serve []float64
	var setupSpeed speed
	calib := newCalibrator()
	for i := 0; i < cfg.setups; i++ {
		if f != nil {
			f.close()
			runtime.GC() // the next set-up starts from the same heap as the first
		}
		var err error
		if f, err = newFixture(ctx, sp); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupSpeed.burst(calib, 40*chunkNominal)
		totals = append(totals, f.total.Seconds())
		gen, build = append(gen, ms(f.generate)), append(build, ms(f.build))
		bind, serve = append(bind, ms(f.bind)), append(serve, ms(f.serve))
	}
	defer f.close()

	refs, err := buildRefs(ctx, sp, scripts)
	if err != nil {
		return nil, err
	}
	runtime.GC() // drop the twin before anything is measured
	check := &checker{refs: refs}
	sessions := make([]*session, len(scripts))
	for i, script := range scripts {
		sessions[i] = &session{lane: i, script: script, f: f, check: check, calib: newCalibrator()}
		if !sp.Served {
			sessions[i].strats = strategyTable()
		}
	}

	res := &runResult{Metrics: map[string]float64{}, Raw: map[string]float64{}}
	tally := func(p *phaseResult) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, s := range sessions {
			if res.FirstFailure == "" {
				res.FirstFailure = s.firstFailure
			}
		}
	}

	// Warm-up: UDF registration, first plans, lazy set-up and, where the
	// workload has them, the caches fill before anything is timed.
	warm := runPhase(ctx, sessions, nil, sp.Warm)
	tally(warm)
	perRound := warm.wall / time.Duration(sp.Warm)

	if !cfg.traced {
		slices := timedPhase(ctx, cfg, sessions, nil, perRound)
		for _, p := range slices {
			tally(p)
		}
		endToEndMetrics(res, slices, median(totals), setupSpeed.factor())
	} else {
		tr := newTracer()
		before := snapshotCounters(f)
		slices := timedPhase(ctx, cfg, sessions, tr, perRound)
		// Counts and cost breakdowns do not depend on the spans: take them
		// over every slice.
		all := newPhaseResult()
		var plain, spanned []float64 // throughput at the reference speed
		for _, p := range slices {
			all.add(p)
			if p.spanned {
				spanned = append(spanned, p.qps()*p.speed.factor())
			} else {
				plain = append(plain, p.qps()*p.speed.factor())
			}
		}
		tally(all)
		m := res.Metrics
		m["iotdata.generate_ms"], m["modelrepo.build_ms"] = median(gen), median(build)
		m["strategies.bind_ms"], m["server.start_ms"] = median(bind), median(serve)
		m["trace.overhead_share"] = 1 - share(mean(spanned), mean(plain))
		if err := layerMetrics(ctx, m, f, all, before, prober{tr, cfg.probes}, scripts); err != nil {
			return nil, err
		}
		res.Spans = tr.totals()
		if cfg.traceFile != "" {
			if err := tr.writeChrome(cfg.traceFile); err != nil {
				return nil, fmt.Errorf("writing trace: %w", err)
			}
		}
	}

	if len(sp.Cells) == 0 {
		// Every round deletes the row it inserted.
		for _, w := range writeSQL {
			res.Attempted++
			if n := f.ds.DB.GetTable(w.table).NumRows(); n != sp.Scale {
				res.Failed++
				if res.FirstFailure == "" {
					res.FirstFailure = fmt.Sprintf("%s holds %d rows after the run, want %d", w.table, n, sp.Scale)
				}
			}
		}
	}
	return res, nil
}

// timeMetrics computes the end-to-end metrics that are times or rates from
// the timed slices, every time divided by what factor gives for its slice.
// Every rate is the median over the slices of that slice's rate, so no
// single disturbed slice moves it.
func timeMetrics(slices []*phaseResult, factor func(*phaseResult) float64) (m, cells map[string]float64, samples int, short bool) {
	var qps, cpu, pooled, p95s []float64
	lat := map[string][]float64{}
	for _, p := range slices {
		f := factor(p)
		qps = append(qps, p.qps()*f)
		cpu = append(cpu, ms(p.cpu)/float64(p.attempted)/f)
		var own []float64
		for cell, l := range p.lat {
			for _, v := range l {
				lat[cell] = append(lat[cell], v/f)
				own = append(own, v/f)
			}
		}
		sort.Float64s(own)
		if v, ok := percentile(own, 95); ok {
			p95s = append(p95s, v)
		}
		pooled = append(pooled, own...)
	}
	sort.Float64s(pooled)
	// Where every slice holds enough operations for a p95 of its own, the
	// median of those, which a disturbed slice cannot move; otherwise the
	// p95 of all slices pooled.
	p95, enough := percentile(pooled, 95)
	if len(p95s) == len(slices) {
		p95 = median(p95s)
	}

	// A cell's latency is the mean of its fastest 95%: a mean, because
	// date windows hold different numbers of keyframes and a median would
	// jump between two of them; trimmed, so that a disturbed slice does
	// not move it.
	cells = map[string]float64{}
	var cellMeans []float64
	for cell, l := range lat {
		l = sorted(l)
		cells[cell] = mean(l[:len(l)-len(l)/20])
		cellMeans = append(cellMeans, cells[cell])
	}
	return map[string]float64{
		"throughput_qps":     median(qps),
		"latency_p50_ms":     median(pooled),
		"latency_p95_ms":     p95,
		"typebal_latency_ms": mean(cellMeans),
		"cpu_ms_per_query":   median(cpu),
	}, cells, len(pooled), !enough
}

// endToEndMetrics fills in what a user of the system sees: times at the
// reference machine's speed (see calib.go) in Metrics and as measured in
// Raw, counts as they are.
func endToEndMetrics(res *runResult, slices []*phaseResult, setupS, setupSlow float64) {
	var alloc, rss []float64
	for _, p := range slices {
		res.SliceQPS = append(res.SliceQPS, p.qps())
		res.SliceSlowdown = append(res.SliceSlowdown, p.speed.factor())
		alloc = append(alloc, float64(p.allocBytes)/1024/float64(p.attempted))
		rss = append(rss, p.peakRSS)
	}
	res.Slowdown = mean(res.SliceSlowdown)
	res.Metrics, res.CellLatency, res.Samples, res.Short = timeMetrics(slices, func(p *phaseResult) float64 { return p.speed.factor() })
	res.Raw, _, _, _ = timeMetrics(slices, func(*phaseResult) float64 { return 1 })
	m := res.Metrics
	m["setup_s"], res.Raw["setup_s"] = setupS/setupSlow, setupS
	m["alloc_kb_per_query"] = median(alloc)
	// Memory is returned and the kernel's high-water mark restarted before
	// every slice, so each peak is one slice's own — not that of set-up or of
	// the twin that answered the references — and the median of the slices'
	// peaks is not one unlucky collection cycle's.
	m["peak_rss_mb"] = median(rss)
}
