package bench

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/colquery"
	"repro/internal/hwprofile"
	"repro/internal/iotdata"
	"repro/internal/modelrepo"
	"repro/internal/obs"
	"repro/internal/strategies"
)

// Config sizes the experimental fixtures. The defaults are laptop-scale:
// the paper's absolute setting (100 M tuples, 224×224 keyframes, 100
// queries per type) is reachable by raising these knobs, but every
// comparative shape the paper reports already emerges at this scale.
type Config struct {
	// Scale is the iotdata scale unit (video gets 100×Scale rows).
	Scale int
	// KeyframeSide is the keyframe resolution.
	KeyframeSide int
	// QueriesPerType is how many queries of each type the mixed benchmark
	// runs (the paper uses 100).
	QueriesPerType int
	// Selectivity is the default accumulated relational selectivity
	// (paper default 0.01% = 0.0001; scaled datasets need larger values to
	// keep at least a few matching rows).
	Selectivity float64
	// CalibrationSamples sizes the offline histogram calibration.
	CalibrationSamples int
	// Depths are the ResNet depths for Table IV / Table VI.
	Depths []int
	// Seed drives all pseudo-randomness.
	Seed int64
	// Parallelism is the SQL executor's worker degree: 0 = process default
	// (runtime.NumCPU()), 1 = serial, N > 1 = up to N workers per operator.
	Parallelism int
}

// DefaultConfig returns the laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		Scale:              2,
		KeyframeSide:       8,
		QueriesPerType:     2,
		Selectivity:        0.05,
		CalibrationSamples: 30,
		Depths:             []int{5, 10, 15, 20, 25, 30, 35, 40},
		Seed:               42,
	}
}

// Suite owns the shared fixtures for all experiments.
type Suite struct {
	Cfg  Config
	Ctx  *strategies.Context
	Repo *modelrepo.Repository
}

// NewSuite generates the dataset, builds the model repository, and binds
// the template nUDFs.
func NewSuite(cfg Config) (*Suite, error) {
	ds, err := iotdata.Generate(iotdata.Config{
		Scale:        cfg.Scale,
		KeyframeSide: cfg.KeyframeSide,
		Seed:         cfg.Seed,
		PatternCount: 6,
	})
	if err != nil {
		return nil, err
	}
	ctx := strategies.NewContext(ds)
	ctx.Metrics = obs.NewRegistry()
	// The executor shares the suite registry, so parallel operator/morsel
	// counters land in MetricsReport next to the strategy histograms.
	ds.DB.Parallelism = cfg.Parallelism
	ds.DB.Metrics = ctx.Metrics
	repo := modelrepo.NewRepository(cfg.KeyframeSide, cfg.Seed)
	if err := ctx.BindDefaults(repo, cfg.CalibrationSamples); err != nil {
		return nil, err
	}
	return &Suite{Cfg: cfg, Ctx: ctx, Repo: repo}, nil
}

// MetricsReport snapshots the suite's metrics registry — every strategy
// execution performed so far, as per-strategy query counters and phase
// latency quantiles — into a renderable table. Run it after the experiments
// so the report covers them.
func (s *Suite) MetricsReport() (*Table, error) {
	t := &Table{
		ID:      "Metrics",
		Title:   "accumulated per-strategy phase latencies across all executions",
		Columns: []string{"histogram", "count", "p50 (s)", "p95 (s)", "p99 (s)", "mean (s)", "max (s)"},
	}
	if s.Ctx.Metrics == nil {
		t.Notes = append(t.Notes, "metrics registry disabled")
		return t, nil
	}
	snap := s.Ctx.Metrics.Snapshot()
	names := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := snap.Histograms[name]
		t.AddRow(name, fmt.Sprintf("%d", h.Count),
			f4(h.P50), f4(h.P95), f4(h.P99), f4(h.Mean), f4(h.Max))
	}
	ctrs := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		ctrs = append(ctrs, name)
	}
	sort.Strings(ctrs)
	for _, name := range ctrs {
		t.Notes = append(t.Notes, fmt.Sprintf("%s = %d", name, snap.Counters[name]))
	}
	return t, nil
}

// runMix executes the mixed query benchmark under one strategy and profile,
// returning the average per-query breakdown.
func (s *Suite) runMix(strat strategies.Strategy, profile hwprofile.Profile, nPerType int, sel float64) (strategies.CostBreakdown, error) {
	old := s.Ctx.Profile
	s.Ctx.Profile = profile
	defer func() { s.Ctx.Profile = old }()
	queries, err := colquery.Mix(nPerType, sel)
	if err != nil {
		return strategies.CostBreakdown{}, err
	}
	var total strategies.CostBreakdown
	for _, q := range queries {
		_, bd, err := strat.Execute(context.Background(), s.Ctx, q)
		if err != nil {
			return total, fmt.Errorf("bench: %s on %v: %w", strat.Name(), q.Type, err)
		}
		total.Add(bd)
	}
	return total.Scale(float64(len(queries))), nil
}

// runType executes n queries of one type under one strategy on the edge
// profile.
func (s *Suite) runType(strat strategies.Strategy, typ colquery.QueryType, n int, sel float64) (strategies.CostBreakdown, error) {
	var total strategies.CostBreakdown
	for i := 0; i < n; i++ {
		q, err := colquery.GenerateAnalyzed(typ, colquery.TemplateParams{Selectivity: sel})
		if err != nil {
			return total, err
		}
		_, bd, err := strat.Execute(context.Background(), s.Ctx, q)
		if err != nil {
			return total, fmt.Errorf("bench: %s on %v: %w", strat.Name(), typ, err)
		}
		total.Add(bd)
	}
	return total.Scale(float64(n)), nil
}
