package strategies

// The cross-query inference scheduler, seen from the strategies.
//
// DB-UDF's native backend and DB-PyTorch's serving backend (breaker, retry
// loop and fault points included) are built once per Context. Both
// strategies hand env.Scheduler to infer (infercache.go): with one armed,
// their misses are one submission, coalesced with concurrent queries'
// batches and single-flighted onto identical in-flight requests, and its
// shared cache is Context.InferCache. The DL2SQL pair never uses it (see
// fallbackFor).

import "repro/internal/schedule"

// EnableScheduler wires a cross-query inference scheduler into the
// strategies layer and returns it (callers hand it to the server and to
// schedule.RegisterSysTable). Zero-value cfg fields inherit the Context's
// own wiring: the shared prediction cache defaults to env.InferCache (set
// Metrics / EnableInferCache first so instruments and memoization are
// shared), the metrics registry to env.Metrics, and the fault injector to
// env.Faults. DB-UDF and DB-PyTorch only route through the scheduler while
// env.Scheduler is non-nil, so tests turn it off by clearing the field.
func (env *Context) EnableScheduler(cfg schedule.Config) *schedule.Scheduler {
	if cfg.Cache == nil {
		cfg.Cache = env.InferCache
	}
	if cfg.Metrics == nil {
		cfg.Metrics = env.Metrics
	}
	if cfg.Faults == nil {
		cfg.Faults = env.Faults
	}
	env.Scheduler = schedule.New(cfg)
	return env.Scheduler
}
