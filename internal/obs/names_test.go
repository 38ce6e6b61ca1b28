package obs

import (
	"strings"
	"testing"
)

func TestValidMetricName(t *testing.T) {
	valid := []string{
		MetricParallelOps,
		MetricParallelMorsels,
		MetricPlanInvalidations,
		MetricQueries,
		MetricQueryErrors,
		MetricSlowQueries,
		MetricQueryWallSeconds,
		MetricServingRetries,
		MetricServingBreakerRejected,
		MetricFallbackTotal,
		MetricDL2SQLModelsStored,
		StrategyMetric("DB-PyTorch", "total_s"),
		StrategyMetric("DL2SQL-OP", "queries"),
		FallbackMetric("DB-PyTorch", "DB-UDF"),
		CacheMetric(CachePrefixStmt, CacheSuffixHits),
		CacheMetric(CachePrefixPlan, CacheSuffixMisses),
		CacheMetric(CachePrefixInfer, CacheSuffixEvictions),
	}
	for _, name := range valid {
		if !ValidMetricName(name) {
			t.Errorf("ValidMetricName(%q) = false, want true", name)
		}
	}
	invalid := []string{
		"", ".", "x.", ".x", "a..b", "9lives", "has space", "tab\tchar", "semi;colon", "_lead",
	}
	for _, name := range invalid {
		if ValidMetricName(name) {
			t.Errorf("ValidMetricName(%q) = true, want false", name)
		}
	}
}

func TestRegistryCheck(t *testing.T) {
	var nilReg *Registry
	if err := nilReg.Check(); err != nil {
		t.Fatalf("nil registry check: %v", err)
	}
	r := NewRegistry()
	if err := r.Check(); err != nil {
		t.Fatalf("empty registry check: %v", err)
	}
	r.Counter(MetricQueries).Add(1)
	r.Gauge("sqldb.tables").Set(3)
	r.Histogram(StrategyMetric("DB-UDF", "total_s")).Observe(0.1)
	if err := r.Check(); err != nil {
		t.Fatalf("well-formed registry check: %v", err)
	}

	// A cross-kind duplicate is a call-site typo: reject it.
	r.Gauge(MetricQueries).Set(1)
	err := r.Check()
	if err == nil || !strings.Contains(err.Error(), MetricQueries) {
		t.Fatalf("duplicate name not reported: %v", err)
	}

	// A malformed name is rejected too.
	r2 := NewRegistry()
	r2.Counter("bad name with spaces").Add(1)
	err = r2.Check()
	if err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("malformed name not reported: %v", err)
	}
}
