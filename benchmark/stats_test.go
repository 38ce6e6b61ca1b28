package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns; the acceptance procedure computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 40}, 10, 40},
	} {
		q1, q3, ok := quartiles(c.in)
		if !ok || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.in, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample must be refused")
	}
	if got, ok := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !ok || got != 1 {
		t.Errorf("spread = %v, %v; want 1 (5.5 / 5.5)", got, ok)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{200, 95, 190, true},    // exactly ten samples beyond
		{199, 95, 190, false},   // nine beyond: refused
		{100, 95, 95, false},    // five beyond
		{1000, 99, 990, true},   // p99 needs a thousand
		{999, 99, 990, false},   // nine beyond
		{20, 50, 10, true},      // the median of twenty keeps ten beyond
		{0, 50, 0, false},       // nothing to rank
		{200, 100, 0, false},    // not a percentile
		{200, 0, 0, false},      // not a percentile
		{200, 99.9, 200, false}, // the maximum has nothing beyond it
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestRelDiff(t *testing.T) {
	for _, c := range []struct{ a, b, want float64 }{
		{100, 110, 0.1},
		{100, 90, -0.1},
		{-4, -2, 0.5},
		{0, 0, 0},
	} {
		if got := relDiff(c.a, c.b); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("relDiff(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if got := relDiff(0, 1); !math.IsInf(got, 1) {
		t.Errorf("relDiff(0, 1) = %v, want +Inf", got)
	}
}

func TestCPUTimeAdvances(t *testing.T) {
	start := cpuTime()
	x := 0.0
	for i := 0; i < 20_000_000; i++ {
		x += math.Sqrt(float64(i))
	}
	if d := cpuTime() - start; d <= 0 {
		t.Errorf("cpuTime advanced by %v over a busy loop (sum %v)", d, x)
	}
	if peakRSSMiB() <= 0 {
		t.Error("peakRSSMiB is not positive")
	}
}
