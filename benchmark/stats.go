package main

import (
	"math"
	"os"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// mean returns the arithmetic mean, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the middle value (mean of the two middle values for an
// even count), 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so a spread
// computed here equals the one the acceptance procedure computes. It needs
// two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	s := sorted(xs)
	m := len(s)
	if m < 2 {
		return 0, 0, false
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3), true
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) (float64, bool) {
	q1, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(med), true
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// ascending samples. It refuses, with ok false, when fewer than ten samples
// lie beyond the returned one: a tail estimated from less is one slow
// operation, not a percentile.
func percentile(ascending []float64, p float64) (v float64, ok bool) {
	n := len(ascending)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	return ascending[rank-1], n-rank >= 10
}

// relDiff is (b-a)/|a|: how far b moved from a as a share of a.
func relDiff(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / math.Abs(a)
}

// cpuTime is the user+system CPU time this process has consumed so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed memory to the operating system and restarts
// the kernel's high-water mark of the resident set (Linux: "5" written to
// /proc/self/clear_refs), so that a later peakRSSMiB belongs to what ran in
// between. Where the mark cannot be restarted, the peak stays the whole
// process's.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
