// Package measure is the one measurement core of the repository's timed
// comparisons: the performance gates, the per-step figures (Fig. 9, 11 and
// 13) and the wall-clock shape tests. It holds the round scheduler, the
// median, the median per-round ratio and the process's CPU time. It imports
// only the standard library, so any package's tests may use it.
package measure

import (
	"runtime"
	"slices"
	"syscall"
	"time"
)

// Rounds compares arms under one discipline. It runs one discarded warm-up
// of every arm, in order, then n rounds in each of which every arm runs
// once, and returns runs[arm][round]. The heap is collected before every
// run, so no run pays for another's garbage. Round r starts with arm
// r mod len(arms) and runs the others after it in order, so each arm leads
// ⌊n/k⌋ or ⌈n/k⌉ of the rounds and drift and order effects land on every
// arm alike; two arms alternate, the first arm first. An arm is passed the
// index of its round (the warm-up is passed 0), so every arm of a round can
// run on the same input. The first error an arm returns stops the rounds
// and is returned.
func Rounds[T any](n int, arms ...func(round int) (T, error)) ([][]T, error) {
	for _, arm := range arms {
		runtime.GC()
		if _, err := arm(0); err != nil {
			return nil, err
		}
	}
	runs := make([][]T, len(arms))
	for r := 0; r < n; r++ {
		for k := range arms {
			i := (r + k) % len(arms)
			runtime.GC()
			v, err := arms[i](r)
			if err != nil {
				return nil, err
			}
			runs[i] = append(runs[i], v)
		}
	}
	return runs, nil
}

// Median returns the median of xs, the mean of the middle two when len(xs)
// is even. xs must not be empty; it is left unsorted.
func Median(xs []float64) float64 {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Ratio is the median over rounds of cand[r]/base[r], for costs measured
// by Rounds. The two runs of a round are close in time, so each ratio
// cancels the machine's drift.
func Ratio(base, cand []float64) float64 {
	ratios := make([]float64, len(base))
	for r := range ratios {
		ratios[r] = cand[r] / base[r]
	}
	return Median(ratios)
}

// CPUTime is the CPU time the process has consumed, user plus system. Unlike
// wall time, it does not bill the process for time a shared core spent on
// someone else.
func CPUTime() time.Duration {
	var ru syscall.Rusage
	// getrusage fails only on a bad pointer or an unknown who.
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("measure: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
