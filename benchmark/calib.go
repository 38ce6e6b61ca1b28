package main

import (
	"sort"
	"time"
)

// The machine this benchmark runs on changes speed, whatever the program
// does. Its cores step between clock rates about 3.5 % apart several times a
// second (a fixed loop takes 48.5, 53.2, 55.0 or 56.9 us, nothing between),
// and for minutes at a time it runs slower still: within one pass of ten
// runs, the same operations — allocations equal to a thousandth — took 57 ms
// of CPU each at the start and 82 ms at the end. A calibrator measures that
// speed while the workload runs, so that times can be reported at one
// reference speed beside the times as measured.
//
// Each session runs bursts of fixed work between its operations, about one
// part in twenty-five of its time, so the bursts sample the same stretch of
// time, on the same cores, as the operations; a closed-loop session has no
// operation in flight between two of them. Sampling that often matters: a
// burst after every round only (a quarter of a second apart on the slowest
// workload) saw one clock rate where the round had seen several, and a
// slice's slowdown then had more scatter than its throughput.
//
// A burst is one chunk that is not timed, which brings the working set back
// into the caches the program's work pushed it out of, and then timed
// chunks, of which the median counts: what the program itself does to a
// chunk now and then (a garbage collector's worker on the same core) stays
// out, what the machine does to all of them stays in. A slice's slowdown is
// the mean over its bursts, weighted by their length, over chunkNominal.
// Times are divided by it; counts (allocations, resident memory) are left
// alone, and every run reports its slowdown and its times as measured as
// well.

const (
	// chunkNominal is what one chunk takes on the reference machine — this
	// sandbox at the clock rate it mostly runs at. It fixes the scale of the
	// reported times and nothing else: two runs compare the same whatever
	// it is.
	chunkNominal = 104 * time.Microsecond
	// calibShare is the share of a session's time spent in bursts.
	calibShare = 0.04
	// burstMin is the fewest timed chunks a burst is worth running for.
	burstMin = 4
)

// calibrator holds the chunk's working set: a matrix product that stays in
// the first-level cache and a pass over a buffer that does not, so both
// arithmetic and memory traffic are sampled.
type calibrator struct {
	a, b, c []float64
	buf     []float64
	sink    float64
	times   []float64     // a burst's chunk times, kept so that a burst allocates nothing
	last    time.Duration // the median chunk of the burst before
}

const (
	calibDim = 40
	calibBuf = 1 << 16 // 512 KiB of float64
)

func newCalibrator() *calibrator {
	k := &calibrator{
		a: make([]float64, calibDim*calibDim), b: make([]float64, calibDim*calibDim),
		c: make([]float64, calibDim*calibDim), buf: make([]float64, calibBuf),
		last: chunkNominal,
	}
	for i := range k.a {
		k.a[i], k.b[i] = float64(i%7)+0.5, float64(i%5)-1.5
	}
	for i := range k.buf {
		k.buf[i] = float64(i % 11)
	}
	return k
}

// chunk does the fixed work once and returns how long it took.
func (k *calibrator) chunk() time.Duration {
	start := time.Now()
	n := calibDim
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for l := 0; l < n; l++ {
				sum += k.a[i*n+l] * k.b[l*n+j]
			}
			k.c[i*n+j] = sum
		}
	}
	sum := 0.0
	for _, v := range k.buf {
		sum += v
	}
	k.sink += sum + k.c[0]
	return time.Since(start)
}

// speed accumulates bursts.
type speed struct {
	chunks int           // timed chunks
	sum    time.Duration // each burst's median chunk times its length
	spent  time.Duration // everything the bursts took, untimed chunks included
}

func (s *speed) add(o speed) {
	s.chunks += o.chunks
	s.sum += o.sum
	s.spent += o.spent
}

// burst spends about budget on one untimed chunk and then timed ones, if
// that buys at least burstMin of them at the pace of the burst before, and
// reports whether it ran.
func (s *speed) burst(k *calibrator, budget time.Duration) bool {
	n := int(budget/k.last) - 1
	if n < burstMin {
		return false
	}
	start := time.Now()
	k.chunk()
	k.times = k.times[:0]
	for i := 0; i < n; i++ {
		k.times = append(k.times, float64(k.chunk()))
	}
	sort.Float64s(k.times) // in place: median() would allocate a copy
	k.last = time.Duration((k.times[(n-1)/2] + k.times[n/2]) / 2)
	s.sum += k.last * time.Duration(n)
	s.chunks += n
	s.spent += time.Since(start)
	return true
}

// factor is how many times slower than the reference the machine ran; 1
// when nothing was sampled.
func (s speed) factor() float64 {
	if s.chunks == 0 {
		return 1
	}
	return float64(s.sum) / float64(s.chunks) / float64(chunkNominal)
}
