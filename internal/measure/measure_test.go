package measure

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"
)

// schedule runs Rounds over k arms that log each call as {arm, round} and
// return how many calls their arm has had, the warm-up being call 1.
func schedule(t *testing.T, n, k int) (calls [][2]int, runs [][]int) {
	t.Helper()
	arms := make([]func(int) (int, error), k)
	for i := range arms {
		count := 0
		arms[i] = func(round int) (int, error) {
			calls = append(calls, [2]int{i, round})
			count++
			return count, nil
		}
	}
	runs, err := Rounds(n, arms...)
	if err != nil {
		t.Fatal(err)
	}
	return calls, runs
}

// TestRoundsRotateArms: after one warm-up per arm, in order, round r runs
// every arm once starting with arm r mod k, so each arm leads ⌊n/k⌋ or
// ⌈n/k⌉ rounds and two arms alternate, the first arm first; the warm-ups'
// results are discarded.
func TestRoundsRotateArms(t *testing.T) {
	for k := 1; k <= 4; k++ {
		for _, n := range []int{1, 2, 5, 7, 15} {
			calls, runs := schedule(t, n, k)
			led := make([]int, k)
			for c, call := range calls {
				r, j := c/k-1, c%k // r == -1 is the warm-up
				want := [2]int{j, 0}
				if r >= 0 {
					want = [2]int{(r + j) % k, r}
					if j == 0 {
						led[call[0]]++
					}
				}
				if call != want {
					t.Fatalf("k=%d n=%d: call %d ran %v, want arm %d in round %d", k, n, c, call, want[0], want[1])
				}
			}
			for i := range runs {
				if led[i] != n/k && led[i] != (n+k-1)/k {
					t.Fatalf("k=%d n=%d: arm %d led %d rounds, want %d or %d", k, n, i, led[i], n/k, (n+k-1)/k)
				}
				// Call 1 was the warm-up, so the rounds return calls 2..n+1.
				if len(runs[i]) != n || runs[i][0] != 2 || runs[i][n-1] != n+1 {
					t.Fatalf("k=%d n=%d: arm %d returned %v, want its calls 2..%d", k, n, i, runs[i], n+1)
				}
			}
		}
	}
}

func TestRoundsCollectBeforeEveryRunAndStopAtAnError(t *testing.T) {
	boom := errors.New("boom")
	var gcs []uint32
	arm := func(round int) (int, error) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		gcs = append(gcs, ms.NumGC)
		if round == 3 {
			return 0, boom
		}
		return 0, nil
	}
	if runs, err := Rounds(5, arm, arm); !errors.Is(err, boom) || runs != nil {
		t.Fatalf("runs %v, err %v, want nil and %v", runs, err, boom)
	}
	if len(gcs) != 2+2*3+1 { // two warm-ups, rounds 0-2, the failing run
		t.Fatalf("%d runs before stopping, want 9", len(gcs))
	}
	for i := 1; i < len(gcs); i++ {
		if gcs[i] <= gcs[i-1] {
			t.Fatalf("no collection before run %d: NumGC %v", i, gcs)
		}
	}
}

func TestMedianAndRatio(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{5, 1, 9, 3, 7}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := slices.Clone(tc.xs)
		if got := Median(in); got != tc.want || !slices.Equal(in, tc.xs) {
			t.Errorf("Median(%v) = %v (input now %v), want %v and the input unchanged", tc.xs, got, in, tc.want)
		}
	}
	// The per-round ratios are 2, 0.5 and 3: their median is 2, while the
	// ratio of the medians (2/3) and that of the sums (13/8) differ.
	if got := Ratio([]float64{1, 4, 3}, []float64{2, 2, 9}); got != 2 {
		t.Errorf("Ratio = %v, want 2", got)
	}
}

func TestCPUTimeAdvancesWithWork(t *testing.T) {
	start := CPUTime()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline) && CPUTime()-start < 20*time.Millisecond; {
	}
	if d := CPUTime() - start; d < 20*time.Millisecond {
		t.Fatalf("CPU time advanced %v over a second's busy loop, want >= 20ms", d)
	}
}
