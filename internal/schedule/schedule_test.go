package schedule

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/faults"
	"repro/internal/iotdata"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/tensor"
)

// countingBackend predicts blob[0] as the class and records every blob it
// physically sees, plus a per-call gate for chaos tests.
type countingBackend struct {
	mu      sync.Mutex
	blobs   [][]byte
	calls   int
	block   chan struct{} // when non-nil, Run parks here first
	failErr error         // when non-nil, Run fails with it
}

// keyOf is the submission key of blob under the model hashed model.
func keyOf(model uint64, blob []byte) Key { return Key{Model: model, Input: tensor.HashBytes(blob)} }

func (cb *countingBackend) backend() *Backend {
	return &Backend{
		ID: "counting",
		Run: func(ctx context.Context, _ uint64, artifact []byte, blobs [][]byte) ([]int, BackendStats, error) {
			cb.mu.Lock()
			cb.calls++
			cb.blobs = append(cb.blobs, blobs...)
			block, failErr := cb.block, cb.failErr
			cb.mu.Unlock()
			if block != nil {
				select {
				case <-block:
				case <-ctx.Done():
					return nil, BackendStats{}, qerr.FromContext(ctx.Err())
				}
			}
			if failErr != nil {
				return nil, BackendStats{}, failErr
			}
			out := make([]int, len(blobs))
			for i, b := range blobs {
				out[i] = int(b[0])
			}
			return out, BackendStats{InferSeconds: 0.001 * float64(len(blobs))}, nil
		},
	}
}

func (cb *countingBackend) seen() int {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	return len(cb.blobs)
}

func blobN(n int) []byte { return []byte{byte(n), 0xAB} }

// inferOne submits blob alone, under the model hashed model: the
// one-key submission the concurrent tests race against each other.
func inferOne(ctx context.Context, s *Scheduler, be *Backend, model uint64, art, blob []byte) (int, Share, error) {
	classes, share, err := s.Infer(ctx, be, art, []Key{keyOf(model, blob)}, [][]byte{blob})
	if err != nil {
		return 0, share, err
	}
	return classes[0], share, nil
}

func TestCoalescesConcurrentSubmissions(t *testing.T) {
	s := New(Config{MaxBatch: 64, Window: 20 * time.Millisecond})
	defer s.Drain()
	cb := &countingBackend{}
	be := cb.backend()
	art := []byte("artifact-A")
	const n = 24
	var wg sync.WaitGroup
	errs := make([]error, n)
	res := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], _, errs[i] = inferOne(context.Background(), s, be, 1, art, blobN(i))
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submission %d: %v", i, errs[i])
		}
		if res[i] != i {
			t.Fatalf("submission %d: class %d", i, res[i])
		}
	}
	st := s.Stats()
	if st.Batches >= n {
		t.Fatalf("no coalescing: %d batches for %d submissions", st.Batches, n)
	}
	if st.MaxBatch < 2 {
		t.Fatalf("max batch %d, want >= 2", st.MaxBatch)
	}
	if st.Executed != n {
		t.Fatalf("executed %d, want %d", st.Executed, n)
	}
}

func TestMaxBatchFlushesWithoutWindow(t *testing.T) {
	// With a near-infinite window, hitting MaxBatch must flush immediately.
	s := New(Config{MaxBatch: 4, Window: time.Hour})
	defer s.Drain()
	cb := &countingBackend{}
	be := cb.backend()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := inferOne(context.Background(), s, be, 1, []byte("a"), blobN(i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("full batch never flushed")
	}
	if st := s.Stats(); st.Batches != 1 || st.MaxBatch != 4 {
		t.Fatalf("stats %+v, want one batch of 4", st)
	}
}

// submitRange submits blobN(lo), …, blobN(lo+n-1) as one submission
// under model 1.
func submitRange(ctx context.Context, s *Scheduler, be *Backend, lo, n int) ([]int, Share, error) {
	keys := make([]Key, n)
	blobs := make([][]byte, n)
	for i := range blobs {
		blobs[i] = blobN(lo + i)
		keys[i] = keyOf(1, blobs[i])
	}
	return s.Infer(ctx, be, []byte("a"), keys, blobs)
}

// TestSubmissionSplitsAtMaxBatch: one submission of n keys reaches the
// backend as ⌈n/4⌉ batches at MaxBatch 4, each a run of consecutive
// positions, and gets its classes back in position order with every
// position in its share.
func TestSubmissionSplitsAtMaxBatch(t *testing.T) {
	s := New(Config{MaxBatch: 4, Window: time.Millisecond})
	defer s.Drain()
	var mu sync.Mutex
	var calls [][]int // the classes of each backend call, in call order
	be := &Backend{ID: "recording", Run: func(_ context.Context, _ uint64, _ []byte, blobs [][]byte) ([]int, BackendStats, error) {
		out := make([]int, len(blobs))
		for i, b := range blobs {
			out[i] = int(b[0])
		}
		mu.Lock()
		calls = append(calls, out)
		mu.Unlock()
		return out, BackendStats{}, nil
	}}
	for _, n := range []int{1, 4, 10, 13} {
		mu.Lock()
		calls = nil
		mu.Unlock()
		classes, share, err := submitRange(context.Background(), s, be, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if classes[i] != i || share.Ran[i] != i {
				t.Fatalf("n=%d: position %d got class %d, share %v", n, i, classes[i], share.Ran)
			}
		}
		mu.Lock()
		got := slices.Clone(calls)
		mu.Unlock()
		if len(got) != (n+3)/4 {
			t.Fatalf("n=%d: %d backend calls, want %d", n, len(got), (n+3)/4)
		}
		// Full batches run concurrently, so order the calls by their first
		// position before checking they tile the submission.
		slices.SortFunc(got, func(a, b []int) int { return a[0] - b[0] })
		var all []int
		for j, c := range got {
			if want := min(4, n-4*j); len(c) != want {
				t.Fatalf("n=%d: batch %d holds %d keys, want %d", n, j, len(c), want)
			}
			all = append(all, c...)
		}
		for i, c := range all {
			if c != i {
				t.Fatalf("n=%d: batches %v are not in position order", n, got)
			}
		}
	}
}

// TestConcurrentSubmissionsCoalesce: two submissions in flight at once
// share one batch — the second fills the first's pending queue to MaxBatch
// — and each is charged its own positions' shares of it.
func TestConcurrentSubmissionsCoalesce(t *testing.T) {
	s := New(Config{MaxBatch: 6, Window: time.Hour}) // only a full queue flushes
	defer s.Drain()
	cb := &countingBackend{}
	be := cb.backend()
	type outcome struct {
		classes []int
		share   Share
		err     error
	}
	first := make(chan outcome, 1)
	go func() {
		classes, share, err := submitRange(context.Background(), s, be, 0, 3)
		first <- outcome{classes, share, err}
	}()
	for s.Stats().QueueDepth < 3 {
		time.Sleep(time.Millisecond)
	}
	classes, share, err := submitRange(context.Background(), s, be, 3, 3)
	a, b := <-first, outcome{classes, share, err}
	for j, o := range []outcome{a, b} {
		if o.err != nil {
			t.Fatal(o.err)
		}
		if !slices.Equal(o.classes, []int{3 * j, 3*j + 1, 3*j + 2}) || !slices.Equal(o.share.Ran, []int{0, 1, 2}) {
			t.Fatalf("submission %d: classes %v, share %+v", j, o.classes, o.share)
		}
		// The backend reports 1 ms per blob: half the batch's 6 ms.
		if math.Abs(o.share.InferSeconds-0.003) > 1e-12 {
			t.Fatalf("submission %d charged %v s of inference, want 0.003", j, o.share.InferSeconds)
		}
	}
	if st := s.Stats(); st.Batches != 1 || st.MaxBatch != 6 || st.Submitted != 6 || cb.calls != 1 {
		t.Fatalf("stats %+v after %d backend calls, want one batch of 6", st, cb.calls)
	}
}

// TestSubmissionAnswersFromCacheAndItself: within one submission, a key
// the shared cache holds is answered there and a repeated key rides the
// first occurrence's flight; only the first occurrence is queued.
func TestSubmissionAnswersFromCacheAndItself(t *testing.T) {
	lru := cache.New[Key, int](8)
	s := New(Config{Cache: lru, Window: time.Millisecond})
	defer s.Drain()
	cb := &countingBackend{}
	x, y := blobN(5), blobN(6)
	lru.Put(keyOf(1, y), 6)
	classes, share, err := s.Infer(context.Background(), cb.backend(), []byte("a"),
		[]Key{keyOf(1, x), keyOf(1, y), keyOf(1, x)}, [][]byte{x, y, x})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(classes, []int{5, 6, 5}) || !slices.Equal(share.Ran, []int{0}) {
		t.Fatalf("classes %v, share %+v", classes, share)
	}
	if st := s.Stats(); st.Submitted != 3 || st.CacheHits != 1 || st.DedupHits != 1 || st.Executed != 1 {
		t.Fatalf("stats %+v, want 3 submitted: 1 cache hit, 1 dedup, 1 executed", st)
	}
}

func TestSingleFlightDedup(t *testing.T) {
	s := New(Config{MaxBatch: 64, Window: 20 * time.Millisecond})
	defer s.Drain()
	cb := &countingBackend{block: make(chan struct{})}
	be := cb.backend()
	art := []byte("artifact-A")
	blob := blobN(7)
	const n = 16
	var wg sync.WaitGroup
	classes := make([]int, n)
	shares := make([]Share, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, share, err := inferOne(context.Background(), s, be, 1, art, blob)
			if err != nil {
				t.Error(err)
				return
			}
			classes[i], shares[i] = c, share
		}(i)
	}
	// Let every submission park, then release the backend.
	for s.Stats().DedupHits < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(cb.block)
	wg.Wait()
	if got := cb.seen(); got != 1 {
		t.Fatalf("backend saw %d blobs, want 1 (single-flight)", got)
	}
	// The leader's share holds the forward pass; a follower's is empty.
	leaders, followers := 0, 0
	for i, share := range shares {
		if classes[i] != 7 {
			t.Fatalf("wrong class %d", classes[i])
		}
		switch len(share.Ran) {
		case 1:
			leaders++
		case 0:
			followers++
			if share.InferSeconds != 0 || share.WallSeconds != 0 {
				t.Fatal("dedup follower charged compute time")
			}
		}
	}
	if leaders != 1 || followers != n-1 {
		t.Fatalf("leaders=%d followers=%d, want 1/%d", leaders, followers, n-1)
	}
}

func TestSharedCacheHit(t *testing.T) {
	lru := cache.New[Key, int](8)
	s := New(Config{Cache: lru, Window: time.Millisecond})
	defer s.Drain()
	cb := &countingBackend{}
	be := cb.backend()
	blob := blobN(3)
	if _, _, err := inferOne(context.Background(), s, be, 1, []byte("a"), blob); err != nil {
		t.Fatal(err)
	}
	c, share, err := inferOne(context.Background(), s, be, 1, []byte("a"), blob)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheHits != 1 || len(share.Ran) != 0 || c != 3 {
		t.Fatalf("second submission: class %d, share %+v, stats %+v; want a cache hit of class 3", c, share, st)
	}
	if cb.seen() != 1 {
		t.Fatalf("backend saw %d blobs, want 1", cb.seen())
	}
	// The cache was populated with the scheduler's Key, so external users
	// of the same LRU (the strategies' InferCache) see the entry too.
	if _, ok := lru.Get(Key{Model: 1, Input: tensor.HashBytes(blob)}); !ok {
		t.Fatal("batch result not visible in the shared cache")
	}
}

func TestCancelledWaiterDoesNotPoisonBatch(t *testing.T) {
	s := New(Config{MaxBatch: 64, Window: 10 * time.Millisecond})
	defer s.Drain()
	cb := &countingBackend{block: make(chan struct{})}
	be := cb.backend()
	art := []byte("artifact-A")

	cancelCtx, cancel := context.WithCancel(context.Background())
	victimErr := make(chan error, 1)
	go func() {
		_, _, err := inferOne(cancelCtx, s, be, 1, art, blobN(0))
		victimErr <- err
	}()
	const mates = 6
	var wg sync.WaitGroup
	mateRes := make([]int, mates)
	mateErr := make([]error, mates)
	for i := 0; i < mates; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mateRes[i], _, mateErr[i] = inferOne(context.Background(), s, be, 1, art, blobN(i+1))
		}(i)
	}
	// Wait until all 7 are parked in one in-flight batch, then cancel the
	// victim mid-flight.
	for s.Stats().InflightKeys < mates+1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-victimErr:
		if !errors.Is(err, qerr.ErrCancelled) {
			t.Fatalf("victim error %v, want ErrCancelled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return while its batch was blocked")
	}
	// The batch is still blocked; releasing it must complete the mates.
	close(cb.block)
	wg.Wait()
	for i := 0; i < mates; i++ {
		if mateErr[i] != nil {
			t.Fatalf("batchmate %d poisoned by cancelled waiter: %v", i, mateErr[i])
		}
		if mateRes[i] != i+1 {
			t.Fatalf("batchmate %d: class %d", i, mateRes[i])
		}
	}
	// The victim's own forward pass still ran and populated nothing wrong:
	// the batch executed under the scheduler's context, all blobs included.
	if st := s.Stats(); st.Executed != mates+1 {
		t.Fatalf("executed %d, want %d (cancelled waiter's pass still runs)", st.Executed, mates+1)
	}
}

// TestWaitersStampTheirOwnSpans pins the span ownership contract across the
// scheduler: the batch goroutine never touches a waiter's span. A waiter
// cancelled mid-batch finishes (and flattens) its trace while the batch is
// still running — run with -race — and the surviving waiter stamps its own
// sched:infer span with the batch size and both waiters' trace IDs.
func TestWaitersStampTheirOwnSpans(t *testing.T) {
	store := obs.NewTraceStore(obs.TraceStoreConfig{Seed: 1, SampleEvery: 1})
	s := New(Config{MaxBatch: 2, Window: time.Hour}) // the second submission launches the batch
	defer s.Drain()
	cb := &countingBackend{block: make(chan struct{})}
	be := cb.backend()
	art := []byte("artifact-A")

	type waiter struct {
		traceID string
		err     error
	}
	var wg sync.WaitGroup
	submit := func(ctx context.Context, n int, w *waiter) (inferReturned chan struct{}) {
		inferReturned = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, scope := store.Enter(ctx, "query", "query", time.Now())
			w.traceID = obs.TraceIDFromContext(ctx)
			_, _, w.err = inferOne(ctx, s, be, 1, art, blobN(n))
			close(inferReturned)
			// From here on nothing orders this goroutine against the batch:
			// Exit flattens the span tree while the backend may still run.
			scope.Exit(time.Now(), qerr.Class(w.err))
		}()
		return inferReturned
	}
	var victim, survivor waiter
	victimCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	victimReturned := submit(victimCtx, 0, &victim)
	for s.Stats().QueueDepth < 1 {
		time.Sleep(time.Millisecond)
	}
	submit(context.Background(), 1, &survivor)
	// Both parked in one batch that is blocked inside the backend.
	for cb.seen() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-victimReturned:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return while its batch was blocked")
	}
	close(cb.block)
	wg.Wait()

	if !errors.Is(victim.err, qerr.ErrCancelled) {
		t.Fatalf("victim error %v, want ErrCancelled", victim.err)
	}
	if survivor.err != nil {
		t.Fatalf("survivor: %v", survivor.err)
	}
	if st, ok := store.Get(victim.traceID); !ok || st.Reason != "error" {
		t.Fatalf("victim trace retained=%v (%+v), want kept for its error", ok, st)
	}
	st, ok := store.Get(survivor.traceID)
	if !ok {
		t.Fatal("survivor trace not retained")
	}
	var attrs string
	for _, r := range st.Spans {
		if r.Name == "sched:infer" {
			attrs = r.Attrs
		}
	}
	for _, want := range []string{"queued=1", "batches=1", "batch_size=2", "batch_waiters=", victim.traceID, survivor.traceID} {
		if !strings.Contains(attrs, want) {
			t.Fatalf("survivor's sched:infer attrs %q missing %q", attrs, want)
		}
	}
}

func TestBatchErrorSharedByAllWaiters(t *testing.T) {
	s := New(Config{Window: 5 * time.Millisecond})
	defer s.Drain()
	sentinel := fmt.Errorf("%w: backend melted", qerr.ErrServingUnavailable)
	cb := &countingBackend{failErr: sentinel}
	be := cb.backend()
	const n = 5
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = inferOne(context.Background(), s, be, 1, []byte("a"), blobN(i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, qerr.ErrServingUnavailable) {
			t.Fatalf("waiter %d: %v, want ErrServingUnavailable", i, err)
		}
	}
	// A failed batch must clear its single-flight entries so retries
	// re-submit instead of parking on a dead flight.
	if st := s.Stats(); st.InflightKeys != 0 {
		t.Fatalf("%d in-flight keys leaked after batch failure", st.InflightKeys)
	}
}

func TestBackendCountMismatchIsAvailabilityError(t *testing.T) {
	s := New(Config{Window: time.Millisecond})
	defer s.Drain()
	be := &Backend{ID: "short", Run: func(context.Context, uint64, []byte, [][]byte) ([]int, BackendStats, error) {
		return []int{1}, BackendStats{}, nil // always one result, even for n>1
	}}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = inferOne(context.Background(), s, be, 1, []byte("a"), blobN(i))
		}(i)
	}
	wg.Wait()
	mismatched := 0
	for _, err := range errs {
		if err != nil {
			if !errors.Is(err, qerr.ErrServingUnavailable) {
				t.Fatalf("count mismatch surfaced as %v", err)
			}
			mismatched++
		}
	}
	if mismatched == 0 {
		t.Fatal("short backend response went unnoticed")
	}
}

func TestDrainFlushesPendingAndRejectsNew(t *testing.T) {
	s := New(Config{MaxBatch: 64, Window: time.Hour}) // nothing flushes by timer
	cb := &countingBackend{}
	be := cb.backend()
	const n = 3
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = inferOne(context.Background(), s, be, 1, []byte("a"), blobN(i))
		}(i)
	}
	for s.Stats().QueueDepth < n {
		time.Sleep(time.Millisecond)
	}
	s.Drain() // must flush the parked batch, not strand its waiters
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("pre-drain waiter %d stranded: %v", i, err)
		}
	}
	_, _, err := inferOne(context.Background(), s, be, 1, []byte("a"), blobN(9))
	if !errors.Is(err, qerr.ErrServingUnavailable) {
		t.Fatalf("post-drain submission: %v, want ErrServingUnavailable", err)
	}
	if st := s.Stats(); !st.Draining || st.Rejected != 1 {
		t.Fatalf("post-drain stats %+v", st)
	}
}

func TestSubmitFaultInjection(t *testing.T) {
	inj := faults.New(1, faults.Rule{Point: faults.PointSchedSubmit})
	s := New(Config{Faults: inj, Window: time.Millisecond})
	defer s.Drain()
	cb := &countingBackend{}
	_, _, err := inferOne(context.Background(), s, cb.backend(), 1, []byte("a"), blobN(1))
	if !errors.Is(err, qerr.ErrServingUnavailable) {
		t.Fatalf("submit fault: %v", err)
	}
	if cb.seen() != 0 {
		t.Fatal("faulted submission reached the backend")
	}
}

func TestBatchFaultInjection(t *testing.T) {
	inj := faults.New(1, faults.Rule{Point: faults.PointSchedBatch})
	s := New(Config{Faults: inj, Window: time.Millisecond})
	defer s.Drain()
	cb := &countingBackend{}
	_, _, err := inferOne(context.Background(), s, cb.backend(), 1, []byte("a"), blobN(1))
	if !errors.Is(err, qerr.ErrServingUnavailable) {
		t.Fatalf("batch fault: %v", err)
	}
	if cb.calls != 0 {
		t.Fatal("faulted batch still ran the backend")
	}
}

func TestMetricsWired(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Metrics: reg, Window: time.Millisecond})
	defer s.Drain()
	cb := &countingBackend{}
	if _, _, err := inferOne(context.Background(), s, cb.backend(), 1, []byte("a"), blobN(1)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.MetricSchedSubmitted).Value(); got != 1 {
		t.Fatalf("%s = %v", obs.MetricSchedSubmitted, got)
	}
	if got := reg.Counter(obs.MetricSchedBatches).Value(); got != 1 {
		t.Fatalf("%s = %v", obs.MetricSchedBatches, got)
	}
	if err := reg.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestNativeBackendEndToEnd(t *testing.T) {
	m := nn.NewModel("t", []int{1, 8, 8}, []string{"a", "b"})
	m.Add(
		nn.NewConv2D("c", 1, 2, 3, 1, 1, 3),
		&nn.Flatten{LayerName: "f"},
		nn.NewLinear("fc", 2*8*8, 2, 4),
	)
	art, err := nn.EncodeBytes(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	blobs := make([][]byte, 6)
	want := make([]int, 6)
	for i := range blobs {
		kf := tensor.New(1, 8, 8)
		d := kf.Data()
		for j := range d {
			d[j] = rng.Float64()
		}
		blobs[i] = iotdata.KeyframeBytes(kf)
		dec, err := iotdata.KeyframeTensor(blobs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i], _, err = m.Predict(dec)
		if err != nil {
			t.Fatal(err)
		}
	}
	s := New(Config{MaxBatch: 64, Window: 10 * time.Millisecond})
	defer s.Drain()
	artHash := tensor.HashBytes(art)
	// The backend asks its loader for the model the batch is queued under.
	be := NewNativeBackend(func(model uint64, a []byte) (*nn.Model, float64, error) {
		if model != artHash && model != 99 {
			t.Errorf("backend loaded model %x, want the batch's hash", model)
		}
		m, err := nn.DecodeBytes(a)
		return m, 0, err
	})
	var wg sync.WaitGroup
	got := make([]int, len(blobs))
	for i, b := range blobs {
		wg.Add(1)
		go func(i int, b []byte) {
			defer wg.Done()
			c, _, err := inferOne(context.Background(), s, be, artHash, art, b)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = c
		}(i, b)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("blob %d: scheduled class %d, per-sample class %d", i, got[i], want[i])
		}
	}
	// Corrupt artifact → availability error (fallback-ladder class).
	_, _, err = inferOne(context.Background(), s, be, 99, []byte("not a model"), blobs[0])
	if !errors.Is(err, qerr.ErrServingUnavailable) {
		t.Fatalf("corrupt artifact: %v, want ErrServingUnavailable", err)
	}
	// Corrupt blob → plain data error, not availability.
	_, _, err = inferOne(context.Background(), s, be, artHash, art, []byte{1, 2, 3})
	if err == nil || errors.Is(err, qerr.ErrServingUnavailable) {
		t.Fatalf("corrupt blob: %v, want a non-availability data error", err)
	}
}

func TestConcurrentSoak(t *testing.T) {
	// Hammer one scheduler from many goroutines over a small key space so
	// every path (batch, dedup, cache) races; -race is the real assertion.
	lru := cache.New[Key, int](32)
	s := New(Config{MaxBatch: 8, Window: 500 * time.Microsecond, Cache: lru})
	defer s.Drain()
	cb := &countingBackend{}
	be := cb.backend()
	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				n := rng.Intn(10)
				c, _, err := inferOne(context.Background(), s, be, uint64(1+n%2), []byte{byte(n % 2)}, blobN(n))
				if err != nil || c != n {
					failures.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d soak submissions failed or mispredicted", failures.Load())
	}
	st := s.Stats()
	if st.CacheHits+st.DedupHits == 0 {
		t.Fatal("soak never hit cache or dedup despite tiny key space")
	}
}

func TestNilSchedulerSafe(t *testing.T) {
	var s *Scheduler
	s.Drain()
	if st := s.Stats(); st.Submitted != 0 {
		t.Fatal("nil scheduler stats")
	}
	if _, _, err := s.Infer(context.Background(), &Backend{}, nil, []Key{keyOf(1, nil)}, [][]byte{nil}); err == nil {
		t.Fatal("nil scheduler must reject submissions")
	}
}
