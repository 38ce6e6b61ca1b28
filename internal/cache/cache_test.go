package cache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestNilCacheIsAlwaysCold(t *testing.T) {
	var c *LRU[string, int]
	if _, ok := c.Get("x"); ok {
		t.Fatal("nil cache must miss")
	}
	c.Put("x", 1) // must not panic
	c.Delete("x")
	c.Purge()
	c.Instrument(nil, "p")
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Fatal("nil cache must report zeros")
	}
	if New[string, int](0) != nil {
		t.Fatal("capacity 0 must disable caching")
	}
}

func TestGetPutAndRecency(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a: got %v %v", v, ok)
	}
	// "b" is now LRU; inserting "c" must evict it, not "a".
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
	if got := st.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit rate = %v", got)
	}
}

// TestGetIfRejectionIsAMiss: a value GetIf's match rejects counts as a
// miss and is neither returned nor made most recent.
func TestGetIfRejectionIsAMiss(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	odd := func(v int) bool { return v%2 == 1 }
	if v, ok := c.GetIf("a", odd); !ok || v != 1 {
		t.Fatalf("a: got %v %v", v, ok)
	}
	if _, ok := c.GetIf("b", odd); ok {
		t.Fatal("b was returned though match rejected it")
	}
	// "b" stayed least recent: "c" evicts it.
	c.Put("c", 3)
	if _, ok := c.Peek("b"); ok {
		t.Fatal("a rejected value was made most recent")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
}

func TestUpdateExistingKeyDoesNotGrow(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("a", 2)
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	if v, _ := c.Get("a"); v != 2 {
		t.Fatalf("update lost: %d", v)
	}
}

// TestEvictionBound pins the LRU's memory contract: the entry count never
// exceeds capacity no matter how many distinct keys stream through.
func TestEvictionBound(t *testing.T) {
	const capacity = 16
	c := New[int, int](capacity)
	for i := 0; i < 10*capacity; i++ {
		c.Put(i, i)
		if c.Len() > capacity {
			t.Fatalf("cache grew to %d entries, cap %d", c.Len(), capacity)
		}
	}
	st := c.Stats()
	if st.Len != capacity || st.Cap != capacity {
		t.Fatalf("final len/cap = %d/%d", st.Len, st.Cap)
	}
	if st.Evictions != 9*capacity {
		t.Fatalf("evictions = %d, want %d", st.Evictions, 9*capacity)
	}
	// The survivors must be the most recently inserted keys.
	for i := 9 * capacity; i < 10*capacity; i++ {
		if _, ok := c.Peek(i); !ok {
			t.Fatalf("recent key %d missing", i)
		}
	}
}

func TestDeleteAndPurge(t *testing.T) {
	c := New[string, int](4)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Delete("a")
	_, hasA := c.Peek("a")
	_, hasB := c.Peek("b")
	if hasA || !hasB {
		t.Fatal("delete removed the wrong entry")
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatal("purge left entries")
	}
	// The list must still be consistent after purge.
	c.Put("c", 3)
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Fatal("cache broken after purge")
	}
}

func TestInstrumentMirrorsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	c := New[string, int](1)
	c.Instrument(reg, "test.cache")
	c.Put("a", 1)
	c.Get("a")
	c.Get("zzz")
	c.Put("b", 2) // evicts a
	if got := reg.Counter("test.cache.hits").Value(); got != 1 {
		t.Fatalf("hits counter = %d", got)
	}
	if got := reg.Counter("test.cache.misses").Value(); got != 1 {
		t.Fatalf("misses counter = %d", got)
	}
	if got := reg.Counter("test.cache.evictions").Value(); got != 1 {
		t.Fatalf("evictions counter = %d", got)
	}
}

// TestConcurrentAccess hammers one cache from many goroutines; run under
// -race this is the concurrent-safety test the caching layer relies on.
func TestConcurrentAccess(t *testing.T) {
	c := New[string, int](32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%64)
				if i%3 == 0 {
					c.Put(k, i)
				} else if i%7 == 0 {
					c.Delete(k)
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Fatalf("cache exceeded capacity under concurrency: %d", c.Len())
	}
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
}
