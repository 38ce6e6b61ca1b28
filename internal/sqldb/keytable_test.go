package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestKeyTableAddressing pins dense addressing to hashed addressing: for
// the same keys, a table free to choose its addressing and one moved to
// hashed addressing before its first key give the same ids in the same
// first-seen order, the same lookups (Int, Float, Bool, String and NULL
// probes of an Int build) and the same join pairs, which also match a
// nested-loop join under the key contract.
func TestKeyTableAddressing(t *testing.T) {
	ints := func(n int, f func(i int) int64) vec {
		c := &Column{Type: TInt, Ints: make([]int64, n)}
		for i := range c.Ints {
			c.Ints[i] = f(i)
		}
		return vec{col: c}
	}
	const n = 600
	for _, c := range []struct {
		name   string
		keys   []vec
		hashed bool // the addressing the table must choose
		slots  int  // the dense window's size, when known
	}{
		{"narrow", []vec{ints(n, func(i int) int64 { return int64(i % 10) })}, false, 10},
		{"negative", []vec{ints(n, func(i int) int64 { return int64(i%11) - 5 })}, false, 11},
		{"sparse", []vec{ints(n, func(i int) int64 { return int64(i%50) * 1000003 })}, true, 0},
		{"two parts", []vec{ints(n, func(i int) int64 { return int64(i % 7) }), ints(n, func(i int) int64 { return int64(i%3) - 1 })}, false, 21},
		{"three parts", []vec{
			ints(n, func(i int) int64 { return int64(i % 4) }),
			ints(n, func(i int) int64 { return -int64(i % 5) }),
			ints(n, func(i int) int64 { return int64(i%3) + 100 }),
		}, false, 60},
		{"top of int64", []vec{ints(n, func(i int) int64 { return math.MaxInt64 - int64(i%4) })}, false, 4},
		{"bottom of int64", []vec{ints(n, func(i int) int64 { return math.MinInt64 + int64(i%4) })}, false, 4},
		{"full int64 span", []vec{ints(n, func(i int) int64 { return []int64{math.MinInt64, 0, math.MaxInt64}[i%3] })}, true, 0},
		{"part span past cap", []vec{ints(n, func(i int) int64 { return int64(i%2) << 40 }), ints(n, func(i int) int64 { return int64(i % 3) })}, true, 0},
		{"product past cap", []vec{ints(n, func(i int) int64 { return int64(i%2) * 3000 }), ints(n, func(i int) int64 { return int64(i%3) * 3000 })}, true, 0},
		{"stride overflow", []vec{ints(n, func(i int) int64 { return int64(i%2) * 4000 }), ints(n, func(i int) int64 { return int64(i%2) << 62 })}, true, 0},
		{"empty", []vec{ints(0, nil)}, false, 1},
		{"float key", []vec{vecOf([]Datum{Float(1), Float(2.5), Float(1)})}, true, 0},
		{"null key", []vec{vecOf([]Datum{Int(1), Null(), Int(1), Null()})}, true, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := newKeyTable(c.keys)
			if got.hashed != c.hashed {
				t.Fatalf("hashed = %v, want %v", got.hashed, c.hashed)
			}
			if !c.hashed {
				if len(got.slots) != c.slots || got.bytes() != int64(4*c.slots) {
					t.Errorf("dense window %d slots, bytes() = %d; want %d slots, %d bytes", len(got.slots), got.bytes(), c.slots, 4*c.slots)
				}
			}
			checkAddressing(t, c.keys, probesFor(c.keys))
		})
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		bases := []int64{0, -7, 1 << 20, math.MinInt64, math.MaxInt64 - 50}
		for iter := 0; iter < 200; iter++ {
			rows, parts := rng.Intn(300), 1+rng.Intn(3)
			keys := make([]vec, parts)
			for k := range keys {
				base, span := bases[rng.Intn(len(bases))], int64(1+rng.Intn(40))
				if rng.Intn(4) == 0 {
					span = 1 << (20 + rng.Intn(40))
				}
				keys[k] = ints(rows, func(int) int64 {
					if base > math.MaxInt64-span {
						return base + rng.Int63n(math.MaxInt64-base+1)
					}
					return base + rng.Int63n(span)
				})
			}
			checkAddressing(t, keys, probesFor(keys))
		}
	})
	t.Run("group by widens then falls back mid-block", func(t *testing.T) {
		blocks := [][]int64{{0, 1, 2, 1, 0}, {3, 40, 2}, {41, 100, -60, 5}}
		var last []int64
		for i := 0; i < 256; i++ {
			last = append(last, int64(i%70))
		}
		last[100] = 1 << 40 // past any window: the block falls back at its 101st row
		blocks = append(blocks, last, []int64{7, 1 << 40, -3})
		gotT, refT := newOwnedKeyTable(1), newOwnedKeyTable(1)
		refT.toHashed()
		spans := []uint64{}
		for b, blk := range blocks {
			keys := []vec{ints(len(blk), func(i int) int64 { return blk[i] })}
			got, want := numberAll(gotT, keys), numberAll(refT, keys)
			if !slices.Equal(got, want) {
				t.Fatalf("block %d: ids %v, want %v", b, got, want)
			}
			if !gotT.hashed {
				spans = append(spans, gotT.win[0].span)
				if gotT.bytes() != int64(4*gotT.win[0].span) {
					t.Errorf("block %d: bytes() = %d, want the %d-slot window", b, gotT.bytes(), gotT.win[0].span)
				}
			}
		}
		if len(spans) != 3 || !gotT.hashed {
			t.Fatalf("dense for %d blocks (spans %v), hashed at the end %v; want 3 dense blocks, then hashed", len(spans), spans, gotT.hashed)
		}
		if spans[1] < 2*spans[0] || spans[2] < 2*spans[1] {
			t.Errorf("window spans %v: growth is not geometric", spans)
		}
		sameKeys(t, gotT, refT)
	})
	t.Run("group by lays out a growing window logarithmically often", func(t *testing.T) {
		for _, step := range []int64{1, -1} {
			kt, layouts := newOwnedKeyTable(1), 0
			var last *int32
			for i := int64(0); i < 1000; i++ {
				numberAll(kt, []vec{ints(1, func(int) int64 { return step * i })})
				if &kt.slots[0] != last {
					last, layouts = &kt.slots[0], layouts+1
				}
			}
			if kt.hashed || layouts > 12 {
				t.Errorf("keys 0, %d, %d, …: %d window layouts (hashed %v), want dense and at most 12", step, 2*step, layouts, kt.hashed)
			}
		}
	})
	t.Run("group by falls back on a NULL or Float key", func(t *testing.T) {
		for _, tail := range [][]Datum{{Int(1), Null(), Int(2)}, {Float(2), Float(2.5), Int(9)}} {
			gotT, refT := newOwnedKeyTable(2), newOwnedKeyTable(2)
			refT.toHashed()
			blocks := [][]vec{
				{ints(4, func(i int) int64 { return int64(i % 2) }), ints(4, func(i int) int64 { return int64(i) })},
				{vecOf(tail), ints(len(tail), func(i int) int64 { return int64(i) })},
			}
			for b, keys := range blocks {
				if got, want := numberAll(gotT, keys), numberAll(refT, keys); !slices.Equal(got, want) {
					t.Fatalf("tail %v block %d: ids %v, want %v", tail, b, got, want)
				}
			}
			if !gotT.hashed {
				t.Errorf("tail %v: still dense", tail)
			}
			sameKeys(t, gotT, refT)
		}
	})
	t.Run("partial merge", func(t *testing.T) {
		// Two chunks' partials merged into the first, as execAgg merges
		// them at Parallelism 2: dense into dense, and hashed into dense.
		chunks := [][]int64{{5, 6, 5, 9}, {9, 4, 5, 1 << 40, 4}}
		for _, second := range []bool{false, true} {
			parts := func(hashed bool) []*keyTable {
				var ps []*keyTable
				for i, ch := range chunks {
					p := newOwnedKeyTable(1)
					if hashed || (second && i == 1) {
						p.toHashed()
					}
					numberAll(p, []vec{ints(len(ch), func(i int) int64 { return ch[i] })})
					ps = append(ps, p)
				}
				return ps
			}
			got, ref := parts(false), parts(true)
			if got[0].hashed {
				t.Fatal("the first partial is not dense")
			}
			if g, w := numberAll(got[0], got[1].keys), numberAll(ref[0], ref[1].keys); !slices.Equal(g, w) {
				t.Fatalf("merged ids %v, want %v", g, w)
			}
			sameKeys(t, got[0], ref[0])
		}
	})
	t.Run("parallel GROUP BY", func(t *testing.T) {
		db := New()
		mustExec(t, db, `CREATE TABLE g (k Int64, j Int64, v Float64)`)
		rows := make([]*Column, 3)
		rows[0], rows[1] = &Column{Type: TInt}, &Column{Type: TInt}
		rows[2] = &Column{Type: TFloat}
		for i := 0; i < 20000; i++ {
			k := int64((i * 7919) % 300)
			if i >= 12000 {
				k += 600 // the second chunk widens its own window
			}
			rows[0].Ints = append(rows[0].Ints, k)
			rows[1].Ints = append(rows[1].Ints, int64(i%3))
			rows[2].Floats = append(rows[2].Floats, float64(i%13)/7)
		}
		if err := db.GetTable("g").AppendColumns(rows); err != nil {
			t.Fatal(err)
		}
		// Float sums differ between degrees (partials add in chunk order),
		// so each degree is compared with its own dense grouping.
		for _, par := range []int{1, 2} {
			db.Parallelism = par
			var want uint64
			for _, q := range []string{
				`SELECT min(k) AS k, j, sum(v) AS s, count(*) AS c FROM g GROUP BY k, j`,
				`SELECT min(k) AS k, j, sum(v) AS s, count(*) AS c FROM g GROUP BY k * 1000000007, j`,
			} {
				got := resultDigest(mustExec(t, db, q))
				if want == 0 {
					want = got
				} else if got != want {
					t.Errorf("Parallelism %d, %s: result differs from the dense grouping", par, q)
				}
			}
		}
	})
}

// numberAll numbers every row of keys in t, in calls of 100 rows so that
// blocks straddle calls.
func numberAll(t *keyTable, keys []vec) []int32 {
	n := vecsLen(keys)
	ids := make([]int32, n)
	for lo := 0; lo < n; lo += 100 {
		t.number(keys, lo, min(lo+100, n), ids[lo:min(lo+100, n)])
	}
	return ids
}

// sameKeys checks that two owning tables hold the same keys in the same
// order.
func sameKeys(t *testing.T, got, want *keyTable) {
	t.Helper()
	if got.len() != want.len() {
		t.Fatalf("%d keys, want %d", got.len(), want.len())
	}
	for k := range got.keys {
		g, w := got.keyColumn(k), want.keyColumn(k)
		for i := 0; i < got.len(); i++ {
			if !sameDatum(g.Get(i), w.Get(i)) {
				t.Fatalf("key %d part %d = %v, want %v", i, k, g.Get(i), w.Get(i))
			}
		}
	}
}

// probesFor returns probe key sets for an Int build: its own keys, the
// keys shifted by one, and per row the key as a Float, a fractional
// Float, a Bool where it is 0 or 1, a String, or NULL.
func probesFor(keys []vec) [][]vec {
	n := vecsLen(keys)
	shifted, mixed := make([]vec, len(keys)), make([]vec, len(keys))
	for k, v := range keys {
		s, m := make([]Datum, n), make([]Datum, n)
		for i := range s {
			d := v.get(i)
			s[i] = d
			if d.T == TInt && d.I != math.MaxInt64 {
				s[i] = Int(d.I + 1)
			}
			m[i] = d
			switch x := d.I; {
			case d.T != TInt:
			case i%5 == 1:
				m[i] = Float(float64(x))
			case i%5 == 2:
				m[i] = Float(float64(x) + 0.5)
			case i%5 == 3 && (x == 0 || x == 1):
				m[i] = Bool(x == 1)
			case i%5 == 3:
				m[i] = Str(fmt.Sprint(x))
			case i%5 == 4:
				m[i] = Null()
			}
		}
		shifted[k], mixed[k] = vecOf(s), vecOf(m)
	}
	return [][]vec{keys, shifted, mixed}
}

// checkAddressing numbers the build keys in a table free to choose its
// addressing and in one moved to hashed addressing, and compares their
// ids, their lookups of each probe and the join pairs those give, the
// latter also with a nested-loop join under the key contract.
func checkAddressing(t *testing.T, keys []vec, probes [][]vec) {
	t.Helper()
	got, ref := newKeyTable(keys), newKeyTable(keys)
	ref.toHashed()
	gotIDs, refIDs := numberAll(got, keys), numberAll(ref, keys)
	if !slices.Equal(gotIDs, refIDs) {
		t.Fatalf("ids %v, want %v", gotIDs, refIDs)
	}
	for next, r := int32(0), 0; r < len(gotIDs); r++ {
		if id := gotIDs[r]; id > next {
			t.Fatalf("row %d: id %d before id %d was seen", r, id, next)
		} else if id == next {
			next++
		}
	}
	for pi, probe := range probes {
		n := vecsLen(probe)
		g, w := make([]int32, n), make([]int32, n)
		got.lookup(probe, 0, n, g)
		ref.lookup(probe, 0, n, w)
		if !slices.Equal(g, w) {
			t.Fatalf("probe %d: lookups %v, want %v", pi, g, w)
		}
		var pairs, loop [][2]int
		for i, id := range g {
			for r, bid := range gotIDs {
				if id >= 0 && bid == id {
					pairs = append(pairs, [2]int{i, r})
				}
			}
			for r := range gotIDs {
				null := false
				for k := range keys {
					null = null || probe[k].isNull(i)
				}
				if !null && keysEq(probe, i, keys, r) {
					loop = append(loop, [2]int{i, r})
				}
			}
		}
		if !slices.Equal(pairs, loop) {
			t.Fatalf("probe %d: %d join pairs, nested loop %d", pi, len(pairs), len(loop))
		}
	}
}
