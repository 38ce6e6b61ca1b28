package sqldb

import (
	"bytes"
	"hash/maphash"
	"math"
	"slices"
	"sync"
)

// Typed keys for the hash operators (join, GROUP BY, DISTINCT,
// COUNT(DISTINCT)) and column statistics. One key table numbers the
// distinct key tuples it is given 0, 1, 2, … in first-seen order, and
// addresses a key in one of two ways, chosen from the key columns alone.
//
// Dense addressing serves keys whose every part is a NULL-free Int column
// with a small value span, like DL2SQL's zero-based IDs. The key
// (v₀, v₁, …) lives in slot Σ(vₖ − loₖ)·strideₖ of a window over the
// parts' value ranges: no hash, no probe sequence, no equality check. A
// table over existing key columns (a join's build side, DISTINCT,
// statistics) takes its window from their min/max, at most
// max(4096, 4 × rows) slots. A GROUP BY table, whose keys arrive a block at
// a time, grows its window geometrically under the same kind of cap.
//
// Hashed addressing serves every other key: String, Float or Blob parts,
// NULLs, or a span past the cap. A row's key columns are hashed column by
// column into one uint64 and an open-addressing table verifies candidates
// by typed equality. A table decides before its first key; a GROUP BY
// table whose window would pass the cap, or whose block brings a key that
// is not a NULL-free Int, moves its keys to hashed addressing once and
// stays there. Either way ids are handed out in first-seen order, and the
// operators read group order, DISTINCT order and join chains from them, so
// no result, row order or float sum depends on the addressing.
//
// The equality contract (ARCHITECTURE.md, "Query lifecycle inside
// sqldb"): Int, Bool and integral Float values are equal when their
// integer values are (1 = 1.0 = true, -0.0 = 0), other Floats by their
// bits (so NaN equals NaN), Strings and Blobs by bytes but never each
// other, and NULL equals only NULL — a join finds no match for a key with
// a NULL part, GROUP BY and DISTINCT put NULL keys in one group.

var keySeed = maphash.MakeSeed()

const (
	hashInit  = 0x9e3779b97f4a7c15
	nullTag   = 0x6a09e667f3bcc909
	floatTag  = 0xbb67ae8584caa73b
	stringTag = 0x3c6ef372fe94f82b
	blobTag   = 0xa54ff53a5f1d36f1
)

func mixKey(h, x uint64) uint64 {
	h = (h ^ x) * 0xbf58476d1ce4e5b9
	return h ^ h>>31
}

// intKeyOf reports the integer a Float key equals, if it is integral.
func intKeyOf(f float64) (int64, bool) {
	i := int64(f)
	return i, f == float64(i)
}

func floatKey(f float64) uint64 {
	if i, ok := intKeyOf(f); ok {
		return uint64(i)
	}
	return math.Float64bits(f) ^ floatTag
}

// datumKey is the hash input of one value.
func datumKey(d Datum) uint64 {
	switch d.T {
	case TInt, TBool:
		return uint64(d.I)
	case TFloat:
		return floatKey(d.F)
	case TString:
		return maphash.String(keySeed, d.S) ^ stringTag
	case TBlob:
		return maphash.Bytes(keySeed, d.B) ^ blobTag
	}
	return nullTag
}

// hashVecs hashes rows lo … lo+len(h)-1 of the key vectors into h, column
// by column. When null is non-nil it flags the rows with a NULL key part.
func hashVecs(keys []vec, lo int, h []uint64, null []bool) {
	hi := lo + len(h)
	for i := range h {
		h[i] = hashInit
	}
	for _, k := range keys {
		c := k.col
		switch {
		case c == nil:
			for i, d := range k.ds[lo:hi] {
				h[i] = mixKey(h[i], datumKey(d))
			}
		case c.Type == TNull:
			for i := range h {
				h[i] = mixKey(h[i], nullTag)
			}
		case c.Nulls != nil:
			for i := range h {
				h[i] = mixKey(h[i], datumKey(c.Get(lo+i)))
			}
		case c.Type == TInt:
			for i, v := range c.Ints[lo:hi] {
				h[i] = mixKey(h[i], uint64(v))
			}
		case c.Type == TFloat:
			for i, v := range c.Floats[lo:hi] {
				h[i] = mixKey(h[i], floatKey(v))
			}
		case c.Type == TBool:
			for i, v := range c.Bools[lo:hi] {
				x := uint64(0)
				if v {
					x = 1
				}
				h[i] = mixKey(h[i], x)
			}
		case c.Type == TString:
			for i, v := range c.Strs[lo:hi] {
				h[i] = mixKey(h[i], maphash.String(keySeed, v)^stringTag)
			}
		case c.Type == TBlob:
			for i, v := range c.Blobs[lo:hi] {
				h[i] = mixKey(h[i], maphash.Bytes(keySeed, v)^blobTag)
			}
		}
		if null != nil && (c == nil || c.Type == TNull || c.Nulls != nil) {
			for i := range h {
				null[i] = null[i] || k.isNull(lo+i)
			}
		}
	}
}

// hashBlock is how many rows a key table addresses at a time.
const hashBlock = 256

// hashBuffers is one block's scratch for addressing keys: the rows' hashes
// or slots, their NULL-key flags, and a probe's intKeys.
type hashBuffers struct {
	h    [hashBlock]uint64
	null [hashBlock]bool
	ints [][]int64
}

// intKeys is intKeys(keys) in the scratch's reused slice.
func (s *hashBuffers) intKeys(keys []vec) [][]int64 {
	if s.ints == nil || cap(s.ints) < len(keys) {
		s.ints = make([][]int64, max(len(keys), 4))
	}
	return intKeysInto(s.ints[:len(keys)], keys)
}

// hashScratch recycles hashBuffers across calls and queries, so addressing
// a block of keys allocates nothing once the pool is warm.
var hashScratch = sync.Pool{New: func() any { return new(hashBuffers) }}

// put returns the scratch to the pool, holding on to no key column.
func (s *hashBuffers) put() {
	clear(s.ints)
	hashScratch.Put(s)
}

// keyClass is a value's equality class under the key contract, with the
// integer (Int/Bool/integral Float) or bit pattern (other Float) it carries.
func keyClass(d Datum) (class uint8, u uint64) {
	switch d.T {
	case TInt, TBool:
		return 1, uint64(d.I)
	case TFloat:
		if i, ok := intKeyOf(d.F); ok {
			return 1, uint64(i)
		}
		return 2, math.Float64bits(d.F)
	case TString:
		return 3, 0
	case TBlob:
		return 4, 0
	}
	return 0, 0
}

func datumKeyEq(a, b Datum) bool {
	ac, au := keyClass(a)
	bc, bu := keyClass(b)
	if ac != bc {
		return false
	}
	switch ac {
	case 3:
		return a.S == b.S
	case 4:
		return bytes.Equal(a.B, b.B)
	}
	return au == bu
}

// keyEq compares row i of a with row j of b under the key contract.
func keyEq(a vec, i int, b vec, j int) bool {
	ac, bc := a.col, b.col
	if ac == nil || bc == nil || ac.Type != bc.Type {
		return datumKeyEq(a.get(i), b.get(j))
	}
	an, bn := a.isNull(i), b.isNull(j)
	if an || bn {
		return an == bn
	}
	switch ac.Type {
	case TInt:
		return ac.Ints[i] == bc.Ints[j]
	case TFloat:
		x, y := ac.Floats[i], bc.Floats[j]
		if xi, ok := intKeyOf(x); ok {
			yi, ok := intKeyOf(y)
			return ok && xi == yi
		}
		return math.Float64bits(x) == math.Float64bits(y)
	case TBool:
		return ac.Bools[i] == bc.Bools[j]
	case TString:
		return ac.Strs[i] == bc.Strs[j]
	case TBlob:
		return bytes.Equal(ac.Blobs[i], bc.Blobs[j])
	}
	return true // TNull: both NULL
}

func keysEq(a []vec, i int, b []vec, j int) bool {
	for k := range a {
		if !keyEq(a[k], i, b[k], j) {
			return false
		}
	}
	return true
}

// intKeys returns the keys' Int slices when every key is a NULL-free Int
// column (DL2SQL's IDs), so equality is a loop of integer compares; nil
// otherwise.
func intKeys(keys []vec) [][]int64 { return intKeysInto(make([][]int64, len(keys)), keys) }

// intKeysInto is intKeys into dst, a slice of len(keys).
func intKeysInto(dst [][]int64, keys []vec) [][]int64 {
	for i, k := range keys {
		if k.col == nil || k.col.Type != TInt || k.col.Nulls != nil {
			return nil
		}
		dst[i] = k.col.Ints
	}
	return dst
}

// keyTable is the hash operators' one key table (see the file comment):
// it numbers the distinct key tuples it is given 0, 1, 2, … in first-seen
// order, so no key is ever materialized as bytes. A table from newKeyTable
// keeps its keys where they are, in its input's key vectors (the join build
// side, DISTINCT, statistics). A table from newOwnedKeyTable keeps its own
// copy of each distinct key, appended when the key is first seen, so its
// input can arrive a block at a time in buffers that are then reused
// (GROUP BY).
type keyTable struct {
	keys  []vec     // the stored keys: the input's vectors, or the owned copies
	ints  [][]int64 // intKeys(keys)
	n     int       // distinct keys numbered
	slots []int32   // id+1, 0 = empty: the dense window or the hash table; nil until an owning table's first key
	win   []window  // dense addressing: per key part, its range in the window
	// Hashed addressing: open addressing over slots.
	hashed bool
	mask   uint64
	hashes []uint64 // per id
	rows   []int32  // per id: the row of keys carrying it (unless owned)
	own    bool
	intBuf [][]int64 // ints' backing slice when owned
}

// window is one key part's range in a dense table: values lo … lo+span-1,
// stride slots apart.
type window struct {
	lo           int64
	span, stride uint64
}

// noSlot marks a probe row whose key lies outside a dense window.
const noSlot = ^uint64(0)

// denseCap is the most slots a dense window over rows keys may take.
func denseCap(rows int) uint64 { return uint64(max(4096, 4*rows)) }

// newKeyTable returns a table over the keys in keys, which the caller
// numbers with number(keys, …).
func newKeyTable(keys []vec) *keyTable {
	t := &keyTable{keys: keys, ints: intKeys(keys)}
	if t.ints != nil {
		if win := widen(nil, t.ints, 0, vecsLen(keys), denseCap(vecsLen(keys))); win != nil {
			t.layout(win)
			return t
		}
	}
	t.toHashed()
	return t
}

// newOwnedKeyTable returns an empty table that owns copies of nkeys-part
// keys; its key vectors start as empty all-NULL columns.
func newOwnedKeyTable(nkeys int) *keyTable {
	keys := make([]vec, nkeys)
	for i := range keys {
		keys[i] = vec{col: &Column{Type: TNull}}
	}
	return &keyTable{keys: keys, own: true, intBuf: make([][]int64, nkeys)}
}

// vecsLen is the number of rows of the key vectors.
func vecsLen(keys []vec) int {
	if len(keys) == 0 {
		return 0
	}
	return keys[0].len()
}

// len returns the number of distinct keys.
func (t *keyTable) len() int { return t.n }

// number writes to ids the id of the key at each of rows [lo, hi) of keys,
// numbering the keys not seen before: an owning table appends a copy of
// each, any other table must be given its own key vectors. A new key's id
// is len() at the time, so callers tell new keys from that.
func (t *keyTable) number(keys []vec, lo, hi int, ids []int32) {
	s := hashScratch.Get().(*hashBuffers)
	defer s.put()
	ints := s.intKeys(keys)
	if t.own && !t.hashed && lo < hi {
		t.fit(ints, lo, hi)
	}
	for b := lo; b < hi; b += hashBlock {
		e := min(b+hashBlock, hi)
		out, h := ids[b-lo:e-lo], s.h[:e-b]
		if t.hashed {
			hashVecs(keys, b, h, nil)
			for i, x := range h {
				out[i] = t.insertFrom(x, keys, ints, b+i)
			}
			continue
		}
		t.address(keys, b, h)
		for i, x := range h {
			id := t.slots[x]
			if id == 0 {
				t.n++
				id = int32(t.n)
				t.slots[x] = id
				if t.own {
					for k := range t.keys {
						appendKey(&t.keys[k], keys[k], b+i)
					}
				}
			}
			out[i] = id - 1
		}
	}
	if t.own && !t.hashed {
		t.ints = intKeysInto(t.intBuf, t.keys)
	}
}

// lookup writes to ids the id of the key equal to each of rows [lo, hi) of
// probe, or -1 when the table has none. A key with a NULL part finds
// nothing: NULL never joins.
func (t *keyTable) lookup(probe []vec, lo, hi int, ids []int32) {
	s := hashScratch.Get().(*hashBuffers)
	defer s.put()
	ints := s.intKeys(probe)
	for b := lo; b < hi; b += hashBlock {
		e := min(b+hashBlock, hi)
		out, h := ids[b-lo:e-lo], s.h[:e-b]
		if t.hashed {
			null := s.null[:e-b]
			clear(null)
			hashVecs(probe, b, h, null)
			for i, x := range h {
				out[i] = -1
				if !null[i] {
					out[i] = t.find(x, probe, ints, b+i)
				}
			}
			continue
		}
		t.address(probe, b, h)
		for i, x := range h {
			out[i] = -1
			if x != noSlot {
				out[i] = t.slots[x] - 1
			}
		}
	}
}

// address writes to slot the dense slot of each key at rows lo … of keys,
// or noSlot when a part is not an integer under the key contract or lies
// outside its window.
func (t *keyTable) address(keys []vec, lo int, slot []uint64) {
	clear(slot)
	for k, w := range t.win {
		if c := keys[k].col; c != nil && c.Type == TInt && c.Nulls == nil {
			for i, v := range c.Ints[lo : lo+len(slot)] {
				if off := uint64(v) - uint64(w.lo); off >= w.span {
					slot[i] = noSlot
				} else if slot[i] != noSlot {
					slot[i] += off * w.stride
				}
			}
			continue
		}
		for i := range slot {
			class, v := keyClass(keys[k].get(lo + i))
			if off := v - uint64(w.lo); class != 1 || off >= w.span {
				slot[i] = noSlot
			} else if slot[i] != noSlot {
				slot[i] += off * w.stride
			}
		}
	}
}

// fit readies an owning dense table for rows [lo, hi) of keys whose
// intKeys are ints: it widens the window to cover them, or moves the table
// to hashed addressing when a part is not a NULL-free Int column (ints is
// nil) or the window would pass the cap.
func (t *keyTable) fit(ints [][]int64, lo, hi int) {
	if ints == nil {
		t.toHashed()
		return
	}
	inside := t.slots != nil
	for k := 0; inside && k < len(ints); k++ {
		w := t.win[k]
		for _, v := range ints[k][lo:hi] {
			if uint64(v)-uint64(w.lo) >= w.span {
				inside = false
				break
			}
		}
	}
	if inside {
		return
	}
	if win := widen(t.win, ints, lo, hi, denseCap(t.n+hi-lo)); win != nil {
		t.layout(win)
	} else {
		t.toHashed()
	}
}

// widen returns windows covering old (nil: none) and each part's values
// over rows [lo, hi) of ints in at most limit slots, or nil. A part that
// grows at least doubles its span, away from the side it outgrew, so a
// window that keeps growing lays its keys out anew a logarithmic number of
// times; when the doubled spans do not fit, the exact ones are tried.
func widen(old []window, ints [][]int64, lo, hi int, limit uint64) []window {
	var buf [4]window
	for _, exact := range []bool{false, true} {
		win, slots := buf[:0], uint64(1)
		for k, c := range ints {
			// Offsets from math.MinInt64 order int64 values as uint64.
			l, h := uint64(1<<63), uint64(1<<63)
			if lo < hi {
				mn, mx := c[lo], c[lo] // one pass: factorised aggregates widen whole columns
				for _, v := range c[lo+1 : hi] {
					mn, mx = min(mn, v), max(mx, v)
				}
				l, h = uint64(mn)^1<<63, uint64(mx)^1<<63
			}
			span, below := uint64(0), false
			if old != nil {
				o := old[k]
				ol := uint64(o.lo) ^ 1<<63
				oh := ol + o.span - 1
				if l >= ol && h <= oh {
					win = append(win, o)
					slots *= o.span
					continue
				}
				below = l < ol
				l, h = min(l, ol), max(h, oh)
				if !exact {
					span = 2 * o.span
				}
			}
			if h-l >= limit {
				return nil
			}
			if span = max(span, h-l+1); span > limit/slots {
				win = nil
				break
			}
			if below {
				l = h - min(h, span-1)
			}
			l = min(l, math.MaxUint64-(span-1))
			win = append(win, window{lo: int64(l ^ 1<<63), span: span})
			slots *= span
		}
		if win != nil {
			return slices.Clone(win)
		}
	}
	return nil
}

// setStrides lays the parts of win out first part fastest and returns the
// slots the window spans.
func setStrides(win []window) uint64 {
	size := uint64(1)
	for k := range win {
		win[k].stride = size
		size *= win[k].span
	}
	return size
}

// newIntKeyTable returns an empty owning table of nkeys-part Int keys with
// room for groups keys and no window yet.
func newIntKeyTable(nkeys, groups int) *keyTable {
	t := newOwnedKeyTable(nkeys)
	for k := range t.keys {
		t.keys[k].col = &Column{Type: TInt, Ints: make([]int64, 0, groups)}
	}
	return t
}

// layout moves the table to the dense windows win, placing its keys anew.
func (t *keyTable) layout(win []window) {
	t.win, t.slots = win, make([]int32, setStrides(win))
	for id := 0; id < t.n; id++ {
		var s uint64
		for k, w := range win {
			s += (uint64(t.ints[k][id]) - uint64(w.lo)) * w.stride
		}
		t.slots[s] = int32(id + 1)
	}
}

// toHashed moves the table to hashed addressing for good.
func (t *keyTable) toHashed() {
	t.hashed, t.win = true, nil
	t.hashes = make([]uint64, t.n)
	hashVecs(t.keys, 0, t.hashes, nil)
	size := 128
	for size < 2*(t.n+1) {
		size <<= 1
	}
	t.place(size)
}

// eq reports whether the key with the given id equals row j of keys (ints
// being intKeys(keys)).
func (t *keyTable) eq(id int32, keys []vec, ints [][]int64, j int) bool {
	i := int(id)
	if !t.own {
		i = int(t.rows[id])
	}
	if t.ints != nil && ints != nil {
		for k, c := range t.ints {
			if c[i] != ints[k][j] {
				return false
			}
		}
		return true
	}
	return keysEq(t.keys, i, keys, j)
}

// insertFrom returns the id of the key at row of keys (h its hash, ints
// intKeys(keys)) in a hashed table, numbering it if new.
func (t *keyTable) insertFrom(h uint64, keys []vec, ints [][]int64, row int) int32 {
	if 2*(t.n+1) > len(t.slots) {
		t.place(2 * len(t.slots))
	}
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			id := int32(t.n)
			t.n++
			t.slots[i] = id + 1
			t.hashes = append(t.hashes, h)
			if !t.own {
				t.rows = append(t.rows, int32(row))
				return id
			}
			for k := range t.keys {
				appendKey(&t.keys[k], keys[k], row)
			}
			t.ints = intKeysInto(t.intBuf, t.keys)
			return id
		}
		if t.hashes[s-1] == h && t.eq(s-1, keys, ints, row) {
			return s - 1
		}
	}
}

// find returns the id of the key equal to row of probe (h its hash, ints
// intKeys(probe)) in a hashed table, or -1.
func (t *keyTable) find(h uint64, probe []vec, ints [][]int64, row int) int32 {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if t.hashes[s-1] == h && t.eq(s-1, probe, ints, row) {
			return s - 1
		}
	}
}

// place lays the hashed keys out in a table of size slots.
func (t *keyTable) place(size int) {
	t.slots = make([]int32, size)
	t.mask = uint64(size - 1)
	for id, h := range t.hashes {
		i := h & t.mask
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = int32(id + 1)
	}
}

// bytes is the memory the table holds (its input's key vectors aside),
// dense window included.
func (t *keyTable) bytes() int64 {
	return int64(4*len(t.slots) + 8*len(t.hashes) + 4*len(t.rows))
}

// keyColumn is an owning table's k-th key part as a column, typed as a
// build from its values would type it (see columnFromData).
func (t *keyTable) keyColumn(k int) *Column {
	v := t.keys[k]
	if v.col != nil {
		return settleType(v.col)
	}
	return columnFromData(v.ds)
}

// appendKey appends row r of src to dst, an owned key vector: a typed
// column while its non-NULL values share one type, their datums once they
// do not.
func appendKey(dst *vec, src vec, r int) {
	if dst.col == nil {
		dst.ds = append(dst.ds, src.get(r))
		return
	}
	if c, sc := dst.col, src.col; sc != nil && sc.Type == c.Type && c.Nulls == nil && sc.Nulls == nil {
		// NULL-free values of the column's own type: copied typed.
		switch c.Type {
		case TInt:
			c.Ints = append(c.Ints, sc.Ints[r])
			return
		case TFloat:
			c.Floats = append(c.Floats, sc.Floats[r])
			return
		case TString:
			c.Strs = append(c.Strs, sc.Strs[r])
			return
		}
	}
	c, d := dst.col, src.get(r)
	switch {
	case d.IsNull() || d.T == c.Type:
		_ = c.Append(d) // NULL or c's type: cannot fail
	case c.Type == TNull:
		typed := NewColumn(d.T)
		for range c.Nulls {
			_ = typed.Append(Null())
		}
		_ = typed.Append(d)
		dst.col = typed
	default:
		ds := make([]Datum, c.Len(), c.Len()+1)
		for i := range ds {
			ds[i] = c.Get(i)
		}
		*dst = vec{ds: append(ds, d)}
	}
}
