package sqldb

import (
	"bytes"
	"hash/maphash"
	"math"
	"sync"
)

// Typed key hashing for the hash operators (join, GROUP BY, DISTINCT,
// COUNT(DISTINCT)) and column statistics. A row's key columns are hashed
// column by column into one uint64, and one open-addressing table verifies
// candidates by typed equality. The equality contract (ARCHITECTURE.md,
// "Query lifecycle inside sqldb"): Int, Bool and integral Float values are
// equal when their integer values are (1 = 1.0 = true, -0.0 = 0), other
// Floats by their bits (so NaN equals NaN), Strings and Blobs by bytes but
// never each other, and NULL equals only NULL — joins drop NULL keys before
// hashing, GROUP BY and DISTINCT put them in one group.

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
		if null != nil {
			for i := range h {
				null[i] = null[i] || k.isNull(lo+i)
			}
		}
	}
}

// hashBlock is how many rows hashBlocks hashes at a time.
const hashBlock = 256

// hashBlocks hashes rows [lo, hi) of the key vectors a block at a time
// into small reused buffers and calls fn with each block's first row, its
// hashes and, when withNull is set, its rows' NULL-key flags, in row order.
// An error from fn ends the walk.
func hashBlocks(keys []vec, lo, hi int, withNull bool, fn func(start int, h []uint64, null []bool) error) error {
	s := getHashScratch()
	defer hashScratch.Put(s)
	h := s.h[:]
	var null []bool
	if withNull {
		null = s.null[:]
	}
	for b := lo; b < hi; b += hashBlock {
		e := min(b+hashBlock, hi)
		var nb []bool
		if withNull {
			nb = null[:e-b]
			clear(nb)
		}
		hashVecs(keys, b, h[:e-b], nb)
		if err := fn(b, h[:e-b], nb); err != nil {
			return err
		}
	}
	return nil
}

// hashBuffers is one block's scratch for hashing keys: the rows' hashes
// and NULL-key flags.
type hashBuffers struct {
	h    [hashBlock]uint64
	null [hashBlock]bool
}

// hashScratch recycles hashBuffers across calls and queries, so hashing a
// block of keys allocates nothing once the pool is warm.
var hashScratch = sync.Pool{New: func() any { return new(hashBuffers) }}

func getHashScratch() *hashBuffers { return hashScratch.Get().(*hashBuffers) }

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

// keyTable is the hash operators' one hash table: it numbers the distinct
// key tuples it is given 0, 1, 2, … in insertion order and verifies
// candidates by typed equality, so no key is ever materialized as bytes.
// A table from newKeyTable stores each key as the row of its key vectors
// that first carried it (the join build side, DISTINCT, statistics). A
// table from newOwnedKeyTable keeps its own copy of each distinct key,
// appended when the key is first seen, so its input can arrive a block at
// a time in buffers that are then reused (GROUP BY).
type keyTable struct {
	keys   []vec     // the stored keys: the input's vectors, or the owned copies
	ints   [][]int64 // intKeys(keys)
	slots  []int32   // open addressing: id+1, 0 = empty
	mask   uint64
	hashes []uint64 // per id
	rows   []int32  // per id: the row of keys carrying it (unless owned)
	own    bool
	intBuf [][]int64 // ints' backing slice when owned
}

func newKeyTable(keys []vec, sizeHint int) *keyTable {
	size := 16
	for size < 2*sizeHint {
		size <<= 1
	}
	return &keyTable{keys: keys, ints: intKeys(keys), slots: make([]int32, size), mask: uint64(size - 1)}
}

// newOwnedKeyTable returns an empty table that owns copies of nkeys-part
// keys; its key vectors start as empty all-NULL columns.
func newOwnedKeyTable(nkeys, sizeHint int) *keyTable {
	keys := make([]vec, nkeys)
	for i := range keys {
		keys[i] = vec{col: &Column{Type: TNull}}
	}
	t := newKeyTable(keys, sizeHint)
	t.own, t.intBuf = true, make([][]int64, nkeys)
	t.ints = intKeysInto(t.intBuf, keys)
	return t
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

// len returns the number of distinct keys.
func (t *keyTable) len() int { return len(t.hashes) }

// insert returns the id of row's key (h its hash), numbering it if new. The
// table must not own its keys: row is a row of the table's key vectors.
func (t *keyTable) insert(h uint64, row int) (id int32, added bool) {
	return t.insertFrom(h, t.keys, t.ints, row)
}

// insertFrom returns the id of the key at row of keys (h its hash, ints
// intKeys(keys)), numbering it if new: an owning table appends a copy of
// it, any other records row, which must then be a row of its own keys.
func (t *keyTable) insertFrom(h uint64, keys []vec, ints [][]int64, row int) (id int32, added bool) {
	if 2*(len(t.hashes)+1) > len(t.slots) {
		t.grow()
	}
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			id = int32(len(t.hashes))
			t.slots[i] = id + 1
			t.hashes = append(t.hashes, h)
			if !t.own {
				t.rows = append(t.rows, int32(row))
				return id, true
			}
			for k := range t.keys {
				appendKey(&t.keys[k], keys[k], row)
			}
			t.ints = intKeysInto(t.intBuf, t.keys)
			return id, true
		}
		if t.hashes[s-1] == h && t.eq(s-1, keys, ints, row) {
			return s - 1, false
		}
	}
}

// find returns the id of the key equal to row of probe (h its hash, ints
// intKeys(probe)), or -1.
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

func (t *keyTable) grow() {
	size := 2 * len(t.slots)
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

// bytes is the memory the table holds (its input's key vectors aside).
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
