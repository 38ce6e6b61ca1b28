package sqldb

// Joins. A join runs in two steps. Matching evaluates both sides' keys,
// builds the hash index (or, for a symmetric join, runs its alternating
// insert/probe schedule) and counts every probe row's match pairs, so the
// join's output size and each row's first output position are known
// before any pair exists. Emission then walks the build chains and hands
// the pairs at any range of output positions to the join's consumer, a
// block of at most hashBlock pairs at a time through reused buffers: no
// operator holds the join's whole pair list. execJoin gathers each block
// into its exactly-sized output columns at the block's offset; a general
// aggregate over the join (agg.go) gathers each block's key and argument
// columns. A factorised aggregate over a hash join walks the chains
// itself from hashPairs.seek and writes no pair. Pairs come out in one
// order for every consumer and degree: probe row (or schedule step)
// ascending, then build chain ascending.

import (
	"slices"
	"sort"
	"time"
)

// joinMatch is a matched join: its inputs, its output size and its pairs.
// Output row i is a row of left beside a row of right; a right row of -1
// pads an outer join's unmatched left row with NULLs.
type joinMatch struct {
	left, right *Result
	n           int  // output rows
	padded      bool // some output row has right row -1
	src         pairSource
}

// pairSource enumerates a join's match pairs by output position.
type pairSource interface {
	// pairs adds the pairs at output positions [lo, hi) to b, in order;
	// lo < hi.
	pairs(lo, hi int, b *pairBlock) error
}

// pairBlock collects match pairs in reused buffers and hands them to fn a
// block at a time: off is the output position of the block's first pair,
// l and r its left and right rows.
type pairBlock struct {
	l, r []int32
	k    int // pairs buffered
	off  int
	fn   func(off int, l, r []int32) error
}

// pairBlockBytes is the memory a pairBlock holds.
const pairBlockBytes = 8 * hashBlock

// newPairBlock returns a block for ranges of up to n pairs.
func newPairBlock(n int, fn func(off int, l, r []int32) error) *pairBlock {
	n = min(n, hashBlock)
	return &pairBlock{l: make([]int32, n), r: make([]int32, n), fn: fn}
}

// emit runs src's pairs at output positions [lo, hi) through the block and
// hands on its last, partial block.
func (b *pairBlock) emit(src pairSource, lo, hi int) error {
	if lo >= hi {
		return nil
	}
	b.k, b.off = 0, lo
	if err := src.pairs(lo, hi, b); err != nil {
		return err
	}
	return b.flush()
}

// add buffers one pair and reports whether the block is full, when the
// caller must flush it.
func (b *pairBlock) add(l, r int32) (full bool) {
	b.l[b.k], b.r[b.k] = l, r
	b.k++
	return b.k == len(b.l)
}

func (b *pairBlock) flush() error {
	if b.k == 0 {
		return nil
	}
	k := b.k
	b.k = 0
	err := b.fn(b.off, b.l[:k], b.r[:k])
	b.off += k
	return err
}

// matchJoin runs a join's inputs and matches their rows with the hash,
// symmetric-hash or nested-loop join, charging what the match keeps alive
// to the query's memory budget; start is when the join's own work began.
func (db *DB) matchJoin(j *LJoin, ec *execCtx) (m *joinMatch, start time.Time, err error) {
	m = &joinMatch{}
	if m.left, err = db.execPlan(j.L, ec); err != nil {
		return nil, start, err
	}
	if m.right, err = db.execPlan(j.R, ec); err != nil {
		return nil, start, err
	}
	start = time.Now()
	var bytes int64
	switch {
	case j.LeftOuter:
		bytes, err = db.leftOuterHashJoin(m, j, ec)
	case len(j.EquiL) == 0:
		ln, rn := m.left.NumRows(), m.right.NumRows()
		m.n, m.src = ln*rn, crossPairs{rn: rn}
	case j.Symmetric:
		bytes, err = db.symmetricHashJoin(m, j, ec)
	default:
		bytes, err = db.hashJoin(m, j, ec)
	}
	if err != nil {
		return nil, start, err
	}
	if err := ec.chargeBytes(bytes); err != nil {
		return nil, start, err
	}
	return m, start, nil
}

// execJoin materialises the columns of a join's output that its ancestors
// read: every pair block is gathered straight into exactly-sized output
// columns at its offset, so workers fill disjoint ranges.
func (db *DB) execJoin(j *LJoin, ec *execCtx) (*Result, error) {
	m, start, err := db.matchJoin(j, ec)
	if err != nil {
		return nil, err
	}
	nl, nc := len(m.left.Schema), len(m.left.Schema)+len(m.right.Schema)
	out := &Result{Schema: make([]OutCol, 0, nc), Cols: make([]*Column, nc), rows: m.n}
	out.Schema = append(append(out.Schema, m.left.Schema...), m.right.Schema...)
	var lCols, rCols []int // output positions gathered from each side
	for i := range out.Cols {
		switch {
		case j.used != nil && !j.used[i]:
		case i < nl:
			if c := m.left.Cols[i]; c != nil {
				out.Cols[i] = newGatherColumn(c, m.n, false)
				lCols = append(lCols, i)
			}
		default:
			if c := m.right.Cols[i-nl]; c != nil {
				out.Cols[i] = newGatherColumn(c, m.n, m.padded)
				rCols = append(rCols, i)
			}
		}
	}
	if len(lCols)+len(rCols) == 0 {
		ec.profAdd(start)
		return out, nil // no column read: the pair count is the output
	}
	deg := ec.parDegreeFor(m.n)
	blocks := make([]*pairBlock, max(deg, 1))
	if err := ec.chargeBytes(int64(len(blocks)) * pairBlockBytes); err != nil {
		return nil, err
	}
	stats, err := db.runMorsels(ec, deg, m.n, func(w, lo, hi int) error {
		if blocks[w] == nil {
			blocks[w] = newPairBlock(m.n, func(off int, l, r []int32) error {
				for _, ci := range lCols {
					gatherAt(out.Cols[ci], off, m.left.Cols[ci], l)
				}
				for _, ci := range rCols {
					gatherAt(out.Cols[ci], off, m.right.Cols[ci-nl], r)
				}
				return nil
			})
		}
		return blocks[w].emit(m.src, lo, hi)
	})
	if err != nil {
		return nil, err
	}
	db.notePar(ec, stats)
	ec.profAdd(start)
	return out, nil
}

// joinKeys evaluates a join input's key expressions as vectors.
// Row-evaluated keys fan out as morsels when the input is large.
func (db *DB) joinKeys(in *Result, exprs []Expr, ec *execCtx) ([]vec, error) {
	vx := make([]vecExpr, len(exprs))
	for i, e := range exprs {
		x, err := db.compileOp(ec, e, in.Schema, false)
		if err != nil {
			return nil, err
		}
		vx[i] = x
	}
	n := in.NumRows()
	deg := ec.parDegreeFor(n)
	if deg > 1 && !db.exprsParallelSafe(exprs) {
		deg = 1
	}
	return db.evalVecs(ec, vx, in, n, deg)
}

// joinIndex is the build side of a hash join: one keyTable numbering the
// build keys, and per key the first build row carrying it; the rows that
// carry a key chain through next in ascending order. A build row with a
// NULL key part is numbered like any other, but no probe finds it.
type joinIndex struct {
	kt        *keyTable
	head      []int32 // per key: its first build row
	next, rem []int32 // per build row: next chain row, rows from it to the chain's end
}

// bytes is the memory the index holds: its chains and its key table.
func (ix *joinIndex) bytes() int64 {
	return int64(8*len(ix.next)+4*len(ix.head)) + ix.kt.bytes()
}

// buildJoinIndex numbers the build side's keys, a morsel at a time between
// cancellation checks, and chains the rows by key.
func buildJoinIndex(ec *execCtx, keys []vec) (*joinIndex, error) {
	n := vecsLen(keys)
	ix := &joinIndex{kt: newKeyTable(keys), next: make([]int32, n), rem: make([]int32, n)}
	for lo := 0; lo < n; lo += morselRows {
		if err := ec.check(); err != nil {
			return nil, err
		}
		hi := min(lo+morselRows, n)
		ix.kt.number(keys, lo, hi, ix.next[lo:hi])
	}
	ix.head = chainRows(ix.next, ix.kt.len())
	for r := n - 1; r >= 0; r-- {
		ix.rem[r] = 1
		if x := ix.next[r]; x >= 0 {
			ix.rem[r] += ix.rem[x]
		}
	}
	return ix, nil
}

// chainRows turns ids, each row's key id, into the rows' chains by key:
// ids[r] becomes the next row carrying r's key (-1 at the chain's end), and
// head[id] is the first row carrying key id. Ids are numbered first-seen,
// so a row starts a chain exactly when its id is the next unseen one, and
// every chain is ascending.
func chainRows(ids []int32, keys int) (head []int32) {
	head, tail := make([]int32, keys), make([]int32, keys)
	seen := int32(0)
	for r, id := range ids {
		if id == seen {
			head[id] = int32(r)
			seen++
		} else {
			ids[tail[id]] = int32(r)
		}
		tail[id], ids[r] = int32(r), -1
	}
	return head
}

// hashPairs is a hash join's pairs: per probe row its first build match,
// and per probe morsel the output position of its first pair. A build
// row's rem counts the pairs from it to the end of its chain, so a probe
// row's pair count is its head's rem. An outer join's probe row without a
// match has one pair, against build row -1.
type hashPairs struct {
	heads     []int32 // per probe row: first matching build row, -1 none
	offs      []int   // per probe morsel: output position of its first pair; the last entry is the pair count
	next, rem []int32 // per build row: next chain row, pairs to the chain's end
	outer     bool
	buildLeft bool // the build side is the join's left input
}

// count is probe row i's number of pairs.
func (hp *hashPairs) count(i int) int {
	if h := hp.heads[i]; h >= 0 {
		return int(hp.rem[h])
	}
	if hp.outer {
		return 1
	}
	return 0
}

// seek returns the pair at output position lo, lo below the pair count:
// its probe row and its build row, -1 for an outer join's padding. It
// finds lo's probe morsel, then its probe row, then its link in the row's
// chain.
func (hp *hashPairs) seek(lo int) (row int, bi int32) {
	m := sort.Search(len(hp.offs)-1, func(i int) bool { return hp.offs[i+1] > lo })
	row, pos := m*morselRows, hp.offs[m]
	for c := hp.count(row); pos+c <= lo; c = hp.count(row) {
		pos += c
		row++
	}
	bi = hp.heads[row]
	for ; pos < lo; pos++ {
		bi = hp.next[bi]
	}
	return row, bi
}

func (hp *hashPairs) pairs(lo, hi int, b *pairBlock) error {
	row, bi := hp.seek(lo)
	for pos := lo; ; {
		if bi < 0 && hp.outer && hp.heads[row] < 0 {
			if b.add(int32(row), -1) {
				if err := b.flush(); err != nil {
					return err
				}
			}
			pos++
		}
		for ; bi >= 0 && pos < hi; bi = hp.next[bi] {
			l, r := int32(row), bi
			if hp.buildLeft {
				l, r = bi, int32(row)
			}
			if b.add(l, r) {
				if err := b.flush(); err != nil {
					return err
				}
			}
			pos++
		}
		if pos >= hi {
			return nil
		}
		row++
		bi = hp.heads[row]
	}
}

// probeJoin probes every row of p against the build index in one
// morsel-parallel pass that records each probe row's first match and each
// morsel's pair count; a prefix sum turns the counts into the morsels'
// output positions. With outer=true, probe rows with no match count one
// pair (NULL padding), and padded reports whether there is one.
func (db *DB) probeJoin(ec *execCtx, ix *joinIndex, p []vec, deg int, outer bool) (hp *hashPairs, padded bool, err error) {
	n := vecsLen(p)
	hp = &hashPairs{heads: make([]int32, n), offs: make([]int, (n+morselRows-1)/morselRows+1),
		next: ix.next, rem: ix.rem, outer: outer}
	stats, err := db.runMorsels(ec, deg, n, func(_, lo, hi int) error {
		// A call covers whole morsels (the last maybe short), so calls
		// never share a count.
		heads := hp.heads[lo:hi]
		ix.kt.lookup(p, lo, hi, heads)
		for i, id := range heads {
			if id >= 0 {
				heads[i] = ix.head[id]
			}
			hp.offs[(lo+i)/morselRows+1] += hp.count(lo + i)
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	db.notePar(ec, stats)
	for m := 1; m < len(hp.offs); m++ {
		hp.offs[m] += hp.offs[m-1]
	}
	return hp, outer && slices.Contains(hp.heads, -1), nil
}

// bytes is what the pairs keep alive besides the build index.
func (hp *hashPairs) bytes() int64 { return int64(4*len(hp.heads) + 8*len(hp.offs)) }

// hashJoin is the classic build/probe equi-join: build on the smaller side,
// probe from the larger. The build numbers the build keys in one pass (a
// slot write per row when they are dense); the probe is morsel-parallel
// via per-row pair counts, and the pairs come out in the serial probe
// loop's order.
func (db *DB) hashJoin(m *joinMatch, j *LJoin, ec *execCtx) (int64, error) {
	l, err := db.joinKeys(m.left, j.EquiL, ec)
	if err != nil {
		return 0, err
	}
	r, err := db.joinKeys(m.right, j.EquiR, ec)
	if err != nil {
		return 0, err
	}
	buildLeft := m.left.NumRows() <= m.right.NumRows()
	b, p := l, r
	if !buildLeft {
		b, p = r, l
	}
	ix, err := buildJoinIndex(ec, b)
	if err != nil {
		return 0, err
	}
	hp, _, err := db.probeJoin(ec, ix, p, ec.parDegreeFor(vecsLen(p)), false)
	if err != nil {
		return 0, err
	}
	hp.buildLeft = buildLeft
	m.n, m.src = hp.offs[len(hp.offs)-1], hp
	return ix.bytes() + hp.bytes(), nil
}

// leftOuterHashJoin builds on the right side and probes from the left;
// unmatched left rows are emitted once with NULL-padded right columns.
func (db *DB) leftOuterHashJoin(m *joinMatch, j *LJoin, ec *execCtx) (int64, error) {
	l, err := db.joinKeys(m.left, j.EquiL, ec)
	if err != nil {
		return 0, err
	}
	r, err := db.joinKeys(m.right, j.EquiR, ec)
	if err != nil {
		return 0, err
	}
	ix, err := buildJoinIndex(ec, r)
	if err != nil {
		return 0, err
	}
	hp, padded, err := db.probeJoin(ec, ix, l, ec.parDegreeFor(vecsLen(l)), true)
	if err != nil {
		return 0, err
	}
	m.n, m.padded, m.src = hp.offs[len(hp.offs)-1], padded, hp
	return ix.bytes() + hp.bytes(), nil
}

// symPairs is a symmetric hash join's pairs, by schedule step: at step i
// left row i meets the right rows before it, then right row i meets the
// left rows up to and including it. lHead/rHead hold each step's first
// match in the other side's chains, which stay ascending, so a step's
// pairs are a prefix of each chain.
type symPairs struct {
	lHead, rHead []int32 // per step: left row i's first right match, right row i's first left match
	lNext, rNext []int32
	offs         []int // per step: output position of its first pair
}

func (sp *symPairs) pairs(lo, hi int, b *pairBlock) error {
	step := sort.Search(len(sp.lHead), func(i int) bool { return sp.offs[i+1] > lo })
	for pos := sp.offs[step]; pos < hi; step++ {
		i := int32(step)
		for r := sp.lHead[step]; r >= 0 && r < i && pos < hi; r = sp.rNext[r] {
			if pos++; pos > lo {
				if b.add(i, r) {
					if err := b.flush(); err != nil {
						return err
					}
				}
			}
		}
		for l := sp.rHead[step]; l >= 0 && l <= i && pos < hi; l = sp.lNext[l] {
			if pos++; pos > lo {
				if b.add(l, i) {
					if err := b.flush(); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// symmetricHashJoin implements the paper's hint rule 3: both inputs are
// consumed incrementally (row-at-a-time here), each row is inserted into
// its side's hash table and immediately probed against the other side's
// table. With one side being nUDF outputs arriving in batches, this starts
// producing joined tuples before either side is complete. The LRU bucket
// behaviour of the paper is modelled by processing in bucket-grouped order.
// Both sides' keys are numbered up front, each in its own side's table and
// looked up in the other's; the alternating schedule then replays over
// those ids, serially: a row meets the other side's rows with its key that
// the schedule inserted before it, counted per key. It records each step's
// first matches and pair count, from which the pairs are emitted in
// schedule order.
func (db *DB) symmetricHashJoin(m *joinMatch, j *LJoin, ec *execCtx) (int64, error) {
	l, err := db.joinKeys(m.left, j.EquiL, ec)
	if err != nil {
		return 0, err
	}
	r, err := db.joinKeys(m.right, j.EquiR, ec)
	if err != nil {
		return 0, err
	}
	ln, rn := vecsLen(l), vecsLen(r)
	lt, rt := newKeyTable(l), newKeyTable(r)
	// Per row: its key's id in its own side's table, and in the other's
	// (-1: none there).
	lID, rID, lIn, rIn := make([]int32, ln), make([]int32, rn), make([]int32, ln), make([]int32, rn)
	lt.number(l, 0, ln, lID)
	rt.number(r, 0, rn, rID)
	rt.lookup(l, 0, ln, lIn)
	lt.lookup(r, 0, rn, rIn)
	steps := max(ln, rn)
	sp := &symPairs{lHead: make([]int32, steps), rHead: make([]int32, steps),
		lNext: slices.Clone(lID), rNext: slices.Clone(rID), offs: make([]int, steps+1)}
	lFirst, rFirst := chainRows(sp.lNext, lt.len()), chainRows(sp.rNext, rt.len())
	lSeen, rSeen := make([]int32, lt.len()), make([]int32, rt.len()) // per key: rows inserted so far
	// The schedule is inherently serial, so the cancellation point is a
	// ctx check every morselRows iterations.
	for i := 0; i < steps; i++ {
		if i%morselRows == 0 {
			if err := ec.check(); err != nil {
				return 0, err
			}
		}
		lh, rh, pairs := int32(-1), int32(-1), 0
		if i < ln {
			if id := lIn[i]; id >= 0 && rSeen[id] > 0 {
				lh, pairs = rFirst[id], pairs+int(rSeen[id])
			}
			lSeen[lID[i]]++
		}
		if i < rn {
			if id := rIn[i]; id >= 0 && lSeen[id] > 0 {
				rh, pairs = lFirst[id], pairs+int(lSeen[id])
			}
			rSeen[rID[i]]++
		}
		sp.lHead[i], sp.rHead[i] = lh, rh
		sp.offs[i+1] = sp.offs[i] + pairs
	}
	m.n, m.src = sp.offs[steps], sp
	return int64(16*steps+20*(ln+rn)+8+12*(lt.len()+rt.len())) + lt.bytes() + rt.bytes(), nil
}

// crossPairs is a nested-loop join's pairs: the cross product, left row
// major. It handles joins without equi conditions (cross joins and non-equi
// predicates such as the paper's Type 4 `F.patternID != nUDF_recog(V.keyframe)`,
// which an LFilter applies above the join); output position p is left row
// p / rn beside right row p % rn, so any range is computed, not stored.
type crossPairs struct{ rn int }

func (c crossPairs) pairs(lo, hi int, b *pairBlock) error {
	i, k := lo/c.rn, lo%c.rn
	for pos := lo; pos < hi; pos++ {
		if b.add(int32(i), int32(k)) {
			if err := b.flush(); err != nil {
				return err
			}
		}
		if k++; k == c.rn {
			i, k = i+1, 0
		}
	}
	return nil
}
