package sqldb

// Joins. A join runs in two steps. Matching evaluates both sides' keys,
// builds the hash index (or, for a symmetric join, runs its alternating
// insert/probe schedule) and counts every probe row's match pairs, so the
// join's output size and each row's first output position are known
// before any pair exists. Emission then walks the build chains and hands
// the pairs at any range of output positions to the join's consumer, a
// block of at most hashBlock pairs at a time through reused buffers: no
// operator holds the join's whole pair list. execJoin gathers each block
// into its exactly-sized output columns at the block's offset; an
// aggregate over the join (agg.go) folds each block straight into its
// groups. Pairs come out in one order for every consumer and degree:
// probe row (or schedule step) ascending, then build chain ascending.

import (
	"context"
	"slices"
	"sort"
	"time"

	"repro/internal/par"
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
		ec.profAdd(OpJoin, m.n, start)
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
	ec.profAdd(OpJoin, m.n, start)
	return out, nil
}

// joinSide is one join input's key vectors. Rows are hashed a block at a
// time where they are inserted or probed, so no per-row hash array is
// materialized.
type joinSide struct {
	keys     []vec
	ints     [][]int64 // intKeys(keys)
	nullable bool      // some key can be NULL (such rows never match)
}

// joinSide evaluates a side's key expressions as vectors. Row-evaluated
// keys fan out as morsels when the side is large.
func (db *DB) joinSide(in *Result, exprs []Expr, ec *execCtx) (*joinSide, error) {
	vx := make([]vecExpr, len(exprs))
	for i, e := range exprs {
		x, err := db.compileVec(ec.ctx, e, in.Schema)
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
	keys, err := db.evalVecs(ec, vx, in, n, deg)
	if err != nil {
		return nil, err
	}
	s := &joinSide{keys: keys, ints: intKeys(keys)}
	for _, k := range keys {
		if k.col == nil || k.col.Type == TNull || k.col.Nulls != nil {
			s.nullable = true
		}
	}
	return s, nil
}

func (s *joinSide) len() int {
	if len(s.keys) == 0 {
		return 0
	}
	return s.keys[0].len()
}

// joinPart is one partition of a hash join's build side: its distinct keys,
// and per key the first and last build row carrying it; the rows in between
// chain through joinIndex.next in ascending order.
type joinPart struct {
	kt         *keyTable
	head, tail []int32
	count      []int32 // chain length per key
}

// add appends build row r (key hash h) to its key's chain.
func (jp *joinPart) add(h uint64, r int, next []int32) {
	id, added := jp.kt.insert(h, r)
	next[r] = -1
	if added {
		jp.head = append(jp.head, int32(r))
		jp.tail = append(jp.tail, int32(r))
		jp.count = append(jp.count, 1)
		return
	}
	next[jp.tail[id]] = int32(r)
	jp.tail[id] = int32(r)
	jp.count[id]++
}

// find returns the id of the key equal to row of the probe side, or -1.
func (jp *joinPart) find(h uint64, probe *joinSide, row int) int32 {
	if jp.kt == nil {
		return -1 // partition skipped by a cancelled build
	}
	return jp.kt.find(h, probe.keys, probe.ints, row)
}

// first returns the first build row whose key equals row of the probe
// side, or -1.
func (jp *joinPart) first(h uint64, probe *joinSide, row int) int32 {
	if id := jp.find(h, probe, row); id >= 0 {
		return jp.head[id]
	}
	return -1
}

// joinIndex is the build side of a hash join. With one partition it is one
// keyTable; with P partitions each key lives in partition hash % P, so a
// parallel build assigns each worker whole partitions and never takes a
// lock. Chains are ascending in either layout (partition builds scan the
// rows in order), which keeps probe output identical to the serial join.
type joinIndex struct {
	parts     []joinPart
	next, rem []int32 // per build row: next chain row, rows from it to the chain's end
}

// bytes is the memory the index holds: its chains and its partitions'
// tables.
func (ix *joinIndex) bytes() int64 {
	b := int64(8 * len(ix.next))
	for i := range ix.parts {
		b += ix.parts[i].bytes()
	}
	return b
}

func (jp *joinPart) bytes() int64 {
	if jp.kt == nil {
		return 0
	}
	return jp.kt.bytes() + int64(12*len(jp.head))
}

func partOf(h uint64, p int) int {
	if p == 1 {
		return 0
	}
	return int((h >> 32) % uint64(p))
}

// buildJoinIndex hashes the build side. A done ctx stops the partition
// workers early and leaves the index incomplete — callers must check the
// query context (ec.check) before trusting the result.
func buildJoinIndex(ctx context.Context, b *joinSide, degree int) *joinIndex {
	n := b.len()
	p := degree
	if p < 1 {
		p = 1
	}
	ix := &joinIndex{parts: make([]joinPart, p), next: make([]int32, n), rem: make([]int32, n)}
	par.RunCtx(ctx, degree, p, 1, func(_, lo, hi int) {
		for pi := lo; pi < hi; pi++ {
			jp := joinPart{kt: newKeyTable(b.keys, 0)}
			_ = hashBlocks(b.keys, 0, n, b.nullable, func(start int, h []uint64, null []bool) error {
				for i, x := range h {
					if (null == nil || !null[i]) && partOf(x, p) == pi {
						jp.add(x, start+i, ix.next)
					}
				}
				return nil
			})
			for id, r := range jp.head {
				for c := jp.count[id]; r >= 0; r, c = ix.next[r], c-1 {
					ix.rem[r] = c
				}
			}
			ix.parts[pi] = jp
		}
	})
	return ix
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

func (hp *hashPairs) pairs(lo, hi int, b *pairBlock) error {
	// Seek lo: its probe morsel, its probe row, its link in the row's chain.
	m := sort.Search(len(hp.offs)-1, func(i int) bool { return hp.offs[i+1] > lo })
	row, pos := m*morselRows, hp.offs[m]
	for c := hp.count(row); pos+c <= lo; c = hp.count(row) {
		pos += c
		row++
	}
	bi := hp.heads[row]
	for ; pos < lo; pos++ {
		bi = hp.next[bi]
	}
	for {
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
func (db *DB) probeJoin(ec *execCtx, ix *joinIndex, p *joinSide, deg int, outer bool) (hp *hashPairs, padded bool, err error) {
	n := p.len()
	hp = &hashPairs{heads: make([]int32, n), offs: make([]int, (n+morselRows-1)/morselRows+1),
		next: ix.next, rem: ix.rem, outer: outer}
	stats, err := db.runMorsels(ec, deg, n, func(_, lo, hi int) error {
		// A call covers whole morsels (the last maybe short), so calls
		// never share a count.
		return hashBlocks(p.keys, lo, hi, p.nullable, func(start int, h []uint64, null []bool) error {
			for i, x := range h {
				r, head := start+i, int32(-1)
				if null == nil || !null[i] {
					head = ix.parts[partOf(x, len(ix.parts))].first(x, p, r)
				}
				hp.heads[r] = head
				hp.offs[r/morselRows+1] += hp.count(r)
			}
			return nil
		})
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
// probe from the larger. Both phases are morsel-parallel — the build via
// hash-partitioned sub-tables, the probe via per-row pair counts — and
// the pairs come out in the serial probe loop's order.
func (db *DB) hashJoin(m *joinMatch, j *LJoin, ec *execCtx) (int64, error) {
	l, err := db.joinSide(m.left, j.EquiL, ec)
	if err != nil {
		return 0, err
	}
	r, err := db.joinSide(m.right, j.EquiR, ec)
	if err != nil {
		return 0, err
	}
	buildLeft := m.left.NumRows() <= m.right.NumRows()
	b, p := l, r
	if !buildLeft {
		b, p = r, l
	}
	ix := buildJoinIndex(ec.ctx, b, ec.parDegreeFor(b.len()))
	if err := ec.check(); err != nil {
		return 0, err // the build may be partial after cancellation
	}
	hp, _, err := db.probeJoin(ec, ix, p, ec.parDegreeFor(p.len()), false)
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
	l, err := db.joinSide(m.left, j.EquiL, ec)
	if err != nil {
		return 0, err
	}
	r, err := db.joinSide(m.right, j.EquiR, ec)
	if err != nil {
		return 0, err
	}
	ix := buildJoinIndex(ec.ctx, r, ec.parDegreeFor(r.len()))
	if err := ec.check(); err != nil {
		return 0, err // the build may be partial after cancellation
	}
	hp, padded, err := db.probeJoin(ec, ix, l, ec.parDegreeFor(l.len()), true)
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
// The alternating insert/probe schedule is inherently sequential, so it
// runs serially (its key evaluation still parallelizes); it records each
// step's first matches and pair count, from which the pairs are emitted
// in schedule order.
func (db *DB) symmetricHashJoin(m *joinMatch, j *LJoin, ec *execCtx) (int64, error) {
	l, err := db.joinSide(m.left, j.EquiL, ec)
	if err != nil {
		return 0, err
	}
	r, err := db.joinSide(m.right, j.EquiR, ec)
	if err != nil {
		return 0, err
	}
	ln, rn := l.len(), r.len()
	lHash, rHash := make([]uint64, ln), make([]uint64, rn)
	var lNull, rNull []bool
	if l.nullable {
		lNull = make([]bool, ln)
	}
	if r.nullable {
		rNull = make([]bool, rn)
	}
	hashVecs(l.keys, 0, lHash, lNull)
	hashVecs(r.keys, 0, rHash, rNull)
	lHT := joinPart{kt: newKeyTable(l.keys, 0)}
	rHT := joinPart{kt: newKeyTable(r.keys, 0)}
	steps := max(ln, rn)
	sp := &symPairs{lHead: make([]int32, steps), rHead: make([]int32, steps),
		lNext: make([]int32, ln), rNext: make([]int32, rn), offs: make([]int, steps+1)}
	// Alternate consuming one row from each side (the streaming schedule).
	// The schedule is inherently serial, so the cancellation point is a
	// ctx check every morselRows iterations.
	for i := 0; i < steps; i++ {
		if i%morselRows == 0 {
			if err := ec.check(); err != nil {
				return 0, err
			}
		}
		lh, rh, pairs := int32(-1), int32(-1), 0
		if i < ln && (lNull == nil || !lNull[i]) {
			h := lHash[i]
			if id := rHT.find(h, l, i); id >= 0 {
				lh, pairs = rHT.head[id], pairs+int(rHT.count[id])
			}
			lHT.add(h, i, sp.lNext)
		}
		if i < rn && (rNull == nil || !rNull[i]) {
			h := rHash[i]
			if id := lHT.find(h, r, i); id >= 0 {
				rh, pairs = lHT.head[id], pairs+int(lHT.count[id])
			}
			rHT.add(h, i, sp.rNext)
		}
		sp.lHead[i], sp.rHead[i] = lh, rh
		sp.offs[i+1] = sp.offs[i] + pairs
	}
	m.n, m.src = sp.offs[steps], sp
	return int64(16*steps+12*(ln+rn)+8) + lHT.bytes() + rHT.bytes(), nil
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
