package sqldb

import (
	"context"
	"time"

	"repro/internal/par"
)

// joinMatch is a join's output before materialisation: its inputs and its
// match pairs. Output row i is row lIdx[i] of left beside row rIdx[i] of
// right; rIdx -1 pads an outer join's unmatched row with NULLs.
type joinMatch struct {
	left, right *Result
	lIdx, rIdx  []int32
}

// matchJoin runs a join's inputs and matches their rows with the hash,
// symmetric-hash or nested-loop join; start is when the join's own work
// began.
func (db *DB) matchJoin(j *LJoin, ec *execCtx) (m *joinMatch, start time.Time, err error) {
	m = &joinMatch{}
	if m.left, err = db.execPlan(j.L, ec); err != nil {
		return nil, start, err
	}
	if m.right, err = db.execPlan(j.R, ec); err != nil {
		return nil, start, err
	}
	start = time.Now()
	switch {
	case j.LeftOuter:
		m.lIdx, m.rIdx, err = db.leftOuterHashJoin(m.left, m.right, j, ec)
	case len(j.EquiL) == 0:
		m.lIdx, m.rIdx, err = db.nestedLoopJoin(m.left, m.right, ec)
	case j.Symmetric:
		m.lIdx, m.rIdx, err = db.symmetricHashJoin(m.left, m.right, j, ec)
	default:
		m.lIdx, m.rIdx, err = db.hashJoin(m.left, m.right, j, ec)
	}
	if err != nil {
		return nil, start, err
	}
	return m, start, nil
}

// gather materialises the join's output columns at the positions used
// marks (nil: every position).
func (m *joinMatch) gather(used []bool) *Result {
	nl, n := len(m.left.Schema), len(m.left.Schema)+len(m.right.Schema)
	out := &Result{Schema: make([]OutCol, 0, n), Cols: make([]*Column, n), rows: len(m.lIdx)}
	out.Schema = append(append(out.Schema, m.left.Schema...), m.right.Schema...)
	var lu, ru []bool
	if used != nil {
		lu, ru = used[:nl], used[nl:]
	}
	gatherCols(out.Cols[:nl], m.left.Cols, m.lIdx, lu)
	gatherCols(out.Cols[nl:], m.right.Cols, m.rIdx, ru)
	return out
}

// execJoin materialises the columns of a join's output that its ancestors
// read.
func (db *DB) execJoin(j *LJoin, ec *execCtx) (*Result, error) {
	m, start, err := db.matchJoin(j, ec)
	if err != nil {
		return nil, err
	}
	out := m.gather(j.used)
	ec.profAdd(OpJoin, out.NumRows(), start)
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
		x, err := db.compileVec(ec.ctx, e, in.Schema, nil)
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

// first returns the first build row whose key equals row of the probe
// side and the number of build rows with that key, or -1, 0.
func (jp *joinPart) first(h uint64, probe *joinSide, row int) (int32, int) {
	if jp.kt == nil {
		return -1, 0 // partition skipped by a cancelled build
	}
	if id := jp.kt.find(h, probe.keys, probe.ints, row); id >= 0 {
		return jp.head[id], int(jp.count[id])
	}
	return -1, 0
}

// joinIndex is the build side of a hash join. With one partition it is one
// keyTable; with P partitions each key lives in partition hash % P, so a
// parallel build assigns each worker whole partitions and never takes a
// lock. Chains are ascending in either layout (partition builds scan the
// rows in order), which keeps probe output identical to the serial join.
type joinIndex struct {
	parts []joinPart
	next  []int32
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
	ix := &joinIndex{parts: make([]joinPart, p), next: make([]int32, n)}
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
			ix.parts[pi] = jp
		}
	})
	return ix
}

// probeJoin probes every row of p against the build index in two
// morsel-parallel passes: the first finds each probe row's first match and
// counts every morsel's output pairs, the second writes each morsel's pairs
// at its offset in exactly-sized outputs. Morsel order is row order, so the
// output reproduces the serial probe loop's exactly. With outer=true, probe
// rows with no match emit one pair with build index -1 (NULL padding).
func (db *DB) probeJoin(ec *execCtx, ix *joinIndex, p *joinSide, deg int, outer bool) ([]int32, []int32, error) {
	n := p.len()
	heads := make([]int32, n)
	offsets := make([]int, (n+morselRows-1)/morselRows+1)
	stats, err := db.runMorsels(ec, deg, n, func(_, lo, hi int) error {
		pairs := 0
		_ = hashBlocks(p.keys, lo, hi, p.nullable, func(start int, h []uint64, null []bool) error {
			for i, x := range h {
				head, count := int32(-1), 0
				if null == nil || !null[i] {
					head, count = ix.parts[partOf(x, len(ix.parts))].first(x, p, start+i)
				}
				heads[start+i] = head
				if count == 0 && outer {
					count = 1
				}
				pairs += count
			}
			return nil
		})
		offsets[lo/morselRows+1] = pairs
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	db.notePar(ec, stats)
	for m := 1; m < len(offsets); m++ {
		offsets[m] += offsets[m-1]
	}
	total := offsets[len(offsets)-1]
	pIdx, bIdx := make([]int32, total), make([]int32, total)
	if _, err := db.runMorsels(ec, deg, n, func(_, lo, hi int) error {
		o := offsets[lo/morselRows]
		for pi := lo; pi < hi; pi++ {
			bi := heads[pi]
			if bi < 0 && outer {
				pIdx[o], bIdx[o] = int32(pi), -1
				o++
			}
			for ; bi >= 0; bi = ix.next[bi] {
				pIdx[o], bIdx[o] = int32(pi), bi
				o++
			}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	return pIdx, bIdx, nil
}

// hashJoin is the classic build/probe equi-join: build on the smaller side,
// probe from the larger. Both phases are morsel-parallel — the build via
// hash-partitioned sub-tables, the probe via per-morsel pair counts that
// place each morsel's matches in morsel order — and produce the same match
// list as the serial loops.
func (db *DB) hashJoin(left, right *Result, j *LJoin, ec *execCtx) (lIdx, rIdx []int32, err error) {
	l, err := db.joinSide(left, j.EquiL, ec)
	if err != nil {
		return nil, nil, err
	}
	r, err := db.joinSide(right, j.EquiR, ec)
	if err != nil {
		return nil, nil, err
	}
	buildLeft := left.NumRows() <= right.NumRows()
	b, p := l, r
	if !buildLeft {
		b, p = r, l
	}
	ix := buildJoinIndex(ec.ctx, b, ec.parDegreeFor(b.len()))
	if err := ec.check(); err != nil {
		return nil, nil, err // the build may be partial after cancellation
	}
	pIdx, bIdx, err := db.probeJoin(ec, ix, p, ec.parDegreeFor(p.len()), false)
	if err != nil {
		return nil, nil, err
	}
	if buildLeft {
		return bIdx, pIdx, nil
	}
	return pIdx, bIdx, nil
}

// leftOuterHashJoin builds on the right side and probes from the left;
// unmatched left rows are emitted once with NULL-padded right columns.
func (db *DB) leftOuterHashJoin(left, right *Result, j *LJoin, ec *execCtx) (lIdx, rIdx []int32, err error) {
	l, err := db.joinSide(left, j.EquiL, ec)
	if err != nil {
		return nil, nil, err
	}
	r, err := db.joinSide(right, j.EquiR, ec)
	if err != nil {
		return nil, nil, err
	}
	ix := buildJoinIndex(ec.ctx, r, ec.parDegreeFor(r.len()))
	if err := ec.check(); err != nil {
		return nil, nil, err // the build may be partial after cancellation
	}
	return db.probeJoin(ec, ix, l, ec.parDegreeFor(l.len()), true)
}

// symmetricHashJoin implements the paper's hint rule 3: both inputs are
// consumed incrementally (block-at-a-time here), each row is inserted into
// its side's hash table and immediately probed against the other side's
// table. With one side being nUDF outputs arriving in batches, this starts
// producing joined tuples before either side is complete. The LRU bucket
// behaviour of the paper is modelled by processing in bucket-grouped order.
// The alternating insert/probe schedule is inherently sequential, so this
// join always runs serially (its key evaluation still parallelizes).
func (db *DB) symmetricHashJoin(left, right *Result, j *LJoin, ec *execCtx) (lIdx, rIdx []int32, err error) {
	l, err := db.joinSide(left, j.EquiL, ec)
	if err != nil {
		return nil, nil, err
	}
	r, err := db.joinSide(right, j.EquiR, ec)
	if err != nil {
		return nil, nil, err
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
	lNext, rNext := make([]int32, ln), make([]int32, rn)
	max := ln
	if rn > max {
		max = rn
	}
	// Alternate consuming one row from each side (the streaming schedule).
	// The schedule is inherently serial, so the cancellation point is a
	// ctx check every morselRows iterations.
	for i := 0; i < max; i++ {
		if i%morselRows == 0 {
			if err := ec.check(); err != nil {
				return nil, nil, err
			}
		}
		if i < ln && (lNull == nil || !lNull[i]) {
			h := lHash[i]
			ri, _ := rHT.first(h, l, i)
			for ; ri >= 0; ri = rNext[ri] {
				lIdx = append(lIdx, int32(i))
				rIdx = append(rIdx, ri)
			}
			lHT.add(h, i, lNext)
		}
		if i < rn && (rNull == nil || !rNull[i]) {
			h := rHash[i]
			li, _ := lHT.first(h, r, i)
			for ; li >= 0; li = lNext[li] {
				lIdx = append(lIdx, li)
				rIdx = append(rIdx, int32(i))
			}
			rHT.add(h, i, rNext)
		}
	}
	return lIdx, rIdx, nil
}

// nestedLoopJoin handles joins without equi conditions (cross joins and
// non-equi predicates such as the paper's Type 4
// `F.patternID != nUDF_recog(V.keyframe)`, which an LFilter applies above
// the join). The cross product is fanned out over left-row morsels; each
// morsel's pair block is a contiguous, position-computable slice of the
// full product, so workers write disjoint regions of the final index
// slices directly.
func (db *DB) nestedLoopJoin(left, right *Result, ec *execCtx) (lIdx, rIdx []int32, err error) {
	ln, rn := left.NumRows(), right.NumRows()
	lIdx = make([]int32, ln*rn)
	rIdx = make([]int32, ln*rn)
	deg := 1
	if rn > 0 {
		deg = ec.parDegreeFor(ln * rn)
	}
	morsel := morselRows / (rn + 1)
	if morsel < 1 {
		morsel = 1
	}
	stats := par.RunCtx(ec.ctx, deg, ln, morsel, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			base := i * rn
			for k := 0; k < rn; k++ {
				lIdx[base+k] = int32(i)
				rIdx[base+k] = int32(k)
			}
		}
	})
	db.notePar(ec, stats)
	if err := ec.check(); err != nil {
		return nil, nil, err // the cross-product fill may be partial
	}
	return lIdx, rIdx, nil
}
