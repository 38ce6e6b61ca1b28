package sqldb

import (
	"context"
	"time"

	"repro/internal/par"
)

// execJoin dispatches to the hash, symmetric-hash, or nested-loop join.
func (db *DB) execJoin(j *LJoin, ec *execCtx) (*Result, error) {
	left, err := db.execPlan(j.L, ec)
	if err != nil {
		return nil, err
	}
	right, err := db.execPlan(j.R, ec)
	if err != nil {
		return nil, err
	}
	switch {
	case j.LeftOuter:
		return db.leftOuterHashJoin(left, right, j, ec)
	case len(j.EquiL) == 0:
		return db.nestedLoopJoin(left, right, j.Residual, ec)
	case j.Symmetric:
		return db.symmetricHashJoin(left, right, j, ec)
	default:
		return db.hashJoin(left, right, j, ec)
	}
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
func (db *DB) hashJoin(left, right *Result, j *LJoin, ec *execCtx) (*Result, error) {
	start := time.Now()
	l, err := db.joinSide(left, j.EquiL, ec)
	if err != nil {
		return nil, err
	}
	r, err := db.joinSide(right, j.EquiR, ec)
	if err != nil {
		return nil, err
	}
	buildLeft := left.NumRows() <= right.NumRows()
	b, p := l, r
	if !buildLeft {
		b, p = r, l
	}
	ix := buildJoinIndex(ec.ctx, b, ec.parDegreeFor(b.len()))
	if err := ec.check(); err != nil {
		return nil, err // the build may be partial after cancellation
	}
	pIdx, bIdx, err := db.probeJoin(ec, ix, p, ec.parDegreeFor(p.len()), false)
	if err != nil {
		return nil, err
	}
	var lIdx, rIdx []int32
	if buildLeft {
		lIdx, rIdx = bIdx, pIdx
	} else {
		lIdx, rIdx = pIdx, bIdx
	}
	out := gatherJoin(left, right, lIdx, rIdx)
	ec.profAdd(OpJoin, out.NumRows(), start)
	if len(j.Residual) > 0 {
		return db.execFilter(out, j.Residual, ec, OpFilter)
	}
	return out, nil
}

// leftOuterHashJoin builds on the right side and probes from the left;
// unmatched left rows are emitted once with NULL-padded right columns.
func (db *DB) leftOuterHashJoin(left, right *Result, j *LJoin, ec *execCtx) (*Result, error) {
	start := time.Now()
	l, err := db.joinSide(left, j.EquiL, ec)
	if err != nil {
		return nil, err
	}
	r, err := db.joinSide(right, j.EquiR, ec)
	if err != nil {
		return nil, err
	}
	ix := buildJoinIndex(ec.ctx, r, ec.parDegreeFor(r.len()))
	if err := ec.check(); err != nil {
		return nil, err // the build may be partial after cancellation
	}
	lIdx, rIdx, err := db.probeJoin(ec, ix, l, ec.parDegreeFor(l.len()), true)
	if err != nil {
		return nil, err
	}
	out := gatherJoin(left, right, lIdx, rIdx)
	ec.profAdd(OpJoin, out.NumRows(), start)
	if len(j.Residual) > 0 {
		return db.execFilter(out, j.Residual, ec, OpFilter)
	}
	return out, nil
}

// symmetricHashJoin implements the paper's hint rule 3: both inputs are
// consumed incrementally (block-at-a-time here), each row is inserted into
// its side's hash table and immediately probed against the other side's
// table. With one side being nUDF outputs arriving in batches, this starts
// producing joined tuples before either side is complete. The LRU bucket
// behaviour of the paper is modelled by processing in bucket-grouped order.
// The alternating insert/probe schedule is inherently sequential, so this
// join always runs serially (its key evaluation still parallelizes).
func (db *DB) symmetricHashJoin(left, right *Result, j *LJoin, ec *execCtx) (*Result, error) {
	start := time.Now()
	l, err := db.joinSide(left, j.EquiL, ec)
	if err != nil {
		return nil, err
	}
	r, err := db.joinSide(right, j.EquiR, ec)
	if err != nil {
		return nil, err
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
	var lIdx, rIdx []int32
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
				return nil, err
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
	out := gatherJoin(left, right, lIdx, rIdx)
	ec.profAdd(OpJoin, out.NumRows(), start)
	if len(j.Residual) > 0 {
		return db.execFilter(out, j.Residual, ec, OpFilter)
	}
	return out, nil
}

// nestedLoopJoin handles joins without equi conditions (cross joins and
// non-equi predicates such as the paper's Type 4
// `F.patternID != nUDF_recog(V.keyframe)`). The cross product is fanned
// out over left-row morsels; each morsel's pair block is a contiguous,
// position-computable slice of the full product, so workers write disjoint
// regions of the final index slices directly.
func (db *DB) nestedLoopJoin(left, right *Result, residual []Expr, ec *execCtx) (*Result, error) {
	start := time.Now()
	ln, rn := left.NumRows(), right.NumRows()
	lIdx := make([]int32, ln*rn)
	rIdx := make([]int32, ln*rn)
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
		return nil, err // the cross-product fill may be partial
	}
	out := gatherJoin(left, right, lIdx, rIdx)
	ec.profAdd(OpJoin, out.NumRows(), start)
	if len(residual) > 0 {
		return db.execFilter(out, residual, ec, OpFilter)
	}
	return out, nil
}

// gatherJoin materializes the joined result from matched index pairs.
func gatherJoin(left, right *Result, lIdx, rIdx []int32) *Result {
	out := &Result{
		Schema: make([]OutCol, 0, len(left.Schema)+len(right.Schema)),
		Cols:   make([]*Column, 0, len(left.Cols)+len(right.Cols)),
	}
	out.Schema = append(out.Schema, left.Schema...)
	out.Schema = append(out.Schema, right.Schema...)
	for _, c := range left.Cols {
		out.Cols = append(out.Cols, gather(c, lIdx))
	}
	for _, c := range right.Cols {
		out.Cols = append(out.Cols, gather(c, rIdx))
	}
	return out
}
