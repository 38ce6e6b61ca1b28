package strategies

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/colquery"
	"repro/internal/dl2sql"
	"repro/internal/faults"
	"repro/internal/iotdata"
	"repro/internal/obs"
	"repro/internal/sqldb"
	"repro/internal/tensor"
)

// DL2SQL is the tight-integration strategy: every nUDF's model is stored as
// relational tables and its inference executes as native SQL in the same
// database that holds the IoT data. The unoptimized configuration evaluates
// the nUDF for every keyframe selected by the video-side predicates
// (scan-time evaluation); the Optimized configuration (DL2SQL-OP) applies
// Section IV: the customized cost model plus hint rules decide whether to
// delay the nUDF behind the relational predicates, attach Eq. 9–10
// selectivities, and switch nUDF joins to the symmetric hash join.
type DL2SQL struct {
	Optimized bool
	// PreJoin selects the Fig. 11 pre-join strategy.
	PreJoin dl2sql.PreJoinStrategy
	// Batched runs all candidate keyframes through one SampleID-keyed SQL
	// pipeline per model instead of one pipeline per keyframe — the batch
	// execution the paper describes for nUDFs.
	Batched bool
}

// Name implements Strategy.
func (s *DL2SQL) Name() string {
	if s.Optimized {
		return "DL2SQL-OP"
	}
	return "DL2SQL"
}

// Execute implements Strategy.
func (s *DL2SQL) Execute(ctx context.Context, env *Context, q *colquery.Query) (*sqldb.Result, CostBreakdown, error) {
	var bd CostBreakdown
	db := env.Dataset.DB
	ctx, root := obs.StartSpan(ctx, "strategy:"+s.Name())
	defer root.Finish()

	// Build hints (DL2SQL-OP only); the selectivity estimate is a
	// relational statement of its own.
	var h *sqldb.QueryHints
	if s.Optimized && env.HintProvider != nil {
		estCtx, estSpan := obs.StartSpan(ctx, "relational:estimate")
		relRows := float64(db.GetTable("video").NumRows())
		relSel := estimateRelationalSelectivity(estCtx, env, q)
		estSpan.Finish()
		h = env.HintProvider.BuildHints(q, relRows, relSel)
	}

	// Loading: every referenced model's relational tables, stored on the
	// artifact's first use (the paper's offline step) and reused after.
	stored := make(map[string]*dl2sql.StoredModel, len(q.UDFNames))
	_, load := startPhase(ctx, "loading:store-models")
	for _, name := range q.UDFNames {
		b := env.Bindings[name]
		if b == nil {
			return nil, bd, failSpans(fmt.Errorf("strategies: no model bound for %s", name), load.span)
		}
		if err := env.Faults.Hit(ctx, faults.PointDL2SQLTranslate); err != nil {
			return nil, bd, failSpans(fmt.Errorf("strategies: storing model for %s: %w", name, err), load.span)
		}
		sm, err := env.storedModel(b)
		if err != nil {
			return nil, bd, failSpans(fmt.Errorf("strategies: storing model for %s: %w", name, err), load.span)
		}
		stored[name] = sm
	}
	bd.Loading += load.end()

	// Candidate selection: rule 1. Scan-time evaluation infers every
	// keyframe the video-side predicates keep; delayed evaluation (OP, when
	// the cost comparison favours it) infers only tuples surviving all
	// relational predicates.
	candCtx, cand := startPhase(ctx, "relational:candidates")
	var cands []candidate
	var err error
	if s.Optimized && h != nil && h.DelayUDFs != nil && *h.DelayUDFs {
		cands, err = prunedCandidates(candCtx, env, q, h)
	} else {
		cands, err = videoSideCandidates(candCtx, env, q)
	}
	cand.span.SetAttr("candidates", len(cands))
	if err != nil {
		return nil, bd, failSpans(err, cand.span)
	}
	bd.Relational += cand.end()

	// SQL inference per model: the prediction memo answers what it can
	// (keyed on the model stamp, computed only when the memo asks for a
	// key) and the misses run in sample groups, every miss in one group
	// when batched, one per group otherwise.
	preds := make(map[int64]map[string]sqldb.Datum, len(cands))
	for _, c := range cands {
		preds[c.videoID] = map[string]sqldb.Datum{}
	}
	infCtx, infSpan := obs.StartSpan(ctx, "inference")
	for _, name := range q.UDFNames {
		sm, b := stored[name], env.Bindings[name]
		modelCtx, modelSpan := obs.StartSpan(infCtx, "model:"+name)
		tr := dl2sql.NewTranslator(db, sm.Prefix)
		tr.PreJoin, tr.Hints, tr.Ctx = s.PreJoin, h, modelCtx
		stamp := sync.OnceValue(sm.Stamp)
		key := func(i int) InferKey { return InferKey{Model: stamp(), Input: tensor.HashBytes(cands[i].blob)} }
		infer := func(miss []int, _ []InferKey) ([]int, error) {
			size := 1
			if s.Batched {
				size = max(len(miss), 1)
			}
			classes := make([]int, 0, len(miss))
			for lo := 0; lo < len(miss); lo += size {
				group := miss[lo:min(lo+size, len(miss))]
				ins := make([]*tensor.Tensor, len(group))
				for j, i := range group {
					in, err := iotdata.KeyframeTensor(cands[i].blob)
					if err != nil {
						return nil, fmt.Errorf("strategies: keyframe %d: %w", cands[i].videoID, err)
					}
					ins[j] = in
				}
				wallStart := time.Now()
				var idxs []int
				var err error
				if s.Batched {
					idxs, err = tr.InferBatch(sm, ins)
				} else {
					var idx int
					idx, _, err = tr.Infer(sm, ins[0])
					idxs = []int{idx}
				}
				wall := time.Since(wallStart).Seconds()
				if err != nil {
					return nil, fmt.Errorf("strategies: SQL inference for %s: %w", name, err)
				}
				sqlSecs := tr.StepTotal().Seconds()
				// The SQL pipeline is the inference; encoding the input
				// into the feature-map table is data loading.
				bd.Inference += env.Profile.ScaleRelational(sqlSecs)
				bd.Loading += wall - sqlSecs
				stratAcctFrom(ctx).noteInfer(int64(len(group)))
				classes = append(classes, idxs...)
			}
			return classes, nil
		}
		classes, err := env.memoInfer(ctx, len(cands), key, false, infer)
		if err != nil {
			return nil, bd, failSpans(err, modelSpan, infSpan)
		}
		for i, c := range cands {
			preds[c.videoID][name] = b.predictionDatum(classes[i])
		}
		modelSpan.Finish()
	}
	infSpan.Finish()

	// Final relational merge.
	mergeCtx, merge := startPhase(ctx, "relational:final-merge")
	res, err := runMerge(mergeCtx, env, q, preds, h)
	if err != nil {
		return nil, bd, failSpans(fmt.Errorf("strategies: DL2SQL final query: %w", err), merge.span)
	}
	merge.span.SetAttr("rows", res.NumRows())
	bd.Relational += merge.end()
	bd.Relational = env.Profile.ScaleRelational(bd.Relational)
	env.recordBreakdown(s.Name(), bd)
	return res, bd, nil
}

// estimateRelationalSelectivity estimates the accumulated selectivity of
// the non-UDF predicates by cheap sampling: it counts the fabric rows the
// single-relation fabric predicates keep (the dominant pruning factor in
// every template).
func estimateRelationalSelectivity(ctx context.Context, env *Context, q *colquery.Query) float64 {
	db := env.Dataset.DB
	var fabricConds []string
	for _, c := range colquery.WhereConjuncts(q.Stmt) {
		if len(colquery.NUDFCalls(c)) > 0 {
			continue
		}
		rels := colquery.Qualifiers(c)
		if len(rels) == 1 && rels[0] == "f" {
			fabricConds = append(fabricConds, c.String())
		}
	}
	if len(fabricConds) == 0 {
		return 1
	}
	total := db.GetTable("fabric").NumRows()
	if total == 0 {
		return 1
	}
	res, err := db.QueryContext(ctx, "SELECT count(*) c FROM fabric F WHERE "+strings.Join(fabricConds, " AND "))
	if err != nil {
		return 1
	}
	kept, _ := res.Cols[0].Get(0).AsInt()
	return float64(kept) / float64(total)
}
