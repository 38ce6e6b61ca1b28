package dl2sql

// Whole-inference memoization for SQL inference.
//
// One model may be stored under several table prefixes (every translator
// names its own tables), so table names are useless as cache keys. The
// cache therefore keys on *semantic* content:
//
//	modelStamp = hash(encoded weights) ⊕ current version of every stored
//	             table (catches direct mutation of kernel/bias tables)
//	key        = modelStamp ⊕ input tensor hash ⊕ pre-join strategy
//
// A hit returns the memoized (class index, score) and skips the entire SQL
// pipeline.
import (
	"repro/internal/obs"
	"repro/internal/tensor"

	icache "repro/internal/cache"
)

// cachedResult is a memoized whole-inference outcome.
type cachedResult struct {
	idx   int
	score float64
}

// PipelineCache memoizes SQL inference across Infer calls and across
// translators (cache keys are semantic, so a model re-stored under a new
// prefix still hits). Attach one to Translator.Cache to enable; a nil
// PipelineCache disables caching at zero cost.
type PipelineCache struct {
	results *icache.LRU[uint64, cachedResult]
}

// NewPipelineCache builds a cache holding up to capacity memoized
// inferences.
func NewPipelineCache(capacity int) *PipelineCache {
	return &PipelineCache{results: icache.New[uint64, cachedResult](capacity)}
}

// Instrument mirrors hit/miss/eviction counts into the registry under
// "dl2sql.cache.results.*".
func (pc *PipelineCache) Instrument(reg *obs.Registry) {
	if pc == nil {
		return
	}
	pc.results.Instrument(reg, "dl2sql.cache.results")
}

// Stats reports the LRU's counters.
func (pc *PipelineCache) Stats() icache.Stats {
	if pc == nil {
		return icache.Stats{}
	}
	return pc.results.Stats()
}

// modelStamp fingerprints the stored model's current state: the encoded
// weights plus the live version counter of every backing table, so a
// direct UPDATE/INSERT against a kernel table invalidates all keys
// derived from the stamp.
func (t *Translator) modelStamp(sm *StoredModel) uint64 {
	h := sm.weights()
	for _, name := range sm.tableNames {
		if tb := t.DB.GetTable(name); tb != nil {
			h = tensor.HashMix(h, uint64(tb.Version()))
		} else {
			h = tensor.HashMix(h, ^uint64(0))
		}
	}
	return h
}
