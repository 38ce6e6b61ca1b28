package dl2sql

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/modelrepo"
)

func TestPipelineCacheResultMemo(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskPatternRecog, 8, 400)
	tr := newTr(t)
	tr.Cache = NewPipelineCache(32)
	tr.Trace = true
	sm, err := tr.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	in := randTensor([]int{3, 8, 8}, 500)
	idx1, score1, err := tr.Infer(sm, in)
	if err != nil {
		t.Fatal(err)
	}
	if results := tr.Cache.Stats(); results.Len != 1 {
		t.Fatalf("result memo not populated: %+v", results)
	}
	tr.ResetSteps()
	idx2, score2, err := tr.Infer(sm, in)
	if err != nil {
		t.Fatal(err)
	}
	if idx1 != idx2 || score1 != score2 {
		t.Fatalf("memoized inference diverged: (%d,%v) vs (%d,%v)", idx1, score1, idx2, score2)
	}
	if results := tr.Cache.Stats(); results.Hits != 1 {
		t.Fatalf("second Infer should hit the result memo: %+v", results)
	}
	if len(tr.TraceSQL) != 0 || len(tr.Steps) != 1 || tr.Steps[0].Label != "Inference [cached]" {
		t.Fatalf("a memo hit must run no SQL: steps %+v, SQL %q", tr.Steps, tr.TraceSQL)
	}
	// Against the native engine: still the correct class.
	want, _, err := m.Predict(in)
	if err != nil {
		t.Fatal(err)
	}
	if idx2 != want {
		t.Fatalf("cached class %d, native %d", idx2, want)
	}
}

// TestPipelineCacheSharedAcrossTranslators pins the semantic-key design:
// the same model stored under a different prefix (a fresh translator, as
// every strategies.Execute creates) must reuse the cache.
func TestPipelineCacheSharedAcrossTranslators(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskPatternRecog, 8, 401)
	pc := NewPipelineCache(32)
	in := randTensor([]int{3, 8, 8}, 501)

	tr1 := newTr(t)
	tr1.Cache = pc
	sm1, err := tr1.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	idx1, _, err := tr1.Infer(sm1, in)
	if err != nil {
		t.Fatal(err)
	}

	tr2 := NewTranslator(tr1.DB, "other_prefix")
	tr2.Cache = pc
	sm2, err := tr2.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	idx2, _, err := tr2.Infer(sm2, in)
	if err != nil {
		t.Fatal(err)
	}
	if idx1 != idx2 {
		t.Fatalf("cross-translator memo diverged: %d vs %d", idx1, idx2)
	}
	if results := pc.Stats(); results.Hits == 0 {
		t.Fatalf("second translator should hit the shared memo: %+v", results)
	}
	for _, sm := range []*StoredModel{sm1, sm2} {
		for _, name := range sm.TableNames() {
			tr1.DB.DropTable(name)
		}
	}
}

// TestPipelineCacheInvalidatedByKernelMutation: the model stamp mixes the
// backing tables' live versions, so mutating a kernel table directly must
// invalidate every derived key and force a recompute.
func TestPipelineCacheInvalidatedByKernelMutation(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 402)
	tr := newTr(t)
	tr.Cache = NewPipelineCache(32)
	sm, err := tr.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	in := randTensor([]int{3, 8, 8}, 502)
	if _, _, err := tr.Infer(sm, in); err != nil {
		t.Fatal(err)
	}
	stampBefore := tr.modelStamp(sm)

	// Zero out a kernel table: the stored model now computes something else.
	var kernel string
	for _, name := range sm.TableNames() {
		if strings.Contains(name, "kernel") {
			kernel = name
			break
		}
	}
	if kernel == "" {
		t.Fatalf("no kernel table among %v", sm.TableNames())
	}
	if _, err := tr.DB.Exec(fmt.Sprintf("UPDATE %s SET Value = 0", kernel)); err != nil {
		t.Fatal(err)
	}
	if tr.modelStamp(sm) == stampBefore {
		t.Fatal("model stamp unchanged after kernel mutation")
	}
	hitsBefore := tr.Cache.Stats().Hits
	if _, _, err := tr.Infer(sm, in); err != nil {
		t.Fatal(err)
	}
	if tr.Cache.Stats().Hits != hitsBefore {
		t.Fatal("mutated model served a stale memoized result")
	}
}

// TestPipelineCacheTempTablesCleanedUp: a cached translator's runs, the
// miss after a purge included, leave the catalog exactly as it was after
// the model was stored — no step relation reaches it.
func TestPipelineCacheTempTablesCleanedUp(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 404)
	tr := newTr(t)
	tr.Cache = NewPipelineCache(32)
	sm, err := tr.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	before := catalog(tr.DB)
	in := randTensor([]int{3, 8, 8}, 504)
	if _, _, err := tr.Infer(sm, in); err != nil {
		t.Fatal(err)
	}
	tr.Cache.results.Purge()
	if _, _, err := tr.Infer(sm, in); err != nil {
		t.Fatal(err)
	}
	if got := catalog(tr.DB); !slices.Equal(got, before) {
		t.Fatalf("catalog after the cached runs %v, want %v", got, before)
	}
}
