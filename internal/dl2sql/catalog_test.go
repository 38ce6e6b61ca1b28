package dl2sql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/modelrepo"
	"repro/internal/nn"
	"repro/internal/sqldb"
	"repro/internal/tensor"
)

// TestFailedStoreDropsItsTables: a model the translator rejects partway
// through storing leaves none of the tables it had already created.
func TestFailedStoreDropsItsTables(t *testing.T) {
	m := nn.NewModel("bad", []int{3, 8, 8}, nil)
	m.Add(nn.NewConv2D("c1", 3, 4, 3, 1, 1, 1), &fakeLSTM{})
	tr := newTr(t)
	if _, err := tr.StoreModel(m); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("StoreModel = %v, want ErrUnsupported", err)
	}
	if names := tr.DB.TableNames(); len(names) != 0 {
		t.Fatalf("failed store left tables behind: %v", names)
	}
}

// sameBits reports whether two tensors hold bit-identical values.
func sameBits(a, b *tensor.Tensor) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// catalog lists db's tables in order.
func catalog(db *sqldb.DB) []string {
	names := db.TableNames()
	slices.Sort(names)
	return names
}

// programs counts the programs sm has compiled.
func programs(sm *StoredModel) int {
	n := 0
	sm.progs.Range(func(any, any) bool { n++; return true })
	return n
}

// TestRunsShareCompiledProgram: repeated runs of one variant execute the
// program compiled on the first run — same prepared statements, same step
// names, same answer bits.
func TestRunsShareCompiledProgram(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 7)
	tr := newTr(t)
	sm, err := tr.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	in := randTensor(m.InputShape, 21)
	var want *tensor.Tensor
	var wantSQL []string
	var prog *program
	for i := 0; i < 3; i++ {
		var got *tensor.Tensor
		sql := stepSQL(t, tr, func() (err error) {
			got, err = tr.InferTensor(sm, in)
			return err
		})
		if n := programs(sm); n != 1 {
			t.Fatalf("run %d: %d compiled programs, want 1", i, n)
		}
		p, _ := sm.progs.Load(variant{})
		if i == 0 {
			want, wantSQL, prog = got, sql, p.(*program)
			continue
		}
		if p != prog {
			t.Fatalf("run %d recompiled the model", i)
		}
		if !slices.Equal(sql, wantSQL) {
			t.Fatalf("run %d executed different statements", i)
		}
		if !sameBits(got, want) {
			t.Fatalf("run %d: output differs from the first run", i)
		}
	}
}

// TestConcurrentRunsUseSeparateSlots: concurrent Infer, InferBatch and
// InferTensor runs of one stored model, each through its own translator
// (some traced, each pre-join strategy), never see one
// another's step relations: each run binds its own under its context, so
// every answer is exactly the sequential one, the runs share one program
// per variant, and the catalog ends as it began.
func TestConcurrentRunsUseSeparateSlots(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskPatternRecog, 8, 9)
	db := sqldb.New()
	sm, err := NewTranslator(db, "c").StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	before := catalog(db)
	ins := batchInputs(m.InputShape, 4, 31)
	want := make([]*tensor.Tensor, len(ins))
	wantCls := make([]int, len(ins))
	for i, in := range ins {
		if want[i], err = NewTranslator(db, "c").InferTensor(sm, in); err != nil {
			t.Fatal(err)
		}
		if wantCls[i], _, err = NewTranslator(db, "c").Infer(sm, in); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, 3*workers*len(ins))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := NewTranslator(db, "c")
			tr.PreJoin = PreJoinStrategy(w % 3)
			if w%2 == 1 {
				tr.Ctx, _ = tracedCtx()
			}
			for k := range ins {
				i := (k + w) % len(ins)
				got, err := tr.InferTensor(sm, ins[i])
				if err == nil && !sameBits(got, want[i]) {
					err = fmt.Errorf("InferTensor of input %d differs from the sequential run", i)
				}
				if err == nil {
					var cls int
					if cls, _, err = tr.Infer(sm, ins[i]); err == nil && cls != wantCls[i] {
						err = fmt.Errorf("Infer of input %d = class %d, want %d", i, cls, wantCls[i])
					}
				}
				if err == nil {
					var cls []int
					if cls, err = tr.InferBatch(sm, ins); err == nil && !slices.Equal(cls, wantCls) {
						err = fmt.Errorf("InferBatch = %v, want %v", cls, wantCls)
					}
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// One input and a batch, under each of the three strategies.
	if n := programs(sm); n != 6 {
		t.Errorf("%d compiled programs, want 6", n)
	}

	if got := catalog(db); !slices.Equal(got, before) {
		t.Fatalf("catalog after the runs %v, want %v", got, before)
	}
}

// TestRunsLeaveCatalogUnchanged: neither a run on a cancelled context nor
// a run faulted partway through leaves the catalog any different from
// before, and the next run answers as the first did.
func TestRunsLeaveCatalogUnchanged(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskPatternRecog, 8, 9)
	db := sqldb.New()
	sm, err := NewTranslator(db, "c").StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	before := catalog(db)
	ins := batchInputs(m.InputShape, 4, 31)
	want, err := NewTranslator(db, "c").InferTensor(sm, ins[0])
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := NewTranslator(db, "c")
	tr.Ctx = ctx
	if _, err := tr.InferTensor(sm, ins[0]); err == nil {
		t.Fatal("a run on a cancelled context succeeded")
	}
	// A byte budget from the fourth statement on fails the run midway.
	db.Faults = faults.New(1, faults.Rule{Point: faults.PointMemPressure, After: 4, Count: 1, Bytes: 64})
	if _, err := NewTranslator(db, "c").InferBatch(sm, ins); err == nil {
		t.Fatal("a run past its memory budget succeeded")
	}
	db.Faults = nil
	if got := catalog(db); !slices.Equal(got, before) {
		t.Fatalf("catalog after the runs %v, want %v", got, before)
	}
	if got, err := NewTranslator(db, "c").InferTensor(sm, ins[0]); err != nil || !sameBits(got, want) {
		t.Fatalf("a run after the failed ones: %v, same bits %v", err, err == nil && sameBits(got, want))
	}
}
