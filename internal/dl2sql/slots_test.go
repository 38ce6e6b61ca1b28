package dl2sql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

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

// tempTables lists the run-slot tables left in db.
func tempTables(db *sqldb.DB) []string {
	var out []string
	for _, name := range db.TableNames() {
		if strings.Contains(name, "_tmp_") {
			out = append(out, name)
		}
	}
	return out
}

// TestRunsReuseCompiledSlot: repeated runs of one variant check out the
// same run slot and execute the program compiled on the first run — same
// prepared statements, same temp tables, same answer bits — and leave no
// temp table behind.
func TestRunsReuseCompiledSlot(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 7)
	tr := newTr(t)
	tr.Trace = true
	sm, err := tr.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	in := randTensor(m.InputShape, 21)
	var want *tensor.Tensor
	var wantSQL []string
	var prog *program
	for i := 0; i < 3; i++ {
		tr.ResetSteps()
		got, err := tr.InferTensor(sm, in)
		if err != nil {
			t.Fatal(err)
		}
		if len(sm.free) != 1 || len(sm.free[0].progs) != 1 {
			t.Fatalf("run %d: %d idle slots, want 1 holding 1 program", i, len(sm.free))
		}
		if i == 0 {
			want, wantSQL, prog = got, tr.TraceSQL, sm.free[0].progs[variant{}]
			continue
		}
		if sm.free[0].progs[variant{}] != prog {
			t.Fatalf("run %d recompiled the model", i)
		}
		if !slices.Equal(tr.TraceSQL, wantSQL) {
			t.Fatalf("run %d executed different statements", i)
		}
		if !sameBits(got, want) {
			t.Fatalf("run %d: output differs from the first run", i)
		}
	}
	if left := tempTables(tr.DB); len(left) != 0 {
		t.Fatalf("temp tables left behind: %v", left)
	}
}

// TestConcurrentRunsUseSeparateSlots: concurrent runs of one stored model,
// each through its own translator, never share a temp table. Every answer
// is bit-identical to the sequential one, the slots grow only to the peak
// concurrency, and no temp table remains afterwards — not even after a
// cancelled run.
func TestConcurrentRunsUseSeparateSlots(t *testing.T) {
	m := modelrepo.NewStudentModel(modelrepo.TaskPatternRecog, 8, 9)
	db := sqldb.New()
	sm, err := NewTranslator(db, "c").StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	ins := batchInputs(m.InputShape, 4, 31)
	want := make([]*tensor.Tensor, len(ins))
	for i, in := range ins {
		if want[i], err = NewTranslator(db, "c").InferTensor(sm, in); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*len(ins))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := NewTranslator(db, "c")
			tr.PreJoin = PreJoinStrategy(w % 2)
			for k := range ins {
				i := (k + w) % len(ins)
				got, err := tr.InferTensor(sm, ins[i])
				switch {
				case err != nil:
					errs <- err
				case !sameBits(got, want[i]):
					errs <- fmt.Errorf("worker %d input %d: output differs from the sequential run", w, i)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := len(sm.free); n < 1 || n > workers {
		t.Fatalf("%d run slots after %d concurrent workers", n, workers)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := NewTranslator(db, "c")
	tr.Ctx = ctx
	if _, err := tr.InferTensor(sm, ins[0]); err == nil {
		t.Fatal("a run on a cancelled context succeeded")
	}
	if left := tempTables(db); len(left) != 0 {
		t.Fatalf("temp tables left behind: %v", left)
	}
}
