package dl2sql

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/modelrepo"
	"repro/internal/nn"
	"repro/internal/sqldb"
)

// TestInferTensorGoldenBits pins the SQL pipeline's output bit for bit: the
// FNV-1a of the float64 bits of InferTensor for the side-8 student model
// (its two-class softmax) and for its three Conv+BN+ReLU blocks alone (64
// activations), per pre-join strategy, at Parallelism 1 and 4. The constants
// were recorded before the hash operators moved to typed kernels; join
// order, first-seen group order and the chunk-ordered partial-sum merge must
// keep every float identical at any parallelism.
func TestInferTensorGoldenBits(t *testing.T) {
	student := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 7)
	trunk := nn.NewModel("student_trunk", student.InputShape, student.Classes)
	trunk.Add(student.Layers[:9]...)
	// Every strategy reaches the same bits: the pre-joined products sum in
	// the same OrderID order as the join's.
	want := map[string]uint64{
		"student": 0x20867e58eccc0b13,
		"trunk":   0x7da144b97d054b25,
	}
	models := map[string]*nn.Model{"student": student, "trunk": trunk}
	in := randTensor([]int{3, 8, 8}, 77)
	for _, name := range []string{"student", "trunk"} {
		for _, strat := range []PreJoinStrategy{PreJoinNone, PreJoinMapping, PreJoinInput} {
			for _, par := range []int{1, 4} {
				m := models[name]
				t.Run(fmt.Sprintf("%s/%v/par%d", name, strat, par), func(t *testing.T) {
					db := sqldb.New()
					db.Parallelism = par
					tr := NewTranslator(db, "g")
					tr.PreJoin = strat
					sm, err := tr.StoreModel(m)
					if err != nil {
						t.Fatal(err)
					}
					out, err := tr.InferTensor(sm, in)
					if err != nil {
						t.Fatal(err)
					}
					h := fnv.New64a()
					var b [8]byte
					for _, v := range out.Data() {
						bits := math.Float64bits(v)
						for i := range b {
							b[i] = byte(bits >> (8 * i))
						}
						h.Write(b[:])
					}
					if got := h.Sum64(); got != want[name] {
						t.Fatalf("output bits hash = %#x, want %#x", got, want[name])
					}
				})
			}
		}
	}
}
