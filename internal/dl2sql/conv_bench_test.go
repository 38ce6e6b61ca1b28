package dl2sql

import (
	"fmt"
	"testing"

	"repro/internal/modelrepo"
	"repro/internal/nn"
	"repro/internal/sqldb"
)

// BenchmarkConvLayerSQL runs one Conv+BN+ReLU block of the side-16 student
// model through the SQL pipeline: input encoding, Q1, the bias and BN
// statements and the ReLU projection, each a SELECT whose result the next
// reads as a statement-scoped relation, then the output read back.
// batch=1 renders the single-sample statements, batch=4 the SampleID-keyed
// ones of the same templates.
func BenchmarkConvLayerSQL(b *testing.B) {
	student := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 16, 3)
	block := nn.NewModel("conv_block", student.InputShape, student.Classes)
	block.Add(student.Layers[:3]...)
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			tr := NewTranslator(sqldb.New(), "b")
			sm, err := tr.StoreModel(block)
			if err != nil {
				b.Fatal(err)
			}
			ins := batchInputs([]int{3, 16, 16}, n, 5)
			read := func(prog *program) error {
				_, err := tr.tensors(prog, n)
				return err
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tr.run(sm, ins, read); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
