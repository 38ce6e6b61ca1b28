package dl2sql

import (
	"testing"

	"repro/internal/modelrepo"
	"repro/internal/nn"
	"repro/internal/sqldb"
)

// BenchmarkConvLayerSQL runs one Conv+BN+ReLU block of the side-16 student
// model through the SQL pipeline: input encoding, Q1, the BN statement and
// the UPDATE-based ReLU.
func BenchmarkConvLayerSQL(b *testing.B) {
	student := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 16, 3)
	block := nn.NewModel("conv_block", student.InputShape, student.Classes)
	block.Add(student.Layers[:3]...)
	tr := NewTranslator(sqldb.New(), "b")
	sm, err := tr.StoreModel(block)
	if err != nil {
		b.Fatal(err)
	}
	in := randTensor([]int{3, 16, 16}, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.InferTensor(sm, in); err != nil {
			b.Fatal(err)
		}
	}
}
