// Quickstart: build a small CNN, compile it to relational tables with the
// DL2SQL translator, and run one inference entirely as SQL — then check the
// answer against the native inference engine.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/dl2sql"
	"repro/internal/nn"
	"repro/internal/sqldb"
	"repro/internal/tensor"
)

func main() {
	// 1. An embedded, in-memory columnar database (the ClickHouse stand-in).
	db := sqldb.New()

	// 2. A small CNN: Conv → BN → ReLU → global average pool → FC → softmax.
	model := nn.NewModel("quickstart", []int{1, 8, 8}, []string{"ok", "defect"})
	model.Add(
		nn.NewConv2D("conv1", 1, 4, 3, 1, 1, 7),
		nn.NewBatchNorm("bn1", 4),
		&nn.ReLU{LayerName: "relu1"},
		&nn.GlobalAvgPool{LayerName: "gap"},
		nn.NewLinear("fc", 4, 2, 8),
		&nn.Softmax{LayerName: "softmax"},
	)
	if _, err := model.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model %s: %d parameters, %d FLOPs/inference\n",
		model.ModelName, model.ParamCount(), model.FLOPs())

	// 3. Compile the model into relational tables (kernel, bias, metadata,
	// kernel-mapping tables — the paper's Algorithm 1/2 artifacts).
	tr := dl2sql.NewTranslator(db, "qs")
	sm, err := tr.StoreModel(model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored as %d relational tables, %d KB\n",
		len(sm.TableNames()), sm.StorageBytes(db)/1024)

	// 4. An input image.
	input := tensor.New(1, 8, 8)
	for i := range input.Data() {
		input.Data()[i] = float64(i%9) / 9
	}

	// 5. Inference as SQL.
	classIdx, prob, err := tr.Infer(sm, input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SQL inference:    class=%q p=%.4f\n", model.Classes[classIdx], prob)

	// 6. The same inference on the native engine — bit-identical.
	nIdx, nProb, err := model.Predict(input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("native inference: class=%q p=%.4f\n", model.Classes[nIdx], nProb)
	if nIdx != classIdx {
		log.Fatal("SQL and native disagree!")
	}

	// 7. Peek at the generated pipeline steps.
	fmt.Println("\nSQL pipeline steps:")
	for _, step := range tr.Steps {
		fmt.Printf("  %-16s %6d rows  %s\n", step.Label, step.Rows, step.Time)
	}
}
