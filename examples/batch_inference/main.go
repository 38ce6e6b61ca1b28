// Batch inference: the paper executes nUDFs "in a batch manner (a batch of
// feature maps are fed to the model together)". This example contrasts
// per-sample SQL inference with the batched SampleID-keyed pipeline: the
// batch runs each neural operator as ONE SQL statement for all samples,
// amortizing per-statement overhead, and returns identical predictions.
//
//	go run ./examples/batch_inference
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/dl2sql"
	"repro/internal/modelrepo"
	"repro/internal/sqldb"
	"repro/internal/tensor"
)

func main() {
	const batchSize = 8
	model := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 5)

	inputs := make([]*tensor.Tensor, batchSize)
	for i := range inputs {
		in := tensor.New(3, 8, 8)
		for j := range in.Data() {
			in.Data()[j] = float64((i*31+j*7)%17) / 17
		}
		inputs[i] = in
	}

	// Per-sample pipeline.
	db1 := sqldb.New()
	tr1 := dl2sql.NewTranslator(db1, "per")
	sm1, err := tr1.StoreModel(model)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	perResults := make([]int, batchSize)
	perStmts := 0 // Steps holds one run's statements
	for i, in := range inputs {
		idx, _, err := tr1.Infer(sm1, in)
		if err != nil {
			log.Fatal(err)
		}
		perResults[i] = idx
		perStmts += len(tr1.Steps)
	}
	perTime := time.Since(start)

	// Batched pipeline.
	db2 := sqldb.New()
	tr2 := dl2sql.NewTranslator(db2, "bat")
	sm2, err := tr2.StoreModel(model)
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	batResults, err := tr2.InferBatch(sm2, inputs)
	if err != nil {
		log.Fatal(err)
	}
	batTime := time.Since(start)

	fmt.Printf("batch of %d keyframes through %q:\n\n", batchSize, model.ModelName)
	fmt.Printf("%-12s %8s %14s\n", "mode", "SQL stmts", "wall time")
	fmt.Printf("%-12s %8d %14s\n", "per-sample", perStmts, perTime.Round(time.Microsecond))
	fmt.Printf("%-12s %8d %14s\n", "batched", len(tr2.Steps), batTime.Round(time.Microsecond))

	for i := range inputs {
		if perResults[i] != batResults[i] {
			log.Fatalf("sample %d disagrees: %d vs %d", i, perResults[i], batResults[i])
		}
	}
	fmt.Printf("\npredictions identical across modes: %v\n", batResults)
	fmt.Printf("statement amortization: %.1fx fewer statements, %.2fx faster\n",
		float64(perStmts)/float64(len(tr2.Steps)),
		float64(perTime)/float64(batTime))
}
