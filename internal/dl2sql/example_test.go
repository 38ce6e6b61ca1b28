package dl2sql_test

import (
	"fmt"

	"repro/internal/dl2sql"
	"repro/internal/nn"
	"repro/internal/sqldb"
	"repro/internal/tensor"
)

// A model is compiled to relational tables once and then inferred as SQL.
func ExampleTranslator_Infer() {
	db := sqldb.New()

	model := nn.NewModel("demo", []int{1, 4, 4}, []string{"no", "yes"})
	model.Add(
		nn.NewConv2D("c1", 1, 2, 3, 1, 0, 7),
		&nn.ReLU{LayerName: "r1"},
		&nn.GlobalAvgPool{LayerName: "gap"},
		nn.NewLinear("fc", 2, 2, 8),
		&nn.Softmax{LayerName: "sm"},
	)

	tr := dl2sql.NewTranslator(db, "demo")
	sm, err := tr.StoreModel(model)
	if err != nil {
		panic(err)
	}

	input := tensor.New(1, 4, 4).Fill(0.5)
	sqlClass, _, err := tr.Infer(sm, input)
	if err != nil {
		panic(err)
	}
	nativeClass, _, err := model.Predict(input)
	if err != nil {
		panic(err)
	}
	fmt.Println(sqlClass == nativeClass)
	// Output: true
}

// A whole batch runs through one SQL statement per neural operator.
func ExampleTranslator_InferBatch() {
	db := sqldb.New()
	model := nn.NewModel("demo", []int{1, 4, 4}, []string{"a", "b"})
	model.Add(
		nn.NewConv2D("c1", 1, 2, 3, 1, 0, 9),
		&nn.GlobalAvgPool{LayerName: "gap"},
		nn.NewLinear("fc", 2, 2, 10),
	)
	tr := dl2sql.NewTranslator(db, "demo")
	sm, err := tr.StoreModel(model)
	if err != nil {
		panic(err)
	}
	batch := []*tensor.Tensor{
		tensor.New(1, 4, 4).Fill(0.1),
		tensor.New(1, 4, 4).Fill(0.9),
	}
	classes, err := tr.InferBatch(sm, batch)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(classes))
	// Output: 2
}
