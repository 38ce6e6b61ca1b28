// Cost model: Section IV-A in action. For a stack of convolutions the
// example prints the customized cost model's per-layer cardinalities and
// costs (Eqs. 3–8), the default DBMS estimate for the same pipeline, the
// measured actual SQL execution time, and the normalization ratios (one per
// scanned row, one per join pair) that convert row operations to seconds.
//
//	go run ./examples/cost_model
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/costmodel"
	"repro/internal/dl2sql"
	"repro/internal/nn"
	"repro/internal/sqldb"
	"repro/internal/tensor"
)

func main() {
	model := nn.NewModel("costdemo", []int{3, 16, 16}, nil)
	model.Add(
		nn.NewConv2D("conv1", 3, 8, 3, 1, 1, 1),
		nn.NewConv2D("conv2", 8, 8, 3, 1, 1, 2),
		nn.NewConv2D("conv3", 8, 8, 3, 1, 1, 3),
	)

	// Per-layer geometry via the paper's formulas.
	fmt.Println("customized cost model (Eqs. 3-8):")
	d := costmodel.ConvDims{HIn: 16, WIn: 16, NIn: 3, NOut: 8, K: 3, Stride: 1, Pad: 1}
	h, w := d.OutDims()
	fmt.Printf("  conv1: out %dx%d  k_in=%.0f  T_in=%.0f  S_J=%.4f  T_out=%.0f  C_join=%.0f  C_out=%.0f\n",
		h, w, d.KIn(), d.TIn(), d.JoinSelectivity(), d.TOut(), d.JoinCost(), d.TotalCost())

	custom, err := costmodel.EstimateModel(model)
	if err != nil {
		log.Fatal(err)
	}
	def, err := costmodel.DefaultEstimateModel(model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-layer estimates (cost units):")
	fmt.Printf("  %-8s %14s %14s\n", "layer", "customized", "default")
	for i := range custom.PerLayer {
		fmt.Printf("  %-8s %14.0f %14.0f\n",
			custom.PerLayer[i].Name, custom.PerLayer[i].Cost, def.PerLayer[i].Cost)
	}
	fmt.Printf("  %-8s %14.0f %14.0f   (default/customized = %.1fx)\n",
		"total", custom.Total, def.Total, def.Total/custom.Total)

	// Normalize to seconds and compare against the real SQL execution.
	db := sqldb.New()
	u, err := costmodel.Calibrate(db)
	if err != nil {
		log.Fatal(err)
	}
	tr := dl2sql.NewTranslator(db, "cm")
	sm, err := tr.StoreModel(model)
	if err != nil {
		log.Fatal(err)
	}
	in := tensor.New(3, 16, 16)
	for i := range in.Data() {
		in.Data()[i] = float64(i%7) / 7
	}
	start := time.Now()
	if _, _, err := tr.Infer(sm, in); err != nil {
		log.Fatal(err)
	}
	actual := time.Since(start).Seconds()

	fmt.Printf("\nnormalization ratios: %.3e s per scanned row, %.3e s per join pair\n", u.Scan, u.Pair)
	fmt.Printf("customized estimate: %.4fs\n", custom.Seconds(u))
	fmt.Printf("default estimate:    %.4fs\n", def.Seconds(u))
	fmt.Printf("actual SQL time:     %.4fs\n", actual)
	fmt.Println("\nthe customized model tracks the actual within a small factor;")
	fmt.Println("the default estimate compounds its error across layers (Fig. 12).")
}
