// Pattern recognition: a Type 4 collaborative query — the hardest class in
// Table I — where the nUDF output participates in a join condition
// (F.patternID != nUDF_recog(V.keyframe)). The example shows the paper's
// hint rule 3 in action: with hints the engine plans a symmetric hash join
// for the nUDF join, and the query plan is printed for both configurations.
//
//	go run ./examples/pattern_recognition
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/colquery"
	"repro/internal/iotdata"
	"repro/internal/modelrepo"
	"repro/internal/sqldb"
	"repro/internal/strategies"
)

func main() {
	ds, err := iotdata.Generate(iotdata.Config{Scale: 2, KeyframeSide: 8, Seed: 21, PatternCount: 6})
	if err != nil {
		log.Fatal(err)
	}
	ctx := strategies.NewContext(ds)
	repo := modelrepo.NewRepository(8, 21)
	if err := ctx.BindDefaults(repo, 30); err != nil {
		log.Fatal(err)
	}

	sql, err := colquery.Generate(colquery.Type4, colquery.TemplateParams{Selectivity: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	q, err := colquery.Analyze(sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query (%s):\n  %s\n\n", q.Type, sql)

	// Hint rule 3: when the nUDF appears in a join condition, the planner is
	// told to use the symmetric hash join. Demonstrate on a reduced join
	// where the nUDF output is an equi-key.
	demo := `SELECT F.patternID FROM fabric F, video V WHERE nUDF_recog(V.keyframe) = F.patternID`
	hintsOn := &sqldb.QueryHints{SymmetricJoin: true}

	// BindDefaults registered nudf_recog in the database, so the demo plans
	// against the bound nUDF.
	planOff, err := ctx.Dataset.DB.PlanSelect(demo, nil)
	if err != nil {
		log.Fatal(err)
	}
	planOn, err := ctx.Dataset.DB.PlanSelect(demo, hintsOn)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plan without hints:")
	fmt.Println(sqldb.Explain(planOff))
	fmt.Println("plan with hint rule 3 (symmetric hash join):")
	fmt.Println(sqldb.Explain(planOn))

	// Execute the Type 4 query under both DL2SQL configurations.
	for _, s := range []strategies.Strategy{
		&strategies.DL2SQL{Optimized: false},
		&strategies.DL2SQL{Optimized: true},
	} {
		res, bd, err := s.Execute(context.Background(), ctx, q)
		if err != nil {
			log.Fatalf("%s: %v", s.Name(), err)
		}
		fmt.Printf("%-10s rows=%-4d total=%.4fs (loading %.4f, inference %.4f, relational %.4f)\n",
			s.Name(), res.NumRows(), bd.Total(), bd.Loading, bd.Inference, bd.Relational)
	}
}
