package hints

import (
	"context"
	"strings"
	"testing"

	"repro/internal/colquery"
	"repro/internal/iotdata"
	"repro/internal/modelrepo"
	"repro/internal/sqldb"
)

func calibratedProvider(t *testing.T) (*Provider, *modelrepo.Entry) {
	t.Helper()
	repo := modelrepo.NewRepository(8, 42)
	entry := repo.ForTask(modelrepo.TaskDefectDetection)
	if err := entry.Calibrate(40, 8, 7); err != nil {
		t.Fatal(err)
	}
	p := NewProvider()
	if err := p.RegisterModel("nudf_detect", entry); err != nil {
		t.Fatal(err)
	}
	return p, entry
}

func TestSelectivityFromHistogram(t *testing.T) {
	p, entry := calibratedProvider(t)
	// Selectivity of `nUDF_detect(x) = TRUE` must equal Pr(class 1).
	tr := sqldb.Bool(true)
	got := p.Selectivity("nUDF_detect", &tr)
	want := entry.Histogram.Pr(1)
	if got != want {
		t.Fatalf("selectivity = %v, want histogram Pr(1) = %v", got, want)
	}
	fa := sqldb.Bool(false)
	if p.Selectivity("nUDF_detect", &fa) != entry.Histogram.Pr(0) {
		t.Fatal("FALSE must map to class 0")
	}
}

func TestSelectivityStringClass(t *testing.T) {
	repo := modelrepo.NewRepository(8, 42)
	entry := repo.ForTask(modelrepo.TaskPatternRecog)
	if err := entry.Calibrate(60, 8, 9); err != nil {
		t.Fatal(err)
	}
	p := NewProvider()
	if err := p.RegisterModel("nudf_classify", entry); err != nil {
		t.Fatal(err)
	}
	lit := sqldb.Str("Floral Pattern")
	got := p.Selectivity("nudf_classify", &lit)
	want := entry.Histogram.PrClass("Floral Pattern")
	if want > 0 && got != want {
		t.Fatalf("selectivity = %v, want %v", got, want)
	}
	// Unknown class falls back to uniform prior.
	unk := sqldb.Str("No Such Pattern")
	if p.Selectivity("nudf_classify", &unk) != 1.0/6.0 {
		t.Fatalf("unknown class fallback = %v", p.Selectivity("nudf_classify", &unk))
	}
}

func TestSelectivityUnknownUDF(t *testing.T) {
	p := NewProvider()
	if p.Selectivity("nudf_unknown", nil) != 0.5 {
		t.Fatal("unknown UDF must fall back to 0.5")
	}
}

func TestBuildHintsRules(t *testing.T) {
	p, _ := calibratedProvider(t)
	// Type 3: UDF in WHERE with selective relational predicates.
	q, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	h := p.BuildHints(q, 10000, 0.001)
	if h.DelayUDFs == nil || !*h.DelayUDFs {
		t.Fatal("rule 1: low relational selectivity must favour delaying the nUDF")
	}
	if h.UDFCost["nudf_detect"] <= 0 {
		t.Fatal("UDF cost must be positive")
	}
	if _, ok := h.UDFSelectivity["nudf_detect"]; !ok {
		t.Fatal("UDF selectivity missing")
	}
	if h.SymmetricJoin {
		t.Fatal("rule 3 must not fire for Type 3")
	}
}

func TestBuildHintsScanTimeWhenUDFFiltersEverything(t *testing.T) {
	p, _ := calibratedProvider(t)
	q, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// With relSel ~1 the delayed plan saves nothing; both plans cost about
	// the same and the comparison may go either way — it must at least not
	// panic and produce a decision.
	h := p.BuildHints(q, 1000, 1.0)
	if h.DelayUDFs == nil {
		t.Fatal("rule 1 must always decide")
	}
}

func TestBuildHintsType4SymmetricJoin(t *testing.T) {
	p, _ := calibratedProvider(t)
	q, err := colquery.GenerateAnalyzed(colquery.Type4, colquery.TemplateParams{RecogUDF: "nUDF_detect"})
	if err != nil {
		t.Fatal(err)
	}
	h := p.BuildHints(q, 1000, 0.1)
	if !h.SymmetricJoin {
		t.Fatal("rule 3: Type 4 must request symmetric hash join")
	}
}

func TestBuildHintsType2SelectLast(t *testing.T) {
	p, _ := calibratedProvider(t)
	q, err := colquery.GenerateAnalyzed(colquery.Type2, colquery.TemplateParams{DetectUDF: "nUDF_detect"})
	if err != nil {
		t.Fatal(err)
	}
	h := p.BuildHints(q, 1000, 0.1)
	// Rule 2 holds by construction: under the built hints the SELECT-clause
	// nUDF is evaluated above every filter and join, never inside one.
	ds, err := iotdata.Generate(iotdata.Config{Scale: 1, KeyframeSide: 8, Seed: 7, PatternCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	ds.DB.RegisterUDF(&sqldb.ScalarUDF{Name: "nUDF_detect", Arity: 1,
		Fn: func(_ context.Context, calls [][]sqldb.Datum) ([]sqldb.Datum, error) {
			return make([]sqldb.Datum, len(calls)), nil
		}})
	plan, err := ds.DB.PlanSelect(q.SQL, h)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(sqldb.Plan)
	walk = func(p sqldb.Plan) {
		var exprs []sqldb.Expr
		switch n := p.(type) {
		case *sqldb.LScan:
			exprs = n.Filters
		case *sqldb.LFilter:
			exprs = n.Conds
			walk(n.Child)
		case *sqldb.LJoin:
			exprs = append(append(exprs, n.EquiL...), n.EquiR...)
			walk(n.L)
			walk(n.R)
		case *sqldb.LAgg:
			walk(n.Child)
		default:
			t.Fatalf("unexpected plan node %T:\n%s", p, sqldb.Explain(plan))
		}
		for _, e := range exprs {
			if strings.Contains(strings.ToLower(e.String()), "nudf_detect") {
				t.Fatalf("rule 2: Type 2's nUDF is evaluated below the SELECT list, in %s:\n%s", e, sqldb.Explain(plan))
			}
		}
	}
	walk(plan)
}

func TestShouldDelay(t *testing.T) {
	// 10000 rows, relational predicates keep 0.1%: delaying saves 99.9% of
	// a 1e6-cost UDF.
	if !ShouldDelay(10000, 0.001, 1e6) {
		t.Fatal("must delay for selective relational predicates")
	}
	// Free UDF, unselective predicates: scan-time is fine.
	if ShouldDelay(10000, 1.0, 0.00001) {
		t.Fatal("must not delay when the UDF is free and predicates keep everything")
	}
}
