package bench

import (
	"testing"
)

func TestTable5Shape(t *testing.T) {
	s := smallSuite(t)
	tab, err := s.Table5Selectivity([]float64{0.02, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// OP inference must grow with selectivity (more predictions triggered).
	lo := cellF(t, tab, 0, 1)
	hi := cellF(t, tab, 1, 1)
	if hi < lo {
		t.Fatalf("OP inference should grow with selectivity: %v -> %v\n%s", lo, hi, tab.Render())
	}
}

func TestFig14Shape(t *testing.T) {
	s := smallSuite(t)
	tab, err := s.Fig14Hints([]float64{0.02})
	if err != nil {
		t.Fatal(err)
	}
	// With very selective relational predicates, hints must win (speedup > 1).
	if sp := cellF(t, tab, 0, 3); sp <= 1 {
		t.Fatalf("hints should speed up selective queries, got %vx\n%s", sp, tab.Render())
	}
}

func TestTableITypes(t *testing.T) {
	s := smallSuite(t)
	tab, err := s.TableITypes()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][1] != "Easy" || tab.Rows[3][1] != "Hard" {
		t.Fatalf("difficulties wrong:\n%s", tab.Render())
	}
}

func TestTable6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("ResNet SQL inference is slow; run without -short")
	}
	s := smallSuite(t)
	tab, err := s.Table6Depth([]int{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Parameters and DL2SQL loading must grow with depth.
	if cellF(t, tab, 1, 1) <= cellF(t, tab, 0, 1) {
		t.Fatalf("params must grow with depth:\n%s", tab.Render())
	}
	if cellF(t, tab, 1, 3) <= cellF(t, tab, 0, 3) {
		t.Fatalf("DL2SQL loading must grow with depth:\n%s", tab.Render())
	}
	// Each claim's mark is its predicate over the rows: with two depths,
	// params grow linearly when they grow; loading grows steeply when it
	// more than doubles as depth doubles; DB-PyTorch overtakes when
	// DL2SQL-OP is cheaper at depth 5 and dearer at depth 10.
	d0, d1 := cellF(t, tab, 0, 0), cellF(t, tab, 1, 0)
	checkMark(t, tab, table6Linear, cellF(t, tab, 1, 1) > cellF(t, tab, 0, 1))
	checkMark(t, tab, table6Steep, cellF(t, tab, 1, 3)/cellF(t, tab, 0, 3) > d1/d0)
	op := func(i int) float64 { return cellF(t, tab, i, 2) + cellF(t, tab, i, 3) }
	checkMark(t, tab, table6Overtakes, op(0) < cellF(t, tab, 0, 5) && op(1) > cellF(t, tab, 1, 5))
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full strategy x profile grid is slow; run without -short")
	}
	if raceEnabled {
		t.Skip("wall-clock shape comparison is skewed by race instrumentation")
	}
	s := smallSuite(t)
	tab, err := s.Fig8Overall()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 { // 3 profiles x 4 strategies
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The paper's headline: on the edge device DL2SQL-OP performs best.
	totals := map[string]float64{}
	for i, row := range tab.Rows {
		if row[0] == "edge-cpu" {
			totals[row[1]] = cellF(t, tab, i, 5)
		}
	}
	for _, other := range []string{"DL2SQL", "DB-UDF", "DB-PyTorch"} {
		if totals["DL2SQL-OP"] > totals[other] {
			t.Fatalf("DL2SQL-OP (%.4f) must beat %s (%.4f) on edge:\n%s",
				totals["DL2SQL-OP"], other, totals[other], tab.Render())
		}
	}
	// server-gpu DB-PyTorch inference < server-cpu DB-PyTorch inference.
	var cpuInf, gpuInf float64
	for i, row := range tab.Rows {
		if row[0] == "server-cpu" && row[1] == "DB-PyTorch" {
			cpuInf = cellF(t, tab, i, 3)
		}
		if row[0] == "server-gpu" && row[1] == "DB-PyTorch" {
			gpuInf = cellF(t, tab, i, 3)
		}
	}
	if gpuInf >= cpuInf {
		t.Fatalf("GPU must cut DB-PyTorch inference: cpu=%v gpu=%v\n%s", cpuInf, gpuInf, tab.Render())
	}
}

func TestAblationBatching(t *testing.T) {
	s := smallSuite(t)
	tab, err := s.AblationBatching()
	if err != nil {
		t.Fatal(err)
	}
	perStmts := cellF(t, tab, 0, 1)
	batStmts := cellF(t, tab, 1, 1)
	if batStmts*2 > perStmts {
		t.Fatalf("batching must amortize statements: %v vs %v\n%s", batStmts, perStmts, tab.Render())
	}
}

func TestAblationSymmetricJoin(t *testing.T) {
	s := smallSuite(t)
	tab, err := s.AblationSymmetricJoin()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][1] != "HashJoin" || tab.Rows[1][1] != "SymmetricHashJoin" {
		t.Fatalf("plan operators wrong:\n%s", tab.Render())
	}
	if tab.Rows[0][3] != tab.Rows[1][3] {
		t.Fatalf("join variants must agree on row count:\n%s", tab.Render())
	}
}

func TestAblationPredicateOrdering(t *testing.T) {
	s := smallSuite(t)
	tab, err := s.AblationPredicateOrdering()
	if err != nil {
		t.Fatal(err)
	}
	rankCalls := cellF(t, tab, 0, 1)
	forcedCalls := cellF(t, tab, 1, 1)
	if rankCalls >= forcedCalls {
		t.Fatalf("rank ordering must reduce UDF calls: %v vs %v\n%s", rankCalls, forcedCalls, tab.Render())
	}
}
