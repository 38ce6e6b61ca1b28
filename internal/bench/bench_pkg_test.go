package bench

import (
	"strconv"
	"strings"
	"testing"
)

// smallSuite builds the cheapest viable suite for unit tests.
func smallSuite(t *testing.T) *Suite {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scale = 1
	cfg.QueriesPerType = 1
	cfg.CalibrationSamples = 10
	cfg.Depths = []int{5, 10}
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("table %s has no cell (%d,%d):\n%s", tab.ID, row, col, tab.Render())
	}
	return tab.Rows[row][col]
}

func cellF(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSuffix(cell(t, tab, row, col), "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, s)
	}
	return v
}

func TestTable4Shape(t *testing.T) {
	s := smallSuite(t)
	tab, err := s.Table4StorageOverheads()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		dl2sql := cellF(t, tab, i, 2)
		pytorch := cellF(t, tab, i, 3)
		udf := cellF(t, tab, i, 4)
		if !(dl2sql > pytorch && pytorch > udf) {
			t.Fatalf("row %d: storage order violated: DL2SQL=%v PyTorch=%v UDF=%v", i, dl2sql, pytorch, udf)
		}
	}
	// Growth with depth.
	if cellF(t, tab, 1, 2) <= cellF(t, tab, 0, 2) {
		t.Fatal("DL2SQL storage must grow with depth")
	}
}

func TestFig9Shape(t *testing.T) {
	s := smallSuite(t)
	tab, err := s.Fig9CNNBlocks()
	if err != nil {
		t.Fatal(err)
	}
	var convSecs, otherSecs float64
	seen := map[string]bool{}
	for i, row := range tab.Rows {
		seen[row[0]] = true
		v := cellF(t, tab, i, 1)
		if strings.HasPrefix(row[0], "Conv") {
			convSecs += v
		} else {
			otherSecs += v
		}
	}
	for _, want := range []string{"Conv1", "Conv2", "Conv3", "Reshape1", "Classification"} {
		if !seen[want] {
			t.Fatalf("missing step %s:\n%s", want, tab.Render())
		}
	}
	if convSecs <= otherSecs {
		t.Fatalf("convolutions must dominate: conv %v vs other %v", convSecs, otherSecs)
	}
}

func TestFig10Shape(t *testing.T) {
	s := smallSuite(t)
	tab, err := s.Fig10RelOps()
	if err != nil {
		t.Fatal(err)
	}
	// A join or the group-by must be the top operator (the paper's finding).
	top := tab.Rows[0][0]
	if top != "Aggregate" && !strings.HasSuffix(top, "Join") {
		t.Fatalf("top operator is %s:\n%s", top, tab.Render())
	}
	// DL2SQL's steps are SELECTs over statement-scoped relations: ReLU is
	// a projection, so nothing is updated.
	for _, row := range tab.Rows {
		if row[0] == "Update" {
			t.Fatalf("an Update row:\n%s", tab.Render())
		}
	}
	// The note's mark is the claim checked on the rows: the top two are
	// Aggregate and a join.
	a, b := tab.Rows[0][0], tab.Rows[1][0]
	holds := a == "Aggregate" && strings.HasSuffix(b, "Join") || strings.HasSuffix(a, "Join") && b == "Aggregate"
	checkMark(t, tab, fig10Claim, holds)
}

// checkMark asserts that the table's note for claim carries the mark that
// holds says it should.
func checkMark(t *testing.T, tab *Table, claim string, holds bool) {
	t.Helper()
	want := "shape check ✗: " + claim
	if holds {
		want = "shape check ✓: " + claim
	}
	for _, n := range tab.Notes {
		if n == want {
			return
		}
	}
	t.Fatalf("%s: no note %q in %q", tab.ID, want, tab.Notes)
}

func TestFig11Shape(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock shape comparison is skewed by race instrumentation")
	}
	s := smallSuite(t)
	tab, err := s.Fig11PreJoin()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	none := cellF(t, tab, 0, 3)
	input := cellF(t, tab, 2, 3)
	if input >= none {
		t.Fatalf("pre-join must improve totals: none=%v prejoin-input=%v\n%s", none, input, tab.Render())
	}
}

func TestFig12Shape(t *testing.T) {
	s := smallSuite(t)
	tab, err := s.Fig12CostModel()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		def := cellF(t, tab, i, 2)
		custom := cellF(t, tab, i, 3)
		actual := cellF(t, tab, i, 4)
		if def <= custom {
			t.Fatalf("row %d: default %v must overestimate customized %v", i, def, custom)
		}
		// The customized estimate must be within ~two orders of magnitude
		// of actual; the default misses by much more on multi-layer sweeps.
		ratio := custom / actual
		if ratio > 100 || ratio < 0.01 {
			t.Fatalf("row %d: customized estimate %v vs actual %v off by >100x", i, custom, actual)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	s := smallSuite(t)
	tab, err := s.Fig13PerOp()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 5 {
		t.Fatalf("rows = %d:\n%s", len(tab.Rows), tab.Render())
	}
	// Conv must be the most expensive operator in both columns.
	convEst, convAct := cellF(t, tab, 0, 1), cellF(t, tab, 0, 2)
	if tab.Rows[0][0] != "conv" {
		t.Fatalf("first row should be conv:\n%s", tab.Render())
	}
	for i := 1; i < len(tab.Rows); i++ {
		if cellF(t, tab, i, 1) > convEst {
			t.Fatalf("conv must dominate estimates:\n%s", tab.Render())
		}
		if cellF(t, tab, i, 2) > convAct {
			t.Fatalf("conv must dominate actuals:\n%s", tab.Render())
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.Notes = append(tab.Notes, "hello")
	out := tab.Render()
	if !strings.Contains(out, "X: demo") || !strings.Contains(out, "note: hello") {
		t.Fatalf("render:\n%s", out)
	}
}
