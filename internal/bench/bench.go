// Package bench regenerates every table and figure of the paper's
// evaluation section (Section V) on the synthetic substrate: Table IV
// (storage), Fig. 8 (overall breakdown), Fig. 9 (CNN block costs), Fig. 10
// (relational operator costs), Fig. 11 (pre-join strategies), Table V
// (selectivity sweep), Table VI (model depth sweep), Fig. 12 (cost model
// accuracy vs. kernel/feature-map size), Fig. 13 (per-operator estimation),
// and Fig. 14 (hint effectiveness). Each experiment returns a Table that
// renders in the paper's row/series layout.
package bench

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string // "Table IV", "Fig. 8", ...
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render aligns the table for terminal output.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// shapeNote renders one of the paper's claims as a note marked ✓ or ✗ by
// whether this run's rows bear it out. A ✗ is reported, not tuned away.
func shapeNote(holds bool, claim string) string {
	mark := "✗"
	if holds {
		mark = "✓"
	}
	return "shape check " + mark + ": " + claim
}

// num parses cell (row, col) of a table built by this package.
func (t *Table) num(row, col int) float64 {
	v, _ := strconv.ParseFloat(t.Rows[row][col], 64)
	return v
}

// f formats a float at 4 decimals for table cells.
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

// f formats a float at 6 decimals (for sub-millisecond cells).
func f6(v float64) string { return fmt.Sprintf("%.6f", v) }

// fe formats in scientific notation (cost-model magnitudes).
func fe(v float64) string { return fmt.Sprintf("%.3e", v) }
