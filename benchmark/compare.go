package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // B's median is worse than A's by more than the bound
	verdictUnresolved = "unresolved" // a side's own spread is wider than the bound
)

// verdict judges series b against series a. worse is how far b's median
// moved in the bad direction, as a share of a's median.
func verdict(a, b *series) (v string, worse, spreadA, spreadB float64) {
	worse = relDiff(median(a.Values), median(b.Values))
	if a.Better == "higher" {
		worse = -worse
	}
	spreadA, _ = spread(a.Values)
	spreadB, _ = spread(b.Values)
	switch {
	case worse > a.Bound:
		v = verdictRegressed
	case spreadA > a.Bound || spreadB > a.Bound:
		v = verdictUnresolved
	default:
		v = verdictOK
	}
	return v, worse, spreadA, spreadB
}

// minMax renders the least and the greatest of xs.
func minMax(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	s := sorted(xs)
	return fmt.Sprintf("%.2f..%.2f", s[0], s[len(s)-1])
}

// rawSpread renders the spread of a series' values as measured, before the
// division by the machine's slowdown; "-" for a metric that is a count.
func rawSpread(s *series) string {
	sp, ok := spread(s.Raw)
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*sp)
}

func loadRunSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// how much worse B is, both spreads — of the reported values and of the
// times as measured — and the bound, and reports whether any metric
// regressed beyond its bound. Each workload gets its own rows; no
// combined score is formed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := loadRunSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRunSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (%d seeds)   B = %s (%d seeds)\n", pathA, len(a.Seeds), pathB, len(b.Seeds))
	for _, sp := range specs {
		wa, wb := a.Workloads[sp.Name], b.Workloads[sp.Name]
		if wa == nil || wb == nil {
			return false, fmt.Errorf("workload %s is missing from a run-set", sp.Name)
		}
		fmt.Fprintf(w, "%s   machine slowdown A %s  B %s\n  %-20s %12s %12s %8s %8s %8s %9s %9s %7s  %s\n", sp.Name,
			minMax(wa.Slowdown), minMax(wb.Slowdown),
			"metric", "median A", "median B", "worse", "iqr A", "iqr B", "raw iqr A", "raw iqr B", "bound", "verdict")
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if sa == nil || sb == nil {
				return false, fmt.Errorf("%s: metric %s is missing from a run-set", sp.Name, d.Name)
			}
			v, worse, spA, spB := verdict(sa, sb)
			regressed = regressed || v == verdictRegressed
			fmt.Fprintf(w, "  %-20s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %9s %9s %6.1f%%  %s\n", d.Name,
				median(sa.Values), median(sb.Values), 100*worse, 100*spA, 100*spB, rawSpread(sa), rawSpread(sb), 100*sa.Bound, v)
		}
		if wa.Failed > 0 || wb.Failed > 0 {
			regressed = true
			fmt.Fprintf(w, "  failed operations: A %d, B %d\n", wa.Failed, wb.Failed)
		}
	}
	return regressed, nil
}
