package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/qerr"
	"repro/internal/sqldb"
)

// result builds a two-column (Int64, Float64) relation from rows.
func result(rows ...[2]float64) *sqldb.Result {
	res := &sqldb.Result{
		Schema: []sqldb.OutCol{{Name: "k", Type: sqldb.TInt}, {Name: "v", Type: sqldb.TFloat}},
		Cols:   []*sqldb.Column{sqldb.NewColumn(sqldb.TInt), sqldb.NewColumn(sqldb.TFloat)},
	}
	for _, r := range rows {
		if err := res.Cols[0].Append(sqldb.Int(int64(r[0]))); err != nil {
			panic(err)
		}
		if err := res.Cols[1].Append(sqldb.Float(r[1])); err != nil {
			panic(err)
		}
	}
	return res
}

func TestAnswerComparison(t *testing.T) {
	base := canon(result([2]float64{1, 10.5}, [2]float64{2, 20.25}))
	for _, c := range []struct {
		name string
		res  *sqldb.Result
		same bool
	}{
		{"identical", result([2]float64{1, 10.5}, [2]float64{2, 20.25}), true},
		{"rows in another order", result([2]float64{2, 20.25}, [2]float64{1, 10.5}), true},
		{"float one ULP off", result([2]float64{1, math.Nextafter(10.5, 11)}, [2]float64{2, 20.25}), true},
		{"float off by 1e-9", result([2]float64{1, 10.5 * (1 + 1e-9)}, [2]float64{2, 20.25}), false},
		{"one flipped value", result([2]float64{1, 10.5}, [2]float64{3, 20.25}), false},
		{"a row missing", result([2]float64{1, 10.5}), false},
		{"a row extra", result([2]float64{1, 10.5}, [2]float64{2, 20.25}, [2]float64{2, 20.25}), false},
		{"no relation", nil, false},
	} {
		if got := canon(c.res).same(base); got != c.same {
			t.Errorf("%s: same = %v, want %v", c.name, got, c.same)
		}
	}
	// A value's type is part of the answer: Int 2 is not Float 2.
	ints := &sqldb.Result{Cols: []*sqldb.Column{sqldb.NewColumn(sqldb.TInt)}}
	floats := &sqldb.Result{Cols: []*sqldb.Column{sqldb.NewColumn(sqldb.TFloat)}}
	if err := ints.Cols[0].Append(sqldb.Int(2)); err != nil {
		t.Fatal(err)
	}
	if err := floats.Cols[0].Append(sqldb.Float(2)); err != nil {
		t.Fatal(err)
	}
	if canon(ints).same(canon(floats)) {
		t.Error("Int 2 compared equal to Float 2")
	}
}

// A wrong answer, a typed error and a 429 must each count as a failed
// operation, keep their latency out of the cells, and make the run exit
// non-zero with correct=false.
func TestCorrectnessGate(t *testing.T) {
	o := op{Cell: "udf.t2", Kind: kindColQuery, Strategy: "DB-UDF", SQL: "SELECT 1"}
	good := result([2]float64{1, 10.5}, [2]float64{2, 20.25})
	s := &session{
		check: &checker{refs: map[string]answer{refKey(o): canon(good)}},
		tally: newPhaseResult(),
	}
	s.record(o, good, nil, time.Millisecond)
	if s.tally.failed != 0 || len(s.tally.lat[o.Cell]) != 1 {
		t.Fatalf("a correct answer was counted as failed: %+v", s.tally)
	}
	bad := []struct {
		name string
		res  *sqldb.Result
		err  error
		why  string
	}{
		{"flipped row", result([2]float64{1, 10.5}, [2]float64{2, 99}), nil, "wrong answer"},
		{"typed error", nil, fmt.Errorf("executing: %w", qerr.ErrTimeout), "timeout"},
		{"429", nil, fmt.Errorf("queue full: %w", qerr.ErrAdmissionRejected), "admission_rejected"},
		{"unknown operation", good, nil, "no reference"},
	}
	for i, c := range bad {
		probe := o
		if c.name == "unknown operation" {
			probe.SQL = "SELECT 2"
		}
		if ok, why := s.check.outcome(probe, c.res, c.err); ok || !strings.Contains(why, c.why) {
			t.Errorf("%s: outcome = %v, %q; want a failure mentioning %q", c.name, ok, why, c.why)
		}
		s.record(probe, c.res, c.err, time.Millisecond)
		if s.tally.failed != i+1 {
			t.Errorf("%s: failed = %d, want %d", c.name, s.tally.failed, i+1)
		}
	}
	if n := len(s.tally.lat[o.Cell]); n != 1 {
		t.Errorf("failed operations left %d latencies in the cell, want only the correct one", n)
	}

	res := &runResult{Attempted: s.tally.attempted, Failed: s.tally.failed, FirstFailure: s.firstFailure, Metrics: map[string]float64{}}
	var stdout, stderr bytes.Buffer
	if code := report(&stdout, &stderr, runConfig{sp: specs[0], seed: 1}, res); code == 0 {
		t.Error("a run with failed operations exited 0")
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if line.Correct || line.Failed != len(bad) || line.Attempted != len(bad)+1 {
		t.Errorf("result line = %+v, want correct=false failed=%d attempted=%d", line, len(bad), len(bad)+1)
	}
	if !strings.Contains(stderr.String(), "wrong answer") {
		t.Errorf("the first failure is not reported: %q", stderr.String())
	}
}

func TestScriptDeterminism(t *testing.T) {
	for _, sp := range specs {
		a, err := json.Marshal(genScripts(sp, 7))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(genScripts(sp, 7))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different scripts", sp.Name)
		}
		c, _ := json.Marshal(genScripts(sp, 8))
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same script", sp.Name)
		}
		renamed := sp
		renamed.Name = "something_else"
		d, _ := json.Marshal(genScripts(renamed, 7))
		if !bytes.Equal(a, d) {
			t.Errorf("%s: the script depends on the workload's name", sp.Name)
		}
		scripts := genScripts(sp, 7)
		if len(scripts) != sp.Sessions {
			t.Errorf("%s: %d scripts for %d sessions", sp.Name, len(scripts), sp.Sessions)
		}
		for _, script := range scripts {
			if want := sp.Rounds * roundLen(sp); len(script) != want {
				t.Errorf("%s: script of %d operations, want %d", sp.Name, len(script), want)
			}
		}
	}
}

// Any Period consecutive rounds of a script must visit every cell's windows
// equally often, so that every timed slice does the same work; on a Zipf
// schedule, every block must.
func TestScriptIsPeriodic(t *testing.T) {
	dates := regexp.MustCompile(`V\.date > '[^']+' and V\.date < '[^']+'`)
	for _, sp := range specs {
		if len(sp.Cells) == 0 {
			continue // the plain-SQL mix draws its keys afresh every round
		}
		if sp.Rounds%sp.Period != 0 || sp.Zipf && (sp.Period != zipfBlock || sp.Warm%sp.Period != 0) {
			t.Errorf("%s: %d rounds, warm-up %d, period %d", sp.Name, sp.Rounds, sp.Warm, sp.Period)
		}
		per := roundLen(sp)
		for _, script := range genScripts(sp, 5) {
			stretch := func(from int) map[string]int {
				held := map[string]int{}
				for r := from; r < from+sp.Period; r++ {
					for _, o := range script[r%sp.Rounds*per : (r%sp.Rounds+1)*per] {
						held[o.Cell+" "+dates.FindString(o.SQL)]++
					}
				}
				return held
			}
			step := 1
			if sp.Zipf {
				step = sp.Period
			}
			want := stretch(0)
			for from := step; from < sp.Rounds; from += step {
				if got := stretch(from); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: rounds %d..%d do not visit the windows of rounds 0..%d", sp.Name, from, from+sp.Period-1, sp.Period-1)
					break
				}
			}
		}
	}
}

// Windows whose stride equals their length must partition the quarter:
// that is what makes a script cycle read every row once whatever the seed.
func TestWindowsPartitionQuarter(t *testing.T) {
	for _, days := range []int{5, 10, 15, 30} {
		ws := windowsOf(days)
		if len(ws) != quarterDays/days {
			t.Errorf("%d-day windows: %d of them", days, len(ws))
		}
		covered := map[string]int{}
		for _, w := range ws {
			lo, hi := w.bounds()
			for day := 0; day < quarterDays; day++ {
				date := fmt.Sprintf("2021-%02d-%02d", day/30+1, day%30+1)
				if date > lo && date < hi {
					covered[date]++
				}
			}
		}
		if len(covered) != quarterDays {
			t.Errorf("%d-day windows cover %d of %d days", days, len(covered), quarterDays)
		}
		for date, n := range covered {
			if n != 1 {
				t.Errorf("%d-day windows cover %s %d times", days, date, n)
			}
		}
	}
}
