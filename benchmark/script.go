package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/colquery"
	"repro/internal/iotdata"
	"repro/internal/modelrepo"
)

// op is one operation of a script. The program under test receives only
// SQL (plus Arg, the value bound to the prepared point lookup).
type op struct {
	Cell     string `json:"cell"`
	Kind     string `json:"kind"`               // colquery, query, point, write
	Strategy string `json:"strategy,omitempty"` // colquery: the paper's strategy name
	SQL      string `json:"sql"`
	Arg      int64  `json:"arg,omitempty"`
	// Skeleton is a colquery's relational part — the same joins and date
	// predicates with the nUDF term removed — which the sqldb probes run,
	// because the statement itself only plans while a strategy has its
	// UDFs registered.
	Skeleton string `json:"skeleton,omitempty"`
}

const (
	kindColQuery = "colquery"
	kindQuery    = "query"
	kindPoint    = "point"
	kindWrite    = "write"
)

// cellSpec is one (strategy, query type) cell of a collaborative workload.
type cellSpec struct {
	Name     string
	Strategy string
	Type     colquery.QueryType
	// Days is the length of the date windows the cell draws from. On the
	// DL2SQL workload the cells that infer every keyframe of the window
	// take shorter windows than the cells whose predicates prune first, so
	// that no operation is much over 50 ms and a run holds hundreds.
	Days int
}

// spec is everything that distinguishes one workload from another. The
// generator and the runner read these fields and never the name.
type spec struct {
	Name     string
	Why      string // one line for BENCHMARK.json
	Scale    int    // iotdata scale unit
	Side     int    // keyframe side
	Sessions int    // closed-loop callers
	Served   bool
	Cells    []cellSpec // collaborative cells; empty = the plain-SQL mix
	Rounds   int        // rounds in one script; the timed phase cycles it
	// Period is the number of rounds after which the script's operations
	// repeat: any Period consecutive rounds visit every cell's windows
	// equally often, whatever the seed, in the seed's order (on a Zipf
	// schedule: in the same proportions, and only block by block). A timed
	// slice is a whole number of periods, so every slice does the same
	// work. A cell's windows partition the quarter, so a pass over them
	// reads every row exactly once.
	Period     int
	Warm       int  // rounds of untimed warm-up
	Zipf       bool // visit windows in Zipf proportions instead of equally often
	PlanCache  int  // sqldb statement/plan cache entries, 0 = off
	InferCache bool // prediction cache at half the keyframes the windows touch
	Scheduler  bool
}

var specs = []spec{
	{
		Why:  "DB-UDF and DB-PyTorch x Types 1-4 embedded, caches and scheduler off: nn/tensor kernels and the serving-pipe serialisation do the work, sqldb little; every inference is a miss",
		Name: wNative, Scale: 4, Side: 16, Sessions: 1, Rounds: 9, Period: 9, Warm: 1,
		Cells: colCells([]string{"DB-UDF", "DB-PyTorch"}, 30, 30),
	},
	{
		Why:  "DL2SQL-OP x Types 1-4 plus un-optimised DL2SQL Type 3 embedded: sqldb join/group-by/materialisation and the dl2sql translator do the work, nn none",
		Name: wDL2SQL, Scale: 1, Side: 8, Sessions: 1, Rounds: 54, Period: 18, Warm: 1,
		Cells: append(colCells([]string{"DL2SQL-OP"}, 5, 15),
			cellSpec{Name: "dl2sql.t3", Strategy: "DL2SQL", Type: colquery.Type3, Days: 5}),
	},
	{
		Why:  "plain SQL over HTTP, 2 closed-loop sessions, plan cache on: wire codec, admission, sessions and parse/plan-cache dominate; writes invalidate the cached join plan",
		Name: wSQLRW, Scale: 20, Side: 8, Sessions: 2, Served: true, Rounds: 20, Period: 1, Warm: 20, PlanCache: 128,
	},
	{
		// The script is longer than a run gets through: cycling a short
		// one repeats the same few hundred cache transitions, and the hit
		// rate is then the seed's order rather than the distribution's.
		Why:  "collaborative queries over HTTP with InferCache and scheduler on, Zipf over 18 windows, working set twice the cache: prediction cache and scheduler batching do the work, kernels little",
		Name: wColHot, Scale: 4, Side: 16, Sessions: 2, Served: true, Rounds: 320, Period: zipfBlock, Warm: zipfBlock,
		Cells: colCells([]string{"DB-UDF", "DB-PyTorch"}, 5, 5),
		Zipf:  true, PlanCache: 128, InferCache: true, Scheduler: true,
	},
}

// colCells builds strategy x Types 1-4 cells. Type 1 infers every keyframe
// of its window and takes scanDays; the others take joinDays.
func colCells(strategyNames []string, scanDays, joinDays int) []cellSpec {
	var out []cellSpec
	for _, name := range strategyNames {
		for t := colquery.Type1; t <= colquery.Type4; t++ {
			days := joinDays
			if t == colquery.Type1 {
				days = scanDays
			}
			out = append(out, cellSpec{
				Name: fmt.Sprintf("%s.t%d", slugOf(name), int(t)), Strategy: name, Type: t, Days: days,
			})
		}
	}
	return out
}

// runs reports whether the workload has a cell of any of the named
// strategies.
func (sp spec) runs(strategyNames ...string) bool {
	for _, c := range sp.Cells {
		for _, name := range strategyNames {
			if c.Strategy == name {
				return true
			}
		}
	}
	return false
}

func slugOf(strategy string) string {
	for _, s := range strategySlugs {
		if s.Name == strategy {
			return s.Slug
		}
	}
	return strategy
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

const quarterDays = 90 // iotdata dates are uniform over 90 days of Q1 2021

// window is the half-open day range [From, To) of the quarter.
type window struct{ From, To int }

// windowsOf lists the windows of the given length that partition the
// quarter.
func windowsOf(days int) []window {
	var out []window
	for from := 0; from+days <= quarterDays; from += days {
		out = append(out, window{from, from + days})
	}
	return out
}

// bounds renders the window as the templates' exclusive string bounds:
// `date > lo and date < hi`. iotdata's months have days 01-30, so day 00
// and day 31 are bounds no row equals.
func (w window) bounds() (lo, hi string) {
	date := func(day, shift int) string {
		return fmt.Sprintf("2021-%02d-%02d", day/30+1, day%30+1+shift)
	}
	return date(w.From, -1), date(w.To-1, +1)
}

var selectivities = []float64{0.02, 0.05, 0.1}

// zipfBlock is the number of rounds over which a Zipf schedule is exact, and
// zipfExponent how steeply a window's share of them falls with its rank.
const (
	zipfBlock    = 40
	zipfExponent = 1.15
)

// genScripts builds one script per session from the seed alone.
func genScripts(sp spec, seed int64) [][]op {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]op, sp.Sessions)
	for s := range out {
		if len(sp.Cells) == 0 {
			out[s] = sqlScript(rng, sp, s)
		} else {
			out[s] = colScript(rng, sp)
		}
	}
	return out
}

// colScript emits Rounds rounds of one operation per cell.
func colScript(rng *rand.Rand, sp spec) []op {
	labels := modelrepo.ClassesFor(modelrepo.TaskPatternRecog)
	type cellState struct {
		windows []window
		order   []int // the window each round visits, cycled
	}
	states := make([]cellState, len(sp.Cells))
	for i, c := range sp.Cells {
		ws := windowsOf(c.Days)
		st := cellState{windows: ws, order: rng.Perm(len(ws))}
		if sp.Zipf {
			// Shuffled block by block, so that every stretch of the
			// script holds the windows in the same proportions.
			st.order = nil
			for len(st.order) < sp.Rounds {
				block := zipfSchedule(len(ws), zipfBlock)
				rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
				st.order = append(st.order, block...)
			}
		}
		states[i] = st
	}
	selOrder := rng.Perm(len(selectivities))
	labelShift := rng.Intn(len(labels))
	var script []op
	for r := 0; r < sp.Rounds; r++ {
		for i, c := range sp.Cells {
			st := states[i]
			wi := st.order[r%len(st.order)]
			w := st.windows[wi]
			// The selectivity turns with every pass over the cell's windows,
			// so three passes give every window every selectivity whatever
			// the seed. Only Type 3 statements use it.
			sel := selectivities[selOrder[(r/len(st.windows)+i)%len(selectivities)]]
			lo, hi := w.bounds()
			params := colquery.TemplateParams{
				Selectivity: sel, DateLo: lo, DateHi: hi,
				// The label follows the window, so the distinct statements
				// — each needs a reference answer — stay few.
				PatternLabel: labels[(wi+labelShift)%len(labels)],
			}
			sql, err := colquery.Generate(c.Type, params)
			if err != nil {
				panic(err) // the cell table only holds the four known types
			}
			script = append(script, op{
				Cell: c.Name, Kind: kindColQuery, Strategy: c.Strategy, SQL: sql,
				Skeleton: skeleton(c.Type, lo, hi, sel),
			})
		}
	}
	return script
}

// zipfSchedule spreads rounds visits over n windows so that the window of
// rank k (0 = the most recent: dashboards look at recent data) gets the
// share 1/(k+1)^zipfExponent of them, apportioned by largest remainder. Every seed
// thus visits each window equally often and only the order differs;
// independent draws made the hit rate, and with it every per-query metric,
// differ by several percent from seed to seed.
func zipfSchedule(n, rounds int) []int {
	weights := make([]float64, n)
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -zipfExponent)
		total += weights[k]
	}
	counts := make([]int, n)
	type rem struct {
		k    int
		frac float64
	}
	rems := make([]rem, n)
	left := rounds
	for k, w := range weights {
		exact := w / total * float64(rounds)
		counts[k] = int(exact)
		left -= counts[k]
		rems[k] = rem{k, exact - float64(counts[k])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for _, r := range rems[:left] {
		counts[r.k]++
	}
	var visits []int
	for k, c := range counts {
		for ; c > 0; c-- {
			visits = append(visits, n-1-k)
		}
	}
	return visits
}

// skeleton is the relational part of a template: Type 1 is a cross product
// filtered by dates, the others join on transID, Type 3 adds the sensor
// predicates.
func skeleton(t colquery.QueryType, lo, hi string, sel float64) string {
	where := fmt.Sprintf("F.printdate > '%s' and F.printdate < '%s' and V.date > '%s' and V.date < '%s'", lo, hi, lo, hi)
	switch t {
	case colquery.Type1:
	case colquery.Type3:
		sensor := sel * 3
		if sensor > 1 {
			sensor = 1
		}
		where += " and F.transID = V.transID and " + iotdata.FabricPredicateFor(sensor)
	default:
		where += " and F.transID = V.transID"
	}
	return "SELECT count(*) AS c, sum(F.meter) AS m FROM fabric F, video V WHERE " + where
}

// The plain-SQL mix: 20 statements a round in seed-shuffled order.
const (
	pointSQL = "SELECT transID, patternID, meter FROM fabric WHERE transID = ?"
	aggSQL   = "SELECT date, count(*) AS c, min(videoID) AS first FROM video WHERE date > '%s' and date < '%s' GROUP BY date"
	joinSQL  = "SELECT F.patternID AS p, count(*) AS c, avg(D.temperature) AS t FROM fabric F, device D, video V WHERE F.transID = D.transID and F.transID = V.transID and F.humidity > %.4f GROUP BY F.patternID"
	// Written device rows carry transID -1, which no fabric row has: every
	// insert and delete bumps device's write version and so invalidates
	// the cached join plan, but no read's answer depends on when a write
	// lands.
	insertDevice = "INSERT INTO device VALUES (%d, -1, %.2f, %.2f, '2021-01-01')"
	deleteDevice = "DELETE FROM device WHERE deviceID = %d"
	insertClient = "INSERT INTO client VALUES (%d, 'bench_%.2f_%.2f', 'hangzhou')"
	deleteClient = "DELETE FROM client WHERE clientID = %d"
)

// writeSQL gives each session a table of its own to write: session 0
// device, session 1 client. The engine's DELETE finds its rows and removes
// them in two steps, and when two sessions delete from one table at once a
// row is now and then left behind (seen once in ten runs of this workload);
// a workload must be one on which no operation fails.
var writeSQL = []struct{ insert, delete, table string }{
	{insertDevice, deleteDevice, "device"},
	{insertClient, deleteClient, "client"},
}

var sqlMix = []struct {
	cell string
	n    int
}{{"point", 8}, {"agg", 5}, {"join", 5}, {"write", 2}}

func sqlScript(rng *rand.Rand, sp spec, session int) []op {
	fabricRows := iotdata.Config{Scale: sp.Scale}.Sizes()["fabric"]
	windows := windowsOf(10)
	var script []op
	for r := 0; r < sp.Rounds; r++ {
		var cells []string
		for _, m := range sqlMix {
			for i := 0; i < m.n; i++ {
				cells = append(cells, m.cell)
			}
		}
		rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
		// One row per session and round: inserted by the round's first
		// write, deleted by its second, so the table ends every round at
		// its original size.
		rowID := int64(1_000_000*(session+1) + r)
		inserted := false
		for _, cell := range cells {
			o := op{Cell: cell, Kind: kindQuery}
			switch cell {
			case "point":
				o.Kind, o.SQL, o.Arg = kindPoint, pointSQL, int64(rng.Intn(fabricRows))
			case "agg":
				lo, hi := windows[rng.Intn(len(windows))].bounds()
				o.SQL = fmt.Sprintf(aggSQL, lo, hi)
			case "join":
				sel := selectivities[rng.Intn(len(selectivities))]
				o.SQL = fmt.Sprintf(joinSQL, iotdata.HumidityThresholdFor(sel*3))
			case "write":
				o.Kind = kindWrite
				w := writeSQL[session%len(writeSQL)]
				if !inserted {
					o.SQL = fmt.Sprintf(w.insert, rowID, rng.Float64()*60, rng.Float64()*100)
				} else {
					o.SQL = fmt.Sprintf(w.delete, rowID)
				}
				inserted = true
			}
			script = append(script, o)
		}
	}
	return script
}
