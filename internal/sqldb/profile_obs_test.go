package sqldb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// keepAllTraces arms a store that retains every statement's trace.
func keepAllTraces(db *DB) {
	db.Traces = obs.NewTraceStore(obs.TraceStoreConfig{Seed: 1, SampleEvery: 1})
}

// lastTrace returns the most recently retained trace.
func lastTrace(t *testing.T, db *DB) *obs.StoredTrace {
	t.Helper()
	snap := db.Traces.Snapshot()
	if len(snap) == 0 {
		t.Fatal("no trace retained")
	}
	return snap[len(snap)-1]
}

// childRows returns the direct children of span id, in creation order.
func childRows(st *obs.StoredTrace, id int) []obs.SpanRow {
	var out []obs.SpanRow
	for _, r := range st.Spans {
		if r.ParentID == id {
			out = append(out, r)
		}
	}
	return out
}

// TestQueryOperatorSpans checks that arming a trace store on the DB
// produces one query root span with nested per-operator children, and that
// the export is Chrome-loadable JSON.
func TestQueryOperatorSpans(t *testing.T) {
	db := New()
	for _, sql := range []string{
		"CREATE TABLE a (id Int64, v Float64)",
		"CREATE TABLE b (id Int64, w Float64)",
		"INSERT INTO a VALUES (1, 1.5), (2, 2.5), (3, 3.5)",
		"INSERT INTO b VALUES (1, 9.0), (2, 8.0)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	keepAllTraces(db)
	if _, err := db.Exec("SELECT a.v, b.w FROM a, b WHERE a.id = b.id AND a.v > 1"); err != nil {
		t.Fatal(err)
	}
	if n := db.Traces.Len(); n != 1 {
		t.Fatalf("retained %d traces, want one per statement", n)
	}
	st := lastTrace(t, db)
	if st.Spans[0].Name != "query" || st.Spans[0].ParentID != 0 {
		t.Fatalf("root = %+v, want one query span", st.Spans[0])
	}
	byName := map[string]obs.SpanRow{}
	for _, r := range st.Spans {
		byName[r.Name] = r
	}
	for _, name := range []string{"Scan a", "Scan b", "HashJoin", "Project"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("missing operator span %q in: %+v", name, st.Spans)
		}
	}
	join := byName["HashJoin"]
	if kids := childRows(st, join.SpanID); len(kids) != 2 {
		t.Fatalf("join span has %d children, want its two scans: %+v", len(kids), st.Spans)
	}
	var buf bytes.Buffer
	if _, err := db.Traces.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace export not valid JSON: %v", err)
	}
	if len(events) < 5 {
		t.Fatalf("trace export has %d events, want >=5", len(events))
	}
	// Row counts ride along as span attributes.
	if !strings.Contains(join.Attrs, "rows=") {
		t.Fatalf("join span missing rows attribute: %q", join.Attrs)
	}
	// DML writes get a span of their own: "Insert <table>" for a CTAS,
	// "Update <table>" for an UPDATE, each with the rows it wrote.
	for _, c := range []struct{ sql, span, rows string }{
		{"CREATE TABLE c AS SELECT id, v FROM a WHERE v > 2", "Insert c", "rows=2"},
		{"UPDATE a SET v = v + 1 WHERE id < 3", "Update a", "rows=2"},
	} {
		if _, err := db.Exec(c.sql); err != nil {
			t.Fatal(err)
		}
		st := lastTrace(t, db)
		var found bool
		for _, r := range childRows(st, 1) {
			if r.Name == c.span {
				found = true
				if r.Attrs != c.rows {
					t.Fatalf("%s: span %q has attrs %q, want %s", c.sql, r.Name, r.Attrs, c.rows)
				}
			}
		}
		if !found {
			t.Fatalf("%s: no %q span under the statement: %+v", c.sql, c.span, st.Spans)
		}
	}
	// Disarming the store restores the silent fast path.
	db.Traces = nil
	if _, err := db.Exec("SELECT * FROM a"); err != nil {
		t.Fatal(err)
	}
}

// TestExplainAnalyzeTimesAreSpanDurations pins the one-clock rule: an
// operator's time is read once (profAdd) and EXPLAIN ANALYZE and the
// retained span show that same reading. Every plan node's time= must equal
// the duration of the span with the node's name, and a parent's time covers
// the sum of its children's, serial and parallel alike.
func TestExplainAnalyzeTimesAreSpanDurations(t *testing.T) {
	db := New()
	mustExecSQL(t, db, "CREATE TABLE video (videoID Int64, fabricID Int64, score Float64)")
	mustExecSQL(t, db, "CREATE TABLE fabric (fabricID Int64, grade Int64)")
	var ins strings.Builder
	ins.WriteString("INSERT INTO video VALUES ")
	for i := 0; i < 6000; i++ {
		if i > 0 {
			ins.WriteByte(',')
		}
		fmt.Fprintf(&ins, "(%d, %d, %d.5)", i, i%50, i%100)
	}
	mustExecSQL(t, db, ins.String())
	for i := 0; i < 50; i++ {
		mustExecSQL(t, db, fmt.Sprintf("INSERT INTO fabric VALUES (%d, %d)", i, i%5))
	}
	keepAllTraces(db)
	nodeLine := regexp.MustCompile(`^( *)(Scan \S+|\S+).*time=([^)]+)\)`)

	for _, par := range []int{1, 4} {
		db.Parallelism = par
		res := mustExecSQL(t, db, "EXPLAIN ANALYZE SELECT F.grade, count(*) AS n, sum(V.score) AS s "+
			"FROM video V, fabric F WHERE V.fabricID = F.fabricID AND V.score > 50 GROUP BY F.grade")
		st := lastTrace(t, db)
		// Operator spans in tree order; the explain text lists plan nodes in
		// the same names, so each line claims the first unclaimed span of
		// its name.
		claimed := make([]bool, len(st.Spans))
		seen := map[string]bool{}
		for i := 0; i < res.NumRows(); i++ {
			line := res.Cols[0].Get(i).S
			m := nodeLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("parallelism %d: plan line without actuals: %q", par, line)
			}
			name, shown := m[2], m[3]
			seen[name] = true
			found := false
			for j, r := range st.Spans {
				if claimed[j] || r.Name != name {
					continue
				}
				claimed[j], found = true, true
				if got := r.Dur.Round(time.Microsecond).String(); got != shown {
					t.Fatalf("parallelism %d: %s reports time=%s but its span lasted %s", par, name, shown, got)
				}
				break
			}
			if !found {
				t.Fatalf("parallelism %d: no span named %q for plan line %q; spans %+v", par, name, line, st.Spans)
			}
		}
		for _, want := range []string{"Aggregate", "HashJoin", "Scan video", "Scan fabric"} {
			if !seen[want] {
				t.Fatalf("parallelism %d: plan has no %s node", par, want)
			}
		}
		for j, r := range st.Spans {
			if j > 0 && !claimed[j] {
				t.Fatalf("parallelism %d: span %q matches no plan line", par, r.Name)
			}
			var kids time.Duration
			for _, c := range childRows(st, r.SpanID) {
				kids += c.Dur
			}
			if r.Dur < kids {
				t.Fatalf("parallelism %d: %s lasted %s, less than its children's %s", par, r.Name, r.Dur, kids)
			}
		}
	}
}

// TestExplainAnalyzeTreeMatchesProfile sanity-checks that per-node actuals
// agree with the result cardinality.
func TestExplainAnalyzeTreeMatchesProfile(t *testing.T) {
	db := New()
	if _, err := db.Exec("CREATE TABLE n (x Int64)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := db.Exec("INSERT INTO n VALUES (1)"); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Exec("EXPLAIN ANALYZE SELECT x FROM n WHERE x = 1")
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for i := 0; i < res.NumRows(); i++ {
		out += res.Cols[0].Get(i).String() + "\n"
	}
	if !strings.Contains(out, "actual rows=20") {
		t.Fatalf("actual row count not reported:\n%s", out)
	}
}
