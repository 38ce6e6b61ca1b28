package sqldb

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// tracedDB builds a small DB with history + a keep-everything trace store
// armed, so every statement leaves a retained span tree.
func tracedDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	db.History = obs.NewQueryHistory(64)
	db.Traces = obs.NewTraceStore(obs.TraceStoreConfig{Seed: 1, SlowThreshold: -1, SampleEvery: 1})
	db.EnableSysCatalog()
	mustExecSQL(t, db, `CREATE TABLE kv (k INT, v TEXT)`)
	mustExecSQL(t, db, `INSERT INTO kv VALUES (1, 'a'), (2, 'b'), (3, 'c')`)
	return db
}

func mustExecSQL(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

func TestSysTracesAndSpansAnswerSQL(t *testing.T) {
	db := tracedDB(t)
	mustExecSQL(t, db, `SELECT k, v FROM kv WHERE k > 1`)

	tr := mustExecSQL(t, db, `SELECT trace_id, reason, spans FROM sys.traces`)
	if tr.NumRows() < 3 {
		t.Fatalf("sys.traces rows = %d, want >= 3 (DDL + insert + select)", tr.NumRows())
	}
	for i := 0; i < tr.NumRows(); i++ {
		if tr.Cols[1].Get(i).S != "sampled" {
			t.Fatalf("reason = %q, want sampled with SampleEvery=1", tr.Cols[1].Get(i).S)
		}
		if n, _ := tr.Cols[2].Get(i).AsInt(); n < 1 {
			t.Fatal("retained trace with no spans")
		}
	}

	// The SELECT's trace must carry the statement span plus per-operator
	// children (the executor hangs Scan/Filter/Project spans under it).
	sp := mustExecSQL(t, db, `SELECT s.name, s.parent_id
FROM sys.spans s, sys.traces t
WHERE s.trace_id = t.trace_id AND t.trace_id <> ''
ORDER BY s.span_id`)
	names := map[string]bool{}
	for i := 0; i < sp.NumRows(); i++ {
		names[sp.Cols[0].Get(i).S] = true
	}
	for _, want := range []string{"query", "Scan kv", "Project"} {
		if !names[want] {
			t.Fatalf("span %q missing; got %v", want, names)
		}
	}

	// Self time partitions each trace: no span's is negative, and with no
	// overlapping siblings a trace's self times add up to its root's
	// duration.
	self := mustExecSQL(t, db, `SELECT s.trace_id, sum(s.self_ms) AS total, min(s.self_ms) AS least, max(r.dur_ms) AS root
FROM sys.spans s, sys.spans r
WHERE s.trace_id = r.trace_id AND r.parent_id = 0
GROUP BY s.trace_id`)
	if self.NumRows() < 3 {
		t.Fatalf("%d traces with self time, want >= 3", self.NumRows())
	}
	for i := 0; i < self.NumRows(); i++ {
		id, total, least, root := self.Cols[0].Get(i).S, self.Cols[1].Get(i).F, self.Cols[2].Get(i).F, self.Cols[3].Get(i).F
		if least < 0 {
			t.Fatalf("trace %s: a span has self_ms %v", id, least)
		}
		if d := total - root; d > 1e-6 || d < -1e-6 {
			t.Fatalf("trace %s: self_ms sums to %v, root dur_ms is %v", id, total, root)
		}
	}
}

func TestTraceIDJoinsQueriesToSpans(t *testing.T) {
	db := tracedDB(t)
	mustExecSQL(t, db, `SELECT count(*) c FROM kv`)

	// Every history record's trace_id must resolve to a retained trace,
	// and the join must reach that trace's span rows. History stores the
	// text the statement was run from.
	j := mustExecSQL(t, db, `SELECT q.sql, s.name
FROM sys.queries q, sys.spans s
WHERE q.trace_id = s.trace_id AND s.span_id = 1 AND q.sql = 'SELECT count(*) c FROM kv'`)
	if j.NumRows() != 1 {
		t.Fatalf("join rows = %d, want exactly 1 root span for the count query", j.NumRows())
	}
	if root := j.Cols[1].Get(0).S; root != "query" {
		t.Fatalf("root span name = %q, want query", root)
	}

	// sys.queries must expose a non-empty trace_id for every statement
	// (SampleEvery=1 keeps them all).
	q := mustExecSQL(t, db, `SELECT count(*) c FROM sys.queries WHERE trace_id = ''`)
	if n, _ := q.Cols[0].Get(0).AsInt(); n != 0 {
		t.Fatalf("%d history records without a trace_id under keep-all sampling", n)
	}
}

func TestDroppedTraceLeavesNoRecordID(t *testing.T) {
	db := New()
	db.History = obs.NewQueryHistory(64)
	// Sampling off, slow criterion off: every clean statement's trace is
	// dropped, so history records must not carry dangling IDs.
	db.Traces = obs.NewTraceStore(obs.TraceStoreConfig{Seed: 1, SlowThreshold: -1, SampleEvery: -1})
	db.EnableSysCatalog()
	mustExecSQL(t, db, `CREATE TABLE t1 (a INT)`)
	mustExecSQL(t, db, `SELECT a FROM t1`)
	q := mustExecSQL(t, db, `SELECT count(*) c FROM sys.queries WHERE trace_id <> ''`)
	if n, _ := q.Cols[0].Get(0).AsInt(); n != 0 {
		t.Fatalf("%d history records carry IDs of dropped traces", n)
	}
	if db.Traces.Len() != 0 {
		t.Fatalf("store retained %d traces with sampling fully off", db.Traces.Len())
	}
}

func TestSlowLogCarriesTraceID(t *testing.T) {
	db := tracedDB(t)
	var slow bytes.Buffer
	db.History.SetSlowThreshold(time.Nanosecond)
	db.History.SetSlowLog(&slow)
	mustExecSQL(t, db, `SELECT v FROM kv WHERE k = 2`)
	line := strings.TrimSpace(strings.Split(slow.String(), "\n")[0])
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("slow-log line is not JSON: %v (%q)", err, line)
	}
	id, _ := rec["trace_id"].(string)
	if id == "" {
		t.Fatalf("slow-log record has no trace_id: %q", line)
	}
	if _, ok := db.Traces.Get(id); !ok {
		t.Fatalf("slow-log trace_id %q is not retrievable from the store", id)
	}
}

func TestTracedErrorStatementRetainedWithErrorReason(t *testing.T) {
	db := tracedDB(t)
	// Force drops of clean traces so only the error criterion can retain.
	db.Traces = obs.NewTraceStore(obs.TraceStoreConfig{Seed: 1, SlowThreshold: -1, SampleEvery: -1})
	if _, err := db.Exec(`SELECT nope FROM kv`); err == nil {
		t.Fatal("expected an error for an unknown column")
	}
	if db.Traces.Len() != 1 {
		t.Fatalf("store retained %d traces, want 1 (the failed statement)", db.Traces.Len())
	}
	st := db.Traces.Snapshot()[0]
	if st.Reason != "error" {
		t.Fatalf("reason = %q, want error", st.Reason)
	}
	if !strings.Contains(st.Spans[0].Attrs, "err=") {
		t.Fatalf("root span attrs %q lack the error class", st.Spans[0].Attrs)
	}
}

// TestSysSpansScanRacesQueryWriters runs sys.spans scans through SQL while
// other goroutines execute traced statements — the frozen-row contract
// must hold under -race.
func TestSysSpansScanRacesQueryWriters(t *testing.T) {
	db := tracedDB(t)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := db.ExecContext(context.Background(), `SELECT k, v FROM kv WHERE k <= 2`); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for scans := 0; scans < 30; scans++ {
		res, err := db.ExecContext(context.Background(), `SELECT count(*) c FROM sys.spans WHERE name <> ''`)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := res.Cols[0].Get(0).AsInt(); n < 0 {
			t.Fatal("negative span count")
		}
	}
	wg.Wait()
}
