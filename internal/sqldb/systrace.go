package sqldb

// sys.traces and sys.spans: the trace store rendered relationally.
//
// Both tables read immutable snapshots out of DB.Traces (span trees are
// flattened into frozen rows when the tail sampler retains a trace), so
// scans never race concurrent queries writing new spans. Like the other
// sys tables they are volatile — every scan re-reads the store — and the
// plan cache refuses to cache plans over them.
//
//	SELECT t.trace_id, t.reason, s.name, s.dur_ms
//	FROM sys.traces t JOIN sys.spans s ON t.trace_id = s.trace_id
//	WHERE t.wall_ms > 100 ORDER BY s.span_id
//
// trace_id joins against sys.queries / sys.slow_queries, linking a
// history record to its full span tree. Per-operator cost is a GROUP BY
// over span self time:
//
//	SELECT name, count(*) AS calls, sum(self_ms) AS self_ms
//	FROM sys.spans GROUP BY name ORDER BY self_ms DESC

import "time"

func sysTracesTable() *SysTable {
	schema := []OutCol{
		{Name: "trace_id", Type: TString}, {Name: "start", Type: TString},
		{Name: "wall_ms", Type: TFloat}, {Name: "reason", Type: TString},
		{Name: "spans", Type: TInt}, {Name: "span_total", Type: TInt},
		{Name: "truncated", Type: TInt},
	}
	return &SysTable{
		Name:        "sys.traces",
		Description: "traces the tail sampler retained: identity, wall time, retention reason, span counts (joinable with sys.queries/sys.spans on trace_id)",
		Schema:      schema,
		Scan: func(db *DB) (*Result, error) {
			res, cols := sysResult(schema)
			for _, st := range db.Traces.Snapshot() {
				trunc := int64(0)
				if st.Truncated() {
					trunc = 1
				}
				err := sysRow(cols,
					Str(st.ID), Str(st.Start.Format(time.RFC3339Nano)),
					Float(float64(st.Wall)/1e6), Str(st.Reason),
					Int(int64(len(st.Spans))), Int(int64(st.SpanTotal)), Int(trunc))
				if err != nil {
					return nil, err
				}
			}
			return res, nil
		},
	}
}

func sysSpansTable() *SysTable {
	schema := []OutCol{
		{Name: "trace_id", Type: TString}, {Name: "span_id", Type: TInt},
		{Name: "parent_id", Type: TInt}, {Name: "name", Type: TString},
		{Name: "start", Type: TString}, {Name: "dur_ms", Type: TFloat},
		{Name: "self_ms", Type: TFloat}, {Name: "attrs", Type: TString},
	}
	return &SysTable{
		Name:        "sys.spans",
		Description: "every span of every retained trace, depth-first (span_id 1 is the root, parent_id 0 means none; self_ms is dur_ms less the time its children cover)",
		Schema:      schema,
		Scan: func(db *DB) (*Result, error) {
			res, cols := sysResult(schema)
			for _, st := range db.Traces.Snapshot() {
				for _, sp := range st.Spans {
					err := sysRow(cols,
						Str(st.ID), Int(int64(sp.SpanID)), Int(int64(sp.ParentID)),
						Str(sp.Name), Str(sp.Start.Format(time.RFC3339Nano)),
						Float(float64(sp.Dur)/1e6), Float(float64(sp.Self)/1e6), Str(sp.Attrs))
					if err != nil {
						return nil, err
					}
				}
			}
			return res, nil
		},
	}
}
