package obs

// QueryHistory is the engine's fixed-size query-history ring buffer: every
// executed statement leaves one QueryRecord behind — its text,
// strategy and fallback path, cache state, per-query resource accounting
// (rows, bytes, morsels, UDF/inference calls), wall and busy time, and the
// qerr error class — and the newest records overwrite the oldest once the
// ring is full, bounding memory for always-on use. The sqldb `sys.queries`
// system table renders a snapshot of this ring relationally, so the engine
// can answer questions about its own recent workload with SQL.
//
// A secondary slow-query ring keeps records whose wall time crossed a
// threshold (they would otherwise age out of the main ring fastest during
// a flood of cheap queries), and an optional structured log writer
// receives one JSON line per slow query as it is recorded.

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// QueryRecord is one executed statement's history entry.
type QueryRecord struct {
	// ID is the monotonically increasing sequence number assigned by Add.
	ID int64 `json:"id"`
	// SQL is the statement text.
	SQL string `json:"sql"`
	// Strategy labels strategy-level roll-up records (DB-PyTorch, DB-UDF,
	// DL2SQL, DL2SQL-OP); plain engine statements leave it "sql".
	Strategy string `json:"strategy,omitempty"`
	// Fallback is the fallback ladder walked to produce the result, e.g.
	// "DB-PyTorch->DB-UDF"; empty when the primary strategy answered.
	Fallback string `json:"fallback,omitempty"`
	// CacheState is where the statement's plan came from: "kept" (a
	// prepared statement's own plan-store entry), "hit" (the plan cache),
	// "miss" (planned and stored), "bypass" (planned, never stored), or
	// "disabled" (planned with the plan cache off).
	CacheState string `json:"cache,omitempty"`
	// Start is the statement's start time.
	Start time.Time `json:"start"`
	// Wall is end-to-end latency; Busy is the summed self-time of the
	// executed plan operators (a CPU-time proxy: under parallel execution
	// it reports operator wall time, not per-worker CPU).
	Wall time.Duration `json:"wall_ns"`
	Busy time.Duration `json:"busy_ns"`
	// RowsOut / RowsScanned / BytesOut are result cardinality, rows read
	// by scans, and the approximate materialized size of the result.
	RowsOut     int64 `json:"rows_out"`
	RowsScanned int64 `json:"rows_scanned"`
	BytesOut    int64 `json:"bytes_out"`
	// Morsels / ParallelOps count morsel dispatches and operators that
	// genuinely fanned out over >1 workers.
	Morsels     int64 `json:"morsels"`
	ParallelOps int64 `json:"parallel_ops"`
	// UDFCalls counts scalar-UDF evaluations (inference calls for the
	// UDF-shaped strategies); InferCalls counts the keyframes a
	// collaborative query inferred — forward passes, or DL2SQL's SQL
	// pipeline runs per keyframe — memoised hits excluded.
	UDFCalls   int64 `json:"udf_calls"`
	InferCalls int64 `json:"infer_calls"`
	// Retries counts serving-pipe retry attempts during the statement.
	Retries int64 `json:"retries"`
	// ErrClass is the qerr classification ("cancelled", "timeout", ...);
	// empty for successful statements. Err is the error text.
	ErrClass string `json:"err_class,omitempty"`
	Err      string `json:"err,omitempty"`
	// TraceID links the record to a retained trace in the trace store
	// (sys.traces / sys.spans / /v1/traces/{id}); empty when the query ran
	// untraced or the tail sampler dropped its trace before this record
	// was added.
	TraceID string `json:"trace_id,omitempty"`
}

// defaultSlowCap bounds the secondary slow-query ring.
const defaultSlowCap = 128

// QueryHistory is a race-safe fixed-capacity ring of QueryRecords. A nil
// *QueryHistory is a valid disabled history: Add no-ops and snapshots are
// empty, so callers need no nil checks.
type QueryHistory struct {
	mu      sync.Mutex
	cap     int
	nextID  int64
	ring    []QueryRecord
	pos     int
	slowThr time.Duration
	slow    []QueryRecord
	slowPos int
	slowW   io.Writer
}

// NewQueryHistory creates a history retaining the last capacity records
// (minimum 1).
func NewQueryHistory(capacity int) *QueryHistory {
	if capacity < 1 {
		capacity = 1
	}
	return &QueryHistory{cap: capacity}
}

// SetSlowThreshold arms the slow-query path: records with Wall >= thr are
// additionally kept in the slow ring and, when a writer was attached with
// SetSlowLog, emitted as one JSON line each. thr <= 0 disables it.
func (h *QueryHistory) SetSlowThreshold(thr time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.slowThr = thr
	h.mu.Unlock()
}

// SetSlowLog attaches a structured slow-query log writer (one JSON object
// per line). Writes happen under the history lock, so lines from
// concurrent queries never interleave. nil detaches.
func (h *QueryHistory) SetSlowLog(w io.Writer) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.slowW = w
	h.mu.Unlock()
}

// SlowThreshold reads the current slow-query threshold.
func (h *QueryHistory) SlowThreshold() time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.slowThr
}

// Add assigns the record an ID and appends it to the ring (overwriting the
// oldest entry when full), returning the ID. Safe on a nil receiver
// (returns 0).
func (h *QueryHistory) Add(rec QueryRecord) int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	h.nextID++
	rec.ID = h.nextID
	if len(h.ring) < h.cap {
		h.ring = append(h.ring, rec)
	} else {
		h.ring[h.pos] = rec
		h.pos = (h.pos + 1) % h.cap
	}
	if h.slowThr > 0 && rec.Wall >= h.slowThr {
		slowCap := h.cap
		if slowCap > defaultSlowCap {
			slowCap = defaultSlowCap
		}
		if len(h.slow) < slowCap {
			h.slow = append(h.slow, rec)
		} else {
			h.slow[h.slowPos] = rec
			h.slowPos = (h.slowPos + 1) % slowCap
		}
		if h.slowW != nil {
			line, err := json.Marshal(rec)
			if err == nil {
				line = append(line, '\n')
				h.slowW.Write(line)
			}
		}
	}
	h.mu.Unlock()
	return rec.ID
}

// Snapshot copies the retained records, oldest first.
func (h *QueryHistory) Snapshot() []QueryRecord {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return ringCopy(h.ring, h.pos)
}

// SlowSnapshot copies the retained slow-query records, oldest first.
func (h *QueryHistory) SlowSnapshot() []QueryRecord {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return ringCopy(h.slow, h.slowPos)
}

// Len reports how many records are currently retained in the main ring.
func (h *QueryHistory) Len() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.ring)
}

// Cap reports the ring capacity (0 for a nil history).
func (h *QueryHistory) Cap() int {
	if h == nil {
		return 0
	}
	return h.cap
}

// ringCopy linearizes a ring whose oldest element sits at pos.
func ringCopy(ring []QueryRecord, pos int) []QueryRecord {
	out := make([]QueryRecord, 0, len(ring))
	out = append(out, ring[pos:]...)
	out = append(out, ring[:pos]...)
	return out
}
