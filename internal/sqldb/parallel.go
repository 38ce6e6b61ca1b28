package sqldb

import (
	"strings"

	"repro/internal/par"
)

// Morsel-driven parallelism knobs. Operators split their input into
// fixed-size row-range morsels and fan them across a worker pool (see
// internal/par); below parallelRowThreshold rows the fan-out overhead
// exceeds the work and operators stay on the serial path.
const (
	parallelRowThreshold = 4096
	morselRows           = 2048
)

// parDegree resolves the DB's Parallelism knob to an effective worker
// count: 0 means the process default (par.DefaultDegree(), i.e.
// runtime.NumCPU()), 1 forces serial execution, N > 1 caps workers at N.
func (db *DB) parDegree() int {
	if db.Parallelism > 0 {
		return db.Parallelism
	}
	return par.DefaultDegree()
}

// parDegreeFor returns the worker count an operator should use over n
// input rows: 1 (serial) when the query runs serially or the input is
// below the fan-out threshold, the query degree otherwise.
func (ec *execCtx) parDegreeFor(n int) int {
	if ec.par <= 1 || n < parallelRowThreshold {
		return 1
	}
	return ec.par
}

// exprsParallelSafe reports whether every expression in every list can be
// evaluated concurrently from multiple workers. Built-in functions and the
// expression interpreter itself are stateless; the only hazard is a
// registered UDF whose closure mutates shared state, so an expression
// tree is unsafe iff it calls a UDF not marked ParallelSafe.
func (db *DB) exprsParallelSafe(lists ...[]Expr) bool {
	for _, list := range lists {
		for _, e := range list {
			if !db.exprParallelSafe(e) {
				return false
			}
		}
	}
	return true
}

func (db *DB) exprParallelSafe(e Expr) bool {
	safe := true
	Walk(e, func(x Expr) bool {
		if fc, ok := x.(*FuncCall); ok {
			if udf := db.lookupUDF(strings.ToLower(fc.Name)); udf != nil && !udf.ParallelSafe {
				safe = false
			}
		}
		return safe
	})
	return safe
}

// notePar records a parallel operator run: per-plan-node worker/morsel
// actuals when EXPLAIN ANALYZE is collecting, and executor-wide counters
// when a metrics registry is attached. Serial runs (one worker) are not
// recorded — the annotation marks genuine fan-out.
func (db *DB) notePar(ec *execCtx, s par.Stats) {
	if a := ec.acct; a != nil {
		a.morsels.Add(int64(s.Morsels))
		if s.Workers > 1 {
			a.parallelOps.Add(1)
		}
	}
	if s.Workers <= 1 {
		return
	}
	if m := db.metrics(); m != nil {
		m.parallelOps.Add(1)
		m.parallelMorsels.Add(int64(s.Morsels))
	}
	if ec.nodes == nil || ec.node == nil {
		return
	}
	ns := ec.nodes[ec.node]
	if ns == nil {
		ns = &NodeStats{}
		ec.nodes[ec.node] = ns
	}
	if s.Workers > ns.Workers {
		ns.Workers = s.Workers
	}
	ns.Morsels += s.Morsels
	for w, items := range s.WorkerItems {
		if w >= len(ns.WorkerRows) {
			ns.WorkerRows = append(ns.WorkerRows, make([]int, w+1-len(ns.WorkerRows))...)
		}
		ns.WorkerRows[w] += items
	}
}
