package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps the harness's own spans in memory: one around every call
// the harness makes into a layer's public API. A nil tracer records
// nothing, which is how the end-to-end run keeps spans off.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []*span
}

// span is one timed call: name, start, end, the span that caused it and the
// operation it belongs to (spans of one operation share Op; probes use -1).
type span struct {
	t      *tracer
	ID     int
	Parent int // 0 = none
	Op     int
	Lane   int // session number, or probeLane
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

const probeLane = 99

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent (nil for a root).
func (t *tracer) start(name string, parent *span, op, lane int) *span {
	if t == nil {
		return nil
	}
	s := &span{t: t, Op: op, Lane: lane, Name: name, Start: time.Since(t.epoch)}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// end closes the span and returns how long it was open.
func (s *span) end() time.Duration {
	if s == nil {
		return 0
	}
	s.End = time.Since(s.t.epoch)
	return s.End - s.Start
}

// spanTotals is what one span name adds up to.
type spanTotals struct {
	Name  string
	Count int
	Total time.Duration
	// Self is Total minus the time the spans' children cover.
	Self time.Duration
}

// totals groups the finished spans by name, in descending self time.
func (t *tracer) totals() []spanTotals {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int]time.Duration{}
	for _, s := range t.spans {
		children[s.Parent] += s.End - s.Start
	}
	byName := map[string]*spanTotals{}
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanTotals{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		st.Self += d - children[s.ID]
	}
	out := make([]spanTotals, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// meanOf is the mean duration of the spans with the given name.
func (t *tracer) meanOf(name string) time.Duration {
	for _, st := range t.totals() {
		if st.Name == name && st.Count > 0 {
			return st.Total / time.Duration(st.Count)
		}
	}
	return 0
}

// writeChrome writes the spans as Chrome trace_event JSON (complete "X"
// events, microseconds), which chrome://tracing and Perfetto open.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
