// Package server is the multi-session serving front end: a pure-stdlib
// HTTP/JSON layer that multiplexes many client sessions over one shared
// sqldb.DB (and, optionally, one strategies.Context for collaborative
// inference queries).
//
// The layering turns the embedded engine outward without changing it:
//
//	client ──HTTP/JSON──▶ handlers ──▶ admission control ──▶ session ctx
//	                                        │                    │
//	                                 fair RR across tenants  timeout/budget/
//	                                 bounded queue depth     parallelism overrides
//	                                        ▼                    ▼
//	                                  shared sqldb.DB  /  strategies.Context
//	                                                             │
//	                                               schedule.Scheduler (optional):
//	                                               concurrent sessions' inference
//	                                               coalesces into shared batches
//
// When the strategies context has a scheduler enabled (EnableScheduler),
// concurrent colquery sessions stop paying per-query inference: their
// forward passes coalesce into shared batches and identical requests
// single-flight. Drain waits for the scheduler's in-flight batches after
// the last query exits.
//
// Every query runs under a context assembled from three sources — the HTTP
// request's context (client disconnects cancel mid-query), the server's
// drain context (shutdown cancels in-flight work at morsel boundaries),
// and the session's timeout variable — plus the per-tenant memory budget
// and per-session parallelism carried as sqldb context overrides. Failures
// surface as the qerr taxonomy, serialized as a stable error class the
// client maps back onto the same sentinels, so errors.Is works identically
// embedded and over the wire.
//
// Admission control (see admission.go) bounds concurrency and queue depth
// with round-robin fairness across tenants. Graceful drain stops accepting
// work, rejects the queue, waits a grace period, cancels stragglers via
// the lifecycle contexts, and flushes the slow log. The server registers
// sys.sessions and sys.admission into the engine's sys.* catalog, so its
// own state is queryable with SQL through itself.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colquery"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/qerr"
	"repro/internal/sqldb"
	"repro/internal/strategies"
)

// Config assembles a Server.
type Config struct {
	// Admission sizes the admission controller (zero value = defaults).
	Admission AdmissionConfig
	// DefaultTenant is the tenant label for requests that do not name one
	// ("default" when empty).
	DefaultTenant string
	// TenantMemory is each tenant's per-query materialization budget in
	// bytes; TenantMemoryDefault applies to tenants not in the map. 0
	// means no budget beyond the DB-level knob.
	TenantMemory        map[string]int64
	TenantMemoryDefault int64
	// SessionIdleTimeout evicts sessions idle this long (0 = never).
	SessionIdleTimeout time.Duration
	// DrainGrace is how long Drain waits for in-flight queries to finish
	// naturally before cancelling them (default 5s; negative = cancel
	// immediately).
	DrainGrace time.Duration
}

// Server multiplexes client sessions over one shared DB.
type Server struct {
	db   *sqldb.DB
	env  *strategies.Context // optional collaborative-inference surface
	cfg  Config
	adm  *admission
	sess *sessions
	mux  *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc
	// drainMu orders enter() against Drain: once draining flips under the
	// lock, no new inflight.Add can race Drain's inflight.Wait.
	drainMu   sync.Mutex
	inflight  sync.WaitGroup
	draining  atomic.Bool
	drainOnce sync.Once
	// background tracks server-owned loops (the session reaper) separately
	// from inflight: Drain's grace period is for client queries only — an
	// idle server must drain immediately, not wait out the grace window for
	// its own housekeeping goroutines.
	background sync.WaitGroup

	// onDrain hooks run after in-flight queries are gone (slow-log flush).
	onDrain []func()
}

// New assembles a server over a DB. env may be nil (plain SQL serving
// only); when set, the /v1/colquery surface executes collaborative queries
// under any of the paper's four strategies. New registers sys.sessions and
// sys.admission into the DB's sys.* catalog.
func New(db *sqldb.DB, env *strategies.Context, cfg Config) *Server {
	if cfg.DefaultTenant == "" {
		cfg.DefaultTenant = "default"
	}
	if cfg.DrainGrace == 0 {
		cfg.DrainGrace = 5 * time.Second
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	s := &Server{
		db:         db,
		env:        env,
		cfg:        cfg,
		adm:        newAdmission(cfg.Admission),
		sess:       newSessions(),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
	}
	s.mux = http.NewServeMux()
	s.routes()
	s.registerSysTables()
	if cfg.SessionIdleTimeout > 0 {
		s.background.Add(1)
		go s.reapLoop()
	}
	return s
}

// OnDrain registers a hook to run at the end of Drain, after in-flight
// queries have finished (e.g. flushing a buffered slow-query log).
func (s *Server) OnDrain(fn func()) { s.onDrain = append(s.onDrain, fn) }

// Handler returns the server's HTTP handler (for httptest and embedding
// into a larger mux).
func (s *Server) Handler() http.Handler { return s.mux }

// Connection-level timeouts of the daemon's HTTP front end. They bound what
// a client can hold open without sending a request: slow or never-finished
// headers, a trickled body, an idle keep-alive connection. WriteTimeout is
// deliberately absent — a query may legitimately run long, and its deadline
// is the per-session timeout enforced in runQuery.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// HTTPServer builds the net/http server that fronts this Server on addr,
// with the connection-level timeouts above (readJSON's MaxBytesReader
// bounds body size; these bound time).
func (s *Server) HTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// DB exposes the shared engine (the sys-table scans need it).
func (s *Server) DB() *sqldb.DB { return s.db }

func (s *Server) metrics() *obs.Registry { return s.db.Metrics }

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/session", s.handleSessionNew)
	s.mux.HandleFunc("POST /v1/session/set", s.handleSessionSet)
	s.mux.HandleFunc("POST /v1/session/close", s.handleSessionClose)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/prepare", s.handlePrepare)
	s.mux.HandleFunc("POST /v1/stmt/exec", s.handleStmtExec)
	s.mux.HandleFunc("POST /v1/stmt/close", s.handleStmtClose)
	s.mux.HandleFunc("POST /v1/colquery", s.handleColQuery)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceGet)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	if reg := s.metrics(); reg != nil {
		// The Prometheus text endpoint plus the pprof handlers, mounted on
		// the same listener as the query API.
		diag := export.NewMux(reg)
		s.mux.Handle("/metrics", diag)
		s.mux.Handle("/debug/pprof/", diag)
	}
}

// reapLoop evicts idle sessions until the server drains.
func (s *Server) reapLoop() {
	defer s.background.Done()
	t := time.NewTicker(s.cfg.SessionIdleTimeout / 2)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.sess.reapIdle(s.cfg.SessionIdleTimeout)
			s.noteSessionGauge()
		}
	}
}

// Drain gracefully shuts the serving layer down: stop admitting, reject
// the queue, give in-flight queries DrainGrace to finish, cancel the
// stragglers through their lifecycle contexts, wait for every handler to
// exit, drain the inference scheduler's in-flight batches, then run the
// drain hooks (slow-log flush). Idempotent; safe to call from a signal
// handler while requests are in flight.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.drainMu.Lock()
		s.draining.Store(true)
		s.drainMu.Unlock()
		s.adm.drain()
		done := make(chan struct{})
		go func() {
			s.inflight.Wait()
			close(done)
		}()
		if s.cfg.DrainGrace > 0 {
			select {
			case <-done:
			case <-time.After(s.cfg.DrainGrace):
			}
		}
		// Cancel whatever is still running (also stops the reap loop).
		s.baseCancel()
		<-done
		s.background.Wait()
		// In-flight queries are gone; drain the inference scheduler so its
		// coalesced batches finish (or are cut off after its own grace)
		// before the drain hooks run. Nil-safe when no inference context
		// or no scheduler is wired.
		if s.env != nil {
			s.env.Scheduler.Drain()
		}
		for _, fn := range s.onDrain {
			fn()
		}
	})
}

// Draining reports whether Drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// enter registers one query-shaped request with the drain tracker, or
// refuses it when the server is draining.
func (s *Server) enter() error {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.Load() {
		return fmt.Errorf("%w: server is draining", qerr.ErrAdmissionRejected)
	}
	s.inflight.Add(1)
	return nil
}

// ---- wire request/response envelopes ----

type sessionNewRequest struct {
	Tenant string `json:"tenant,omitempty"`
	// TimeoutMs, ParallelismN, MemoryBudget seed the session variables.
	TimeoutMs    int64 `json:"timeout_ms,omitempty"`
	Parallelism  int   `json:"parallelism,omitempty"`
	MemoryBudget int64 `json:"memory_budget,omitempty"`
}

type sessionNewResponse struct {
	Session string `json:"session"`
	Tenant  string `json:"tenant"`
}

type sessionSetRequest struct {
	Session string `json:"session"`
	// Pointers distinguish "leave unchanged" from "set to zero/off".
	TimeoutMs    *int64 `json:"timeout_ms,omitempty"`
	Parallelism  *int   `json:"parallelism,omitempty"`
	MemoryBudget *int64 `json:"memory_budget,omitempty"`
}

type sessionRequest struct {
	Session string `json:"session"`
}

type queryRequest struct {
	Session string `json:"session,omitempty"`
	Tenant  string `json:"tenant,omitempty"` // for session-less one-shots
	SQL     string `json:"sql"`
}

type queryResponse struct {
	Result *wireResult `json:"result,omitempty"`
	WallMs float64     `json:"wall_ms"`
	Queued bool        `json:"queued,omitempty"`
	// TraceID identifies the request's retained trace (empty when the
	// tail sampler dropped it or tracing is off); also sent as the
	// X-Trace-Id response header.
	TraceID string `json:"trace_id,omitempty"`
}

type prepareRequest struct {
	Session string `json:"session"`
	SQL     string `json:"sql"`
}

type prepareResponse struct {
	Stmt   string `json:"stmt"`
	Params int    `json:"params"`
}

type stmtExecRequest struct {
	Session string      `json:"session"`
	Stmt    string      `json:"stmt"`
	Params  []wireValue `json:"params,omitempty"`
}

type stmtCloseRequest struct {
	Session string `json:"session"`
	Stmt    string `json:"stmt"`
}

type colQueryRequest struct {
	Session  string `json:"session,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
	SQL      string `json:"sql"`
	Strategy string `json:"strategy"`
	// Fallback engages the graceful-degradation ladder on serving
	// failures (ExecuteWithFallback) instead of reporting them.
	Fallback bool `json:"fallback,omitempty"`
}

type colQueryResponse struct {
	Result       *wireResult `json:"result,omitempty"`
	Strategy     string      `json:"strategy"`
	FallbackPath []string    `json:"fallback_path,omitempty"`
	LoadingS     float64     `json:"loading_s"`
	InferenceS   float64     `json:"inference_s"`
	RelationalS  float64     `json:"relational_s"`
	WallMs       float64     `json:"wall_ms"`
	Queued       bool        `json:"queued,omitempty"`
	TraceID      string      `json:"trace_id,omitempty"`
}

type wireError struct {
	Class   string `json:"class"`
	Message string `json:"message"`
}

type errorResponse struct {
	Error wireError `json:"error"`
}

// ---- handlers ----

const maxRequestBytes = 64 << 20

func readJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeError(w, fmt.Errorf("bad request: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(payload)
}

// statusOf maps an error class onto an HTTP status. The class string in
// the payload is authoritative for clients; the status exists for generic
// HTTP middlware (load balancers retry 429/503, not 400).
func statusOf(err error) int {
	switch {
	case errors.Is(err, qerr.ErrAdmissionRejected):
		return http.StatusTooManyRequests
	case errors.Is(err, qerr.ErrTimeout):
		return http.StatusRequestTimeout
	case errors.Is(err, qerr.ErrCancelled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, qerr.ErrServingUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, qerr.ErrMemoryBudget), errors.Is(err, qerr.ErrInternal):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

func writeError(w http.ResponseWriter, err error) {
	class := qerr.Class(err)
	if class == "" {
		class = "error"
	}
	writeJSON(w, statusOf(err), errorResponse{Error: wireError{Class: class, Message: err.Error()}})
}

// traceContext plants a client-supplied X-Trace-Id as a trace-ID hint on
// the request context; the trace store adopts valid hints when runQuery
// starts the request trace, so a trace spans the HTTP hop end to end.
func traceContext(r *http.Request) context.Context {
	if id := r.Header.Get("X-Trace-Id"); id != "" {
		return obs.ContextWithTraceID(r.Context(), id)
	}
	return r.Context()
}

// handleTraceGet serves one retained trace as Chrome trace_event JSON
// (load it at chrome://tracing or ui.perfetto.dev).
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.db.Traces.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: wireError{
			Class: "not_found", Message: fmt.Sprintf("no retained trace %q", id),
		}})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	st.WriteChromeTrace(w)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

func (s *Server) handleSessionNew(w http.ResponseWriter, r *http.Request) {
	var req sessionNewRequest
	if !readJSON(w, r, &req) {
		return
	}
	if s.draining.Load() {
		writeError(w, fmt.Errorf("%w: server is draining", qerr.ErrAdmissionRejected))
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = s.cfg.DefaultTenant
	}
	sess := s.sess.create(tenant)
	sess.SetTimeout(time.Duration(req.TimeoutMs) * time.Millisecond)
	sess.SetParallelism(req.Parallelism)
	sess.SetMemoryBudget(req.MemoryBudget)
	s.noteSessionGauge()
	writeJSON(w, http.StatusOK, sessionNewResponse{Session: sess.ID, Tenant: tenant})
}

func (s *Server) handleSessionSet(w http.ResponseWriter, r *http.Request) {
	var req sessionSetRequest
	if !readJSON(w, r, &req) {
		return
	}
	sess, ok := s.sess.get(req.Session)
	if !ok {
		writeError(w, fmt.Errorf("no such session %q", req.Session))
		return
	}
	sess.touch()
	if req.TimeoutMs != nil {
		sess.SetTimeout(time.Duration(*req.TimeoutMs) * time.Millisecond)
	}
	if req.Parallelism != nil {
		sess.SetParallelism(*req.Parallelism)
	}
	if req.MemoryBudget != nil {
		sess.SetMemoryBudget(*req.MemoryBudget)
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	var req sessionRequest
	if !readJSON(w, r, &req) {
		return
	}
	if !s.sess.close(req.Session) {
		writeError(w, fmt.Errorf("no such session %q", req.Session))
		return
	}
	s.noteSessionGauge()
	writeJSON(w, http.StatusOK, map[string]string{"status": "closed"})
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req prepareRequest
	if !readJSON(w, r, &req) {
		return
	}
	sess, ok := s.sess.get(req.Session)
	if !ok {
		writeError(w, fmt.Errorf("prepare requires a session (got %q)", req.Session))
		return
	}
	sess.touch()
	p, err := s.db.Prepare(req.SQL)
	if err != nil {
		writeError(w, err)
		return
	}
	id := sess.addPrepared(p, p.NumParams())
	writeJSON(w, http.StatusOK, prepareResponse{Stmt: id, Params: p.NumParams()})
}

func (s *Server) handleStmtClose(w http.ResponseWriter, r *http.Request) {
	var req stmtCloseRequest
	if !readJSON(w, r, &req) {
		return
	}
	sess, ok := s.sess.get(req.Session)
	if !ok {
		writeError(w, fmt.Errorf("no such session %q", req.Session))
		return
	}
	sess.touch()
	if !sess.closePrepared(req.Stmt) {
		writeError(w, fmt.Errorf("no such statement %q", req.Stmt))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "closed"})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !readJSON(w, r, &req) {
		return
	}
	sess, tenant, err := s.resolveSession(req.Session, req.Tenant)
	if err != nil {
		writeError(w, err)
		return
	}
	start := time.Now()
	res, queued, traceID, err := s.runQuery(traceContext(r), sess, tenant, func(ctx context.Context) (*sqldb.Result, error) {
		return s.db.ExecContext(ctx, req.SQL)
	})
	if err != nil {
		writeError(w, err)
		return
	}
	if traceID != "" {
		w.Header().Set("X-Trace-Id", traceID)
	}
	writeJSON(w, http.StatusOK, queryResponse{
		Result:  encodeResult(res),
		WallMs:  float64(time.Since(start)) / float64(time.Millisecond),
		Queued:  queued,
		TraceID: traceID,
	})
}

func (s *Server) handleStmtExec(w http.ResponseWriter, r *http.Request) {
	var req stmtExecRequest
	if !readJSON(w, r, &req) {
		return
	}
	sess, ok := s.sess.get(req.Session)
	if !ok {
		writeError(w, fmt.Errorf("no such session %q", req.Session))
		return
	}
	p, ok := sess.getPrepared(req.Stmt)
	if !ok {
		writeError(w, fmt.Errorf("no such statement %q", req.Stmt))
		return
	}
	args := make([]sqldb.Datum, len(req.Params))
	for i, v := range req.Params {
		d, err := decodeDatum(v)
		if err != nil {
			writeError(w, err)
			return
		}
		args[i] = d
	}
	start := time.Now()
	res, queued, traceID, err := s.runQuery(traceContext(r), sess, sess.Tenant, func(ctx context.Context) (*sqldb.Result, error) {
		return p.ExecContext(ctx, args...)
	})
	if err != nil {
		writeError(w, err)
		return
	}
	if traceID != "" {
		w.Header().Set("X-Trace-Id", traceID)
	}
	writeJSON(w, http.StatusOK, queryResponse{
		Result:  encodeResult(res),
		WallMs:  float64(time.Since(start)) / float64(time.Millisecond),
		Queued:  queued,
		TraceID: traceID,
	})
}

func (s *Server) handleColQuery(w http.ResponseWriter, r *http.Request) {
	var req colQueryRequest
	if !readJSON(w, r, &req) {
		return
	}
	if s.env == nil {
		writeError(w, errors.New("this server has no inference context (started without a dataset binding)"))
		return
	}
	// Strategies hold no per-execution state, so concurrent requests may
	// run the same value.
	var strat strategies.Strategy
	for _, st := range strategies.All() {
		if strings.EqualFold(st.Name(), req.Strategy) {
			strat = st
		}
	}
	if strat == nil {
		writeError(w, fmt.Errorf("unknown strategy %q (want DL2SQL, DL2SQL-OP, DB-UDF, or DB-PyTorch)", req.Strategy))
		return
	}
	sess, tenant, err := s.resolveSession(req.Session, req.Tenant)
	if err != nil {
		writeError(w, err)
		return
	}
	q, err := colquery.Analyze(req.SQL)
	if err != nil {
		writeError(w, err)
		return
	}
	start := time.Now()
	var bd strategies.CostBreakdown
	finalStrategy := strat.Name()
	res, queued, traceID, err := s.runQuery(traceContext(r), sess, tenant, func(ctx context.Context) (*sqldb.Result, error) {
		var res *sqldb.Result
		var execErr error
		if req.Fallback {
			res, bd, execErr = strategies.ExecuteWithFallback(ctx, s.env, strat, q)
			if n := len(bd.FallbackPath); n > 0 {
				finalStrategy = bd.FallbackPath[n-1]
			}
		} else {
			res, bd, execErr = strat.Execute(ctx, s.env, q)
		}
		return res, execErr
	})
	if err != nil {
		writeError(w, err)
		return
	}
	if traceID != "" {
		w.Header().Set("X-Trace-Id", traceID)
	}
	writeJSON(w, http.StatusOK, colQueryResponse{
		Result:       encodeResult(res),
		Strategy:     finalStrategy,
		FallbackPath: bd.FallbackPath,
		LoadingS:     bd.Loading,
		InferenceS:   bd.Inference,
		RelationalS:  bd.Relational,
		WallMs:       float64(time.Since(start)) / float64(time.Millisecond),
		Queued:       queued,
		TraceID:      traceID,
	})
}

// resolveSession maps an optional session ID (or explicit tenant, for
// session-less one-shots) to the session and admission tenant.
func (s *Server) resolveSession(sessionID, tenant string) (*Session, string, error) {
	if sessionID != "" {
		sess, ok := s.sess.get(sessionID)
		if !ok {
			return nil, "", fmt.Errorf("no such session %q", sessionID)
		}
		sess.touch()
		return sess, sess.Tenant, nil
	}
	if tenant == "" {
		tenant = s.cfg.DefaultTenant
	}
	return nil, tenant, nil
}

// tenantBudget resolves a tenant's per-query byte budget.
func (s *Server) tenantBudget(tenant string) int64 {
	if b, ok := s.cfg.TenantMemory[tenant]; ok {
		return b
	}
	return s.cfg.TenantMemoryDefault
}

// runQuery is the one path every query-shaped request takes: admission,
// context assembly (drain + disconnect + session vars + tenant budget),
// trace creation, execution, and metrics. The returned traceID is the
// request's retained trace ID ("" when the tail sampler dropped it or the
// DB has no trace store); handlers echo it in the response envelope and
// the X-Trace-Id header.
func (s *Server) runQuery(reqCtx context.Context, sess *Session, tenant string,
	exec func(ctx context.Context) (*sqldb.Result, error)) (res *sqldb.Result, queued bool, traceID string, err error) {
	m := s.metrics().ServerMetrics()
	if err := s.enter(); err != nil {
		if m != nil {
			m.Rejected.Add(1)
		}
		return nil, false, "", err
	}
	defer s.inflight.Done()

	admitStart := time.Now()
	release, queued, err := s.adm.Admit(reqCtx, tenant)
	if err != nil {
		if m != nil {
			if errors.Is(err, qerr.ErrAdmissionRejected) {
				m.Rejected.Add(1)
			}
			m.Errors.Add(1)
		}
		return nil, queued, "", err
	}
	defer release()
	if m != nil {
		m.Requests.Add(1)
		m.Admitted.Add(1)
		if queued {
			m.Queued.Add(1)
			m.QueueSeconds.Observe(time.Since(admitStart).Seconds())
		}
		m.Inflight.Set(float64(s.adm.running()))
	}

	// Context assembly: request ctx (client disconnect) merged with the
	// drain ctx, bounded by the session timeout, carrying the tenant
	// memory budget and session parallelism.
	ctx, cancel := context.WithCancel(reqCtx)
	defer cancel()
	stopAfter := context.AfterFunc(s.baseCtx, cancel)
	defer stopAfter()

	budget := s.tenantBudget(tenant)
	if sess != nil {
		if t := sess.Timeout(); t > 0 {
			var cancelT context.CancelFunc
			ctx, cancelT = context.WithTimeout(ctx, t)
			defer cancelT()
		}
		if sb := sess.MemoryBudget(); sb > 0 && (budget <= 0 || sb < budget) {
			budget = sb
		}
		if p := sess.Parallelism(); p > 0 {
			ctx = sqldb.WithParallelism(ctx, p)
		}
		sess.inflight.Add(1)
		sess.queries.Add(1)
		defer sess.inflight.Add(-1)
	}
	ctx = sqldb.WithMemoryBudget(ctx, budget)

	// The server is the outermost layer: every served request gets its
	// trace here (obs.TraceStore.Enter finds none in the context), and the
	// inner layers (sqldb statement accounting, the strategy executor) join
	// it through the context instead of creating their own. A
	// client-supplied X-Trace-Id arrives as a context hint (traceContext)
	// and is adopted by the new trace.
	start := time.Now()
	ctx, scope := s.db.Traces.Enter(ctx, "request", "request", start)
	scope.Span.SetAttr("tenant", tenant)

	res, err = exec(ctx)
	end := time.Now()
	traceID = scope.Exit(end, qerr.Class(err))
	if m != nil {
		m.RequestSeconds.ObserveExemplar(end.Sub(start).Seconds(), traceID)
		if traceID != "" {
			m.Exemplars.Add(1)
		}
		if err != nil {
			m.Errors.Add(1)
		}
		m.Inflight.Set(float64(s.adm.running()))
	}
	return res, queued, traceID, err
}

func (s *Server) noteSessionGauge() {
	if reg := s.metrics(); reg != nil {
		reg.Gauge(obs.MetricServerSessions).Set(float64(s.sess.count()))
	}
}
