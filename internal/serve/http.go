// HTTP/JSON front end over the Engine — what cmd/mtmlf-serve mounts
// and cmd/mtmlf-loadgen drives.
//
// Endpoints:
//
//	POST /estimate/card  {"query": ..., "plan": ...} → {"nodes": [...], "root": ...}
//	POST /estimate/cost  same shape as /estimate/card
//	POST /joinorder      {"query": ..., "plan": ...} → {"order": [...], "logprob": ..., "legal": ...}
//	POST /reloadz        hot-swap the checkpoint (when a reloader is configured)
//	GET  /healthz        liveness + checkpoint/database identity
//	GET  /statsz         QPS, per-endpoint p50/p95/p99, shed/deadline/reload and pool counters, process heap
//	GET  /example        a valid random request body (for curl | POST round trips)
//
// "plan" is optional everywhere: when omitted, a left-deep
// SeqScan/HashJoin tree over the query's table order stands in (the
// paper's "existing DBMS provides the initial plan" role, without
// requiring clients to speak plan trees).
//
// Deadlines: a client may send an X-Deadline-Ms header on any POST;
// the handler turns it into a context deadline that the engine's
// scheduler honors (expired work is rejected with 504 before any
// model compute). Overload (full admission queue under
// Options.ShedOverload) returns 429 with a Retry-After hint.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"mtmlf/internal/plan"
	"mtmlf/internal/workload"
)

// RequestJSON is the body of every POST endpoint.
type RequestJSON struct {
	Query *QueryJSON `json:"query"`
	Plan  *PlanJSON  `json:"plan,omitempty"`
}

// EstimateJSON is the card/cost response body.
type EstimateJSON struct {
	// Nodes has one estimate per plan node in post-order.
	Nodes []float64 `json:"nodes"`
	Root  float64   `json:"root"`
	// Plan echoes the plan the estimates are for (useful when the
	// server synthesized it).
	Plan string `json:"plan"`
}

// JoinOrderJSON is the /joinorder response body.
type JoinOrderJSON struct {
	Order   []string `json:"order"`
	LogProb float64  `json:"logprob"`
	Legal   bool     `json:"legal"`
}

// HealthJSON is the /healthz response body.
type HealthJSON struct {
	Status   string `json:"status"`
	Database string `json:"database"`
	Tables   int    `json:"tables"`
	Sessions int    `json:"sessions"`
	Reloads  uint64 `json:"reloads"`
}

// ReloadJSON is the /reloadz response body.
type ReloadJSON struct {
	Status   string `json:"status"`
	Database string `json:"database"`
	Tables   int    `json:"tables"`
	// Reloads is the total number of successful swaps, this one
	// included.
	Reloads uint64 `json:"reloads"`
}

type errorJSON struct {
	Error string `json:"error"`
}

// HandlerConfig configures the optional endpoints of NewHandlerConfig.
type HandlerConfig struct {
	// Gen, when non-nil, powers GET /example with random valid queries
	// against the served database (guarded by a mutex: workload
	// generators are not concurrency-safe).
	Gen *workload.Generator
	// Reload, when non-nil, enables POST /reloadz: it loads fresh
	// weights and swaps them into the engine — typically re-reading the
	// checkpoint path through Engine.ReloadFrom. Calls are serialized by
	// the handler. When nil, /reloadz returns 404.
	Reload func() error
	// Ready, when non-nil, gates readiness: /healthz answers 503 while
	// it returns false (during drain, say), steering load balancers
	// away without touching liveness — GET /livez stays 200 as long as
	// the process can answer at all. Nil means always ready.
	Ready func() bool
}

// NewHandlerConfig mounts the serving endpoints over e, wrapped in a
// recover middleware: a panicking handler answers 500 (and bumps the
// /statsz `panics` counter) instead of killing the connection — one
// poisoned request must never take the server down.
func NewHandlerConfig(e *Engine, cfg HandlerConfig) http.Handler {
	h := &handler{engine: e, gen: cfg.Gen, reload: cfg.Reload, ready: cfg.Ready}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /estimate/card", func(w http.ResponseWriter, r *http.Request) {
		h.estimate(w, r, EndpointCard)
	})
	mux.HandleFunc("POST /estimate/cost", func(w http.ResponseWriter, r *http.Request) {
		h.estimate(w, r, EndpointCost)
	})
	mux.HandleFunc("POST /joinorder", h.joinOrder)
	mux.HandleFunc("POST /reloadz", h.reloadz)
	mux.HandleFunc("GET /healthz", h.healthz)
	mux.HandleFunc("GET /livez", livez)
	mux.HandleFunc("GET /statsz", h.statsz)
	mux.HandleFunc("GET /example", h.example)
	return Recover(e, mux)
}

// Recover wraps next so a panic anywhere below answers 500 (when no
// bytes have gone out yet), logs the stack, and counts into e's
// /statsz `panics` field. Exported for front ends that mount their
// own mux around the serving handlers.
func Recover(e *Engine, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &trackedWriter{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				e.stats.recordPanic()
				log.Printf("serve: panic in %s %s (answered 500): %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				if !tw.wrote {
					writeJSON(tw, http.StatusInternalServerError,
						errorJSON{Error: fmt.Sprintf("internal error: %v", v)})
				}
			}
		}()
		next.ServeHTTP(tw, r)
	})
}

// trackedWriter remembers whether a response has started, so the
// recover middleware only writes a 500 when the panic struck before
// any bytes went out (headers can't be unsent).
type trackedWriter struct {
	http.ResponseWriter
	wrote bool
}

func (t *trackedWriter) WriteHeader(code int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackedWriter) Write(b []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(b)
}

type handler struct {
	engine *Engine
	genMu  sync.Mutex
	gen    *workload.Generator
	ready  func() bool

	reloadMu sync.Mutex
	reload   func() error
}

// maxBodyBytes bounds POST bodies: the largest legitimate request (a
// deep plan over every table with many filters) is a few KB, so 1 MiB
// leaves margin while keeping an oversized body from buffering
// without bound.
const maxBodyBytes = 1 << 20

// decode parses a request body into a validated-shape (query, plan)
// pair, synthesizing a left-deep plan when none is given. Semantic
// validation happens in the engine.
func (h *handler) decode(w http.ResponseWriter, r *http.Request) (*RequestJSON, *plan.Node, error) {
	var req RequestJSON
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, nil, errors.Join(ErrBadRequest, err)
	}
	if req.Query == nil || len(req.Query.Tables) == 0 {
		return nil, nil, errors.Join(ErrBadRequest, errors.New("missing query.tables"))
	}
	if req.Plan == nil {
		return &req, plan.LeftDeepFromOrder(req.Query.Tables, plan.SeqScan, plan.HashJoin), nil
	}
	p, err := DecodePlan(req.Plan)
	if err != nil {
		return nil, nil, err
	}
	return &req, p, nil
}

// DeadlineHeader is the request header carrying the client's latency
// budget in integer milliseconds. The handler converts it into a
// context deadline; the scheduler refuses to spend model compute on
// work that has already missed it.
const DeadlineHeader = "X-Deadline-Ms"

// requestContext derives the engine context for one POST: the HTTP
// request's context (so a disconnected client cancels queued work),
// tightened by X-Deadline-Ms when present.
func requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	hdr := r.Header.Get(DeadlineHeader)
	if hdr == "" {
		return r.Context(), func() {}, nil
	}
	ms, err := strconv.ParseInt(hdr, 10, 64)
	// The upper bound keeps ms*time.Millisecond from wrapping negative
	// (a context born expired, 504 on every request).
	if err != nil || ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
		return nil, nil, fmt.Errorf("%w: %s must be a positive millisecond count that fits a time.Duration, got %q", ErrBadRequest, DeadlineHeader, hdr)
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
	return ctx, cancel, nil
}

func (h *handler) estimate(w http.ResponseWriter, r *http.Request, ep Endpoint) {
	req, p, err := h.decode(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	q, err := DecodeQuery(h.engine.DB(), req.Query)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel, err := requestContext(r)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	var est *Estimate
	if ep == EndpointCard {
		est, err = h.engine.EstimateCardCtx(ctx, q, p)
	} else {
		est, err = h.engine.EstimateCostCtx(ctx, q, p)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, EstimateJSON{Nodes: est.Nodes, Root: est.Root, Plan: p.String()})
}

func (h *handler) joinOrder(w http.ResponseWriter, r *http.Request) {
	req, p, err := h.decode(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	q, err := DecodeQuery(h.engine.DB(), req.Query)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel, err := requestContext(r)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	res, err := h.engine.JoinOrderCtx(ctx, q, p)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, JoinOrderJSON{Order: res.Order, LogProb: res.LogProb, Legal: res.Legal})
}

// reloadz hot-swaps the served checkpoint through the configured
// reloader. The swap itself is atomic and in-flight requests drain on
// the old bundle — see Engine.Reload. A checkpoint for another schema
// answers 409; any other failure (an unreadable or damaged file) is the
// server's, 500. Either way the old bundle keeps serving.
func (h *handler) reloadz(w http.ResponseWriter, _ *http.Request) {
	if h.reload == nil {
		http.NotFound(w, nil)
		return
	}
	h.reloadMu.Lock()
	defer h.reloadMu.Unlock()
	if err := h.reload(); err != nil {
		if errors.Is(err, ErrReloadMismatch) {
			writeError(w, err)
		} else {
			writeJSON(w, http.StatusInternalServerError, errorJSON{Error: err.Error()})
		}
		return
	}
	db := h.engine.DB()
	writeJSON(w, http.StatusOK, ReloadJSON{
		Status:   "ok",
		Database: db.Name,
		Tables:   len(db.Tables),
		Reloads:  h.engine.Reloads(),
	})
}

// healthz is READINESS: 503 while the Ready hook says the process
// should not receive traffic (draining, still booting behind a
// placeholder handler). Liveness is /livez.
func (h *handler) healthz(w http.ResponseWriter, _ *http.Request) {
	db := h.engine.DB()
	status, code := "ok", http.StatusOK
	if h.ready != nil && !h.ready() {
		status, code = "unavailable", http.StatusServiceUnavailable
	}
	writeJSON(w, code, HealthJSON{
		Status:   status,
		Database: db.Name,
		Tables:   len(db.Tables),
		Sessions: h.engine.opts.Sessions,
		Reloads:  h.engine.Reloads(),
	})
}

// livez is LIVENESS: 200 whenever the process can answer HTTP at all.
// A supervisor restarts on failing /livez and merely unroutes on
// failing /healthz.
func livez(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"alive"})
}

// statszBody is the /statsz document: the engine's snapshot and, beside
// it, the process heap. The heap is the process's, not the engine's, so
// it is read here rather than in Engine.Stats.
type statszBody struct {
	StatsSnapshot
	Memory MemoryStats `json:"memory"`
}

func (h *handler) statsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, statszBody{h.engine.Stats(), readMemory()})
}

func (h *handler) example(w http.ResponseWriter, _ *http.Request) {
	if h.gen == nil {
		http.NotFound(w, nil)
		return
	}
	h.genMu.Lock()
	cfg := workload.DefaultConfig()
	cfg.MaxTables = 4
	q := h.gen.GenQuery(cfg)
	h.genMu.Unlock()
	writeJSON(w, http.StatusOK, RequestJSON{
		Query: EncodeQuery(q),
		Plan:  EncodePlan(plan.LeftDeepFromOrder(q.Tables, plan.SeqScan, plan.HashJoin)),
	})
}

// writeError maps the typed engine errors onto HTTP statuses: 429
// (overload shed, with a Retry-After hint), 504 (deadline missed
// before admission), 409 (reload schema mismatch), 503 (closed), 500
// (recovered panic), 422 (no legal join order), 400 (everything
// malformed).
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrDeadline):
		status = http.StatusGatewayTimeout
	case errors.Is(err, ErrReloadMismatch):
		status = http.StatusConflict
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrInternal):
		status = http.StatusInternalServerError
	case errors.Is(err, ErrNoJoinOrder):
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
