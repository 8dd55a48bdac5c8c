// Package server implements energyschedd, the long-running HTTP JSON
// solve service in front of the core solver registry:
//
//	POST /v1/solve    — solve one instance, returns core.MarshalResult JSON
//	POST /v1/batch    — solve many instances on a worker pool (core.SolveAll)
//	POST /v1/simulate — solve, then execute the schedule in a seeded
//	                    Monte-Carlo campaign on the discrete-event
//	                    simulator (internal/sim)
//	POST /v1/sweep    — solve-then-simulate one generated instance per
//	                    workload class (sim.Sweep), cached per class spec
//	GET  /v1/solvers  — list the registered solver names
//	GET  /healthz     — liveness probe
//	GET  /stats       — request, solve, simulate, sweep and cache counters
//
// Solved results are memoized in a sharded LRU keyed by
// (core.Instance.Hash, core.Config.Fingerprint), so repeated instances
// skip the solver entirely. Every request runs under a wall-time cap,
// solver work is bounded by a global in-flight semaphore, and the
// service drains gracefully through the standard http.Server.Shutdown
// path (handlers observe the request context, which the semaphore and
// solvers honor).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"energysched/internal/cache"
	"energysched/internal/core"
	"energysched/internal/jobs"
	"energysched/internal/obs"
	"energysched/internal/sim"
)

// Defaults applied by New for zero Config fields.
const (
	DefaultCacheSize    = 1024
	DefaultSolveTimeout = 30 * time.Second
	DefaultMaxBodyBytes = 8 << 20 // 8 MiB
	// DefaultTrials is the campaign size /v1/simulate and /v1/sweep use
	// when the request omits "trials".
	DefaultTrials = 1000
	// DefaultMaxTrials caps the per-request campaign size — the same
	// ceiling cmd/energysim enforces on its -trials flag.
	DefaultMaxTrials = sim.MaxCampaignTrials
	// DefaultMaxSweepN caps the per-instance task count of /v1/sweep.
	DefaultMaxSweepN = 256
	// MaxSweepClasses caps the class list one /v1/sweep request may
	// name; each class costs a solve plus a campaign.
	MaxSweepClasses = 16
	// MaxSweepProcs caps the processor count of a sweep instance.
	MaxSweepProcs = 64
	// DefaultQueueFactor sizes the default admission-control queue:
	// MaxQueueDepth = DefaultQueueFactor × MaxInFlight waiters may
	// queue on the semaphore before further work-needing requests are
	// shed with 429.
	DefaultQueueFactor = 4
	// DefaultRetryAfter is the Retry-After hint attached to 429
	// shed-load responses.
	DefaultRetryAfter = time.Second
)

// Config tunes one Server. The zero value is usable: New substitutes
// the package defaults.
type Config struct {
	// CacheSize is the result cache capacity in entries (default
	// DefaultCacheSize).
	CacheSize int
	// MaxInFlight caps the number of requests executing solvers at
	// once; excess requests queue on the semaphore until a slot frees
	// or their deadline expires (default 2×GOMAXPROCS).
	MaxInFlight int
	// SolveTimeout bounds the solving wall time of every request; a
	// request may only lower it via "timeoutMs" (default
	// DefaultSolveTimeout).
	SolveTimeout time.Duration
	// MaxBodyBytes bounds the request body; larger bodies get 413
	// (default DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// Workers is the default worker-pool size for /v1/batch and the
	// /v1/simulate campaign runner; a request may only lower it via
	// "workers" (default GOMAXPROCS).
	Workers int
	// MaxTrials caps the campaign size a /v1/simulate or /v1/sweep
	// request may ask for (default DefaultMaxTrials).
	MaxTrials int
	// MaxSweepN caps the per-instance task count a /v1/sweep request
	// may ask for (default DefaultMaxSweepN).
	MaxSweepN int
	// MaxQueueDepth caps how many requests may wait for a semaphore
	// slot; beyond it, requests needing solver work are shed with 429
	// and a Retry-After hint. Cache hits and coalesced followers are
	// never shed — they bypass the semaphore entirely (default
	// DefaultQueueFactor × MaxInFlight).
	MaxQueueDepth int
	// RetryAfter is the Retry-After hint on 429 responses (default
	// DefaultRetryAfter).
	RetryAfter time.Duration
	// DisableTracing turns request-scoped tracing off. The request path
	// then adds zero allocations over the untraced server (gated by
	// test); /debug/traces still exists but serves an empty ring.
	DisableTracing bool
	// TraceBuffer is the /debug/traces ring capacity (default
	// obs.DefaultTraceBuffer).
	TraceBuffer int
	// TraceSeed seeds the deterministic trace-ID stream (default 1).
	TraceSeed int64
	// TraceLogger, when set, emits one structured log line per traced
	// request.
	TraceLogger *slog.Logger
	// StateDir, when set, makes campaign jobs durable: every job
	// checkpoints to this directory and ResumeJobs reloads incomplete
	// jobs after a restart. Empty runs jobs memory-only.
	StateDir string
	// MaxJobTrials caps the campaign size a POST /v1/jobs request may
	// ask for (default sim.MaxJobCampaignTrials — far above MaxTrials,
	// because jobs are asynchronous, chunked and flat-memory).
	MaxJobTrials int
	// MaxJobs bounds how many jobs compute concurrently (default 2;
	// campaigns are internally parallel already, so this bounds memory,
	// not throughput).
	MaxJobs int
	// JobCheckpointEvery persists a running job's checkpoint every this
	// many chunks (default 8).
	JobCheckpointEvery int
	// JobChunkDelay, when positive, sleeps this long after every job
	// chunk — a pacing knob for tests and smoke runs that need a job to
	// stay observable mid-flight long enough to kill the process.
	JobChunkDelay time.Duration
}

// Server is the handler state: resolved config, result cache,
// in-flight semaphore and counters. Create with New; it is safe for
// concurrent use.
type Server struct {
	cfg     Config
	cache   *cache.Cache[[]byte]
	sem     chan struct{}
	mux     *http.ServeMux
	start   time.Time
	latency *latencyTracker
	tracer  *obs.Tracer // nil when tracing is disabled
	metrics *obs.Registry

	jobs       *jobs.Manager // asynchronous campaign jobs (/v1/jobs)
	jobsDirErr error         // StateDir creation failure, surfaced by ResumeJobs

	flights flightGroup // coalesces concurrent identical cache misses

	requests  atomic.Int64 // HTTP requests accepted (all endpoints)
	solved    atomic.Int64 // instances solved by a solver (cache misses)
	simulated atomic.Int64 // Monte-Carlo campaigns executed (cache misses)
	swept     atomic.Int64 // workload-class sweeps executed (cache misses)
	errors    atomic.Int64 // requests answered with a 4xx/5xx status
	timeouts  atomic.Int64 // solves that ran out of their deadline
	inflight  atomic.Int64 // requests currently holding a semaphore slot
	queued    atomic.Int64 // requests currently waiting for a slot
	shed      atomic.Int64 // requests answered 429 by admission control
	coalesced atomic.Int64 // requests served a concurrent leader's bytes
	panics    atomic.Int64 // handler panics contained by the recovery middleware
}

// New returns a ready-to-serve Server with cfg's zero fields replaced
// by defaults.
func New(cfg Config) *Server {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.SolveTimeout <= 0 {
		cfg.SolveTimeout = DefaultSolveTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxTrials <= 0 {
		cfg.MaxTrials = DefaultMaxTrials
	}
	if cfg.MaxSweepN <= 0 {
		cfg.MaxSweepN = DefaultMaxSweepN
	}
	if cfg.MaxQueueDepth <= 0 {
		cfg.MaxQueueDepth = DefaultQueueFactor * cfg.MaxInFlight
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.MaxJobTrials <= 0 {
		cfg.MaxJobTrials = sim.MaxJobCampaignTrials
	}
	s := &Server{
		cfg:     cfg,
		cache:   cache.New[[]byte](cfg.CacheSize),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		latency: newLatencyTracker(),
	}
	if !cfg.DisableTracing {
		s.tracer = obs.NewTracer(obs.TracerConfig{
			Service: "energyschedd",
			Buffer:  cfg.TraceBuffer,
			Seed:    cfg.TraceSeed,
			Logger:  cfg.TraceLogger,
		})
	}
	s.jobs, s.jobsDirErr = newJobManager(s, cfg)
	s.metrics = s.newRegistry()
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	s.mux.HandleFunc("GET /v1/solvers", s.handleSolvers)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.Handle("GET /metrics", obs.MetricsHandler(s.metrics))
	s.mux.Handle("GET /debug/traces", obs.TracesHandler(s.tracer))
	return s
}

// Handler returns the service's http.Handler: the mux behind the
// panic-recovery and tracing wrappers. Tracing covers /v1/* requests
// and passes scrape and probe traffic through untouched; recovery
// covers everything — a handler panic (a broken registered solver, a
// bug in a request path) answers 500 with the uniform error envelope
// and the request's trace ID instead of killing the daemon and every
// other in-flight request with it.
func (s *Server) Handler() http.Handler {
	return obs.WrapHandler(s.tracer, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				// The sanctioned abort-this-response panic, not a bug.
				panic(rec)
			}
			s.panics.Add(1)
			s.writePanic(w, rec)
		}()
		s.mux.ServeHTTP(w, r)
	}))
}

// writePanic emits the 500 envelope for a recovered handler panic. The
// trace ID rides along explicitly (not just in the X-Request-Id header
// the tracing wrapper already set) so a client that only keeps bodies
// can still quote the ID when reporting the crash.
func (s *Server) writePanic(w http.ResponseWriter, rec any) {
	s.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusInternalServerError)
	json.NewEncoder(w).Encode(map[string]string{
		"error":     fmt.Sprintf("internal error: %v", rec),
		"requestId": w.Header().Get(obs.RequestIDHeader),
	})
}

// Metrics exposes the registry behind GET /metrics — the same atomics
// GET /stats reads — for the parity tests.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Tracer exposes the server's tracer (nil when tracing is disabled).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// errShedLoad is the admission-control rejection: the semaphore queue
// is full, so the request is refused outright (429 + Retry-After)
// instead of piling onto a server that cannot keep up. Shedding at
// the queue, not the socket, keeps the failure cheap and explicit —
// the caller learns in microseconds, not after a full solve timeout.
var errShedLoad = errors.New("server overloaded: semaphore queue is full")

// acquire takes an in-flight slot: immediately if one is free,
// otherwise by queueing until one frees or the request's deadline
// expires — unless the queue is already at MaxQueueDepth, in which
// case the request is shed with errShedLoad.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		return nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueueDepth) {
		s.queued.Add(-1)
		return errShedLoad
	}
	defer s.queued.Add(-1)
	// Only requests that actually queue get a queue.wait span — the
	// fast path above never touches the trace or the clock.
	tr := obs.TraceFromContext(ctx)
	var queuedAt time.Time
	if tr != nil {
		queuedAt = time.Now()
	}
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		tr.Span("queue.wait", queuedAt, "")
		return nil
	case <-ctx.Done():
		tr.Span("queue.wait", queuedAt, "expired")
		return ctx.Err()
	}
}

func (s *Server) release() {
	s.inflight.Add(-1)
	<-s.sem
}

// clampWorkers resolves a request's "workers" field against the
// server pool: a request may only lower the configured size, never
// raise it; zero or absent keeps the server default. Shared by
// /v1/batch, /v1/simulate and /v1/sweep so the rule cannot drift
// between endpoints.
func (s *Server) clampWorkers(requested int) int {
	if requested > 0 && requested < s.cfg.Workers {
		return requested
	}
	return s.cfg.Workers
}

// solveContext derives the per-request solving context: the server cap
// lowered — never raised — by the request's timeoutMs.
func (s *Server) solveContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := s.cfg.SolveTimeout
	if req := time.Duration(timeoutMS) * time.Millisecond; timeoutMS > 0 && req < timeout {
		timeout = req
	}
	return context.WithTimeout(r.Context(), timeout)
}

// readBody reads the request body under the MaxBodyBytes cap,
// distinguishing an oversized body (http.MaxBytesError → 413) from
// transport errors.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, &httpError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes)}
		}
		return nil, &httpError{status: http.StatusBadRequest, msg: "reading request body: " + err.Error()}
	}
	return body, nil
}

// httpError pairs a client-facing message with its status code.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// writeError emits the uniform JSON error envelope and counts the
// failed request.
func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func (s *Server) writeHTTPError(w http.ResponseWriter, err error) {
	var he *httpError
	if errors.As(err, &he) {
		s.writeError(w, he.status, he.msg)
		return
	}
	s.writeError(w, http.StatusBadRequest, err.Error())
}

// solveStatus maps a core.Solve error to an HTTP status: deadline or
// cancellation → 504, infeasible instance → 422, anything else (bad
// instance, unsupported solver/instance pairing) → 400. Only a missed
// deadline counts in the timeouts counter: a cancellation is the
// caller leaving (a closed connection, a router's losing hedge leg),
// not the server running out of time.
func (s *Server) solveStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, core.ErrInfeasible):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
