package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"energysched/internal/cache"
	"energysched/internal/core"
	"energysched/internal/jobs"
	"energysched/internal/obs"
)

// solveOptions is the tunable subset of core's functional options a
// request may set. Zero/absent fields keep the solver defaults; the
// two resource knobs (timeoutMs, workers on batch) may only lower the
// server's caps.
type solveOptions struct {
	Solver         string `json:"solver,omitempty"`
	Strategy       string `json:"strategy,omitempty"`
	ExactSizeLimit *int   `json:"exactSizeLimit,omitempty"`
	RoundUpK       *int   `json:"roundUpK,omitempty"`
	LowerBound     *bool  `json:"lowerBound,omitempty"`
	TimeoutMS      int64  `json:"timeoutMs,omitempty"`
}

// coreOptions translates the request options into a core option list
// plus the resolved Config whose Fingerprint keys the cache. Unknown
// solvers and strategies are rejected here so they surface as 400
// before any solving work.
func (o *solveOptions) coreOptions() ([]core.Option, *core.Config, error) {
	var opts []core.Option
	if o.Solver != "" {
		if _, ok := core.Lookup(o.Solver); !ok {
			return nil, nil, &httpError{status: http.StatusBadRequest,
				msg: fmt.Sprintf("unknown solver %q (have %s)", o.Solver, strings.Join(core.SolverNames(), ", "))}
		}
		opts = append(opts, core.WithSolver(o.Solver))
	}
	if o.Strategy != "" {
		strat, err := core.ParseStrategy(o.Strategy)
		if err != nil {
			return nil, nil, &httpError{status: http.StatusBadRequest, msg: err.Error()}
		}
		opts = append(opts, core.WithStrategy(strat))
	}
	if o.ExactSizeLimit != nil {
		opts = append(opts, core.WithExactSizeLimit(*o.ExactSizeLimit))
	}
	if o.RoundUpK != nil {
		opts = append(opts, core.WithRoundUpK(*o.RoundUpK))
	}
	if o.LowerBound != nil {
		opts = append(opts, core.WithLowerBound(*o.LowerBound))
	}
	cfg, err := core.NewConfig(opts...)
	if err != nil {
		return nil, nil, &httpError{status: http.StatusBadRequest, msg: err.Error()}
	}
	return opts, cfg, nil
}

type solveRequest struct {
	Instance *core.WireInstance `json:"instance"`
	solveOptions
}

// solveCached is the one solve-with-cache pipeline behind /v1/solve
// and /v1/simulate: it returns the solved Result for (in, opts)
// together with its MarshalResult bytes, serving from the shared byte
// cache when the solve key is present — the Result is then rebuilt
// from its bytes instead of re-running the solver — and otherwise
// solving, observing solver latency, and storing the bytes under the
// solve key for both endpoints to reuse. The caller must already hold
// an in-flight slot.
func (s *Server) solveCached(ctx context.Context, in *core.Instance, opts []core.Option, solveKey string) (*core.Result, []byte, error) {
	if cached, ok := s.cache.Get(solveKey); ok {
		if res, err := core.UnmarshalResult(cached, in); err == nil {
			return res, cached, nil
		}
		// Cached bytes that fail to rebuild (cannot happen for bytes
		// this server wrote) fall through to a fresh solve instead of
		// failing the request.
	}
	tr := obs.TraceFromContext(ctx)
	var begin time.Time
	if tr != nil {
		begin = time.Now()
	}
	res, err := core.Solve(ctx, in, opts...)
	if err != nil {
		return nil, nil, err
	}
	tr.Span("solve", begin, res.Solver)
	s.latency.observe(res.Solver, res.WallTime)
	if tr != nil {
		begin = time.Now()
	}
	out, err := core.MarshalResult(res)
	if err != nil {
		return nil, nil, err
	}
	tr.Span("marshal", begin, "")
	s.cache.Put(solveKey, out)
	s.solved.Add(1)
	return res, out, nil
}

// writeCached emits a byte-cached response body with its X-Cache
// disposition: "hit" (served from the LRU), "miss" (computed by this
// request) or "coalesced" (served a concurrent leader's bytes).
func writeCached(w http.ResponseWriter, disposition string, out []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", disposition)
	w.Write(out)
}

// writeComputeError maps a serveCached compute failure onto the wire:
// admission-control sheds become 429 with a Retry-After hint,
// parse-level httpErrors keep their status, everything else goes
// through the solve-status mapping (504 timeout, 422 infeasible,
// 400 otherwise).
func (s *Server) writeComputeError(w http.ResponseWriter, err error) {
	var he *httpError
	switch {
	case errors.Is(err, errShedLoad):
		s.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		s.writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.As(err, &he):
		s.writeError(w, he.status, he.msg)
	default:
		s.writeError(w, s.solveStatus(err), err.Error())
	}
}

// serveCached is the one read-through pipeline behind every
// byte-cached endpoint (/v1/solve, /v1/simulate, /v1/sweep), layering
// the server's three load defenses in order of cost:
//
//  1. Priority lane — a cache hit is served immediately, before the
//     semaphore, the queue or admission control are ever consulted, so
//     cheap repeat traffic survives even a saturated, shedding server.
//  2. Singleflight — concurrent identical misses (same cache key)
//     coalesce onto one leader; followers wait for its bytes without
//     holding semaphore slots, so a thundering herd costs one solve.
//  3. Admission control — the leader's slot acquisition queues up to
//     MaxQueueDepth and is otherwise shed with 429 + Retry-After.
//
// compute runs on the leader only, under the request-derived context
// and a held semaphore slot; its bytes are cached under key on
// success. A follower whose leader died of the leader's own deadline
// retries as leader if this request still has time left.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, timeoutMS int64, compute func(ctx context.Context) ([]byte, error)) {
	if !s.serveHit(w, r, key) {
		s.serveMiss(w, r, key, timeoutMS, compute)
	}
}

// serveHit is serveCached's priority lane on its own: it answers from
// the cache and reports true on a hit, and reports false having
// written nothing on a miss.
func (s *Server) serveHit(w http.ResponseWriter, r *http.Request, key string) bool {
	tr := obs.TraceFromContext(r.Context())
	var begin time.Time
	if tr != nil {
		begin = time.Now()
	}
	if out, ok := s.cache.Get(key); ok {
		tr.Span("cache.lookup", begin, "hit")
		writeCached(w, "hit", out)
		return true
	}
	tr.Span("cache.lookup", begin, "miss")
	return false
}

// serveMiss is the rest of serveCached, for a key serveHit missed.
func (s *Server) serveMiss(w http.ResponseWriter, r *http.Request, key string, timeoutMS int64, compute func(ctx context.Context) ([]byte, error)) {
	tr := obs.TraceFromContext(r.Context())
	var begin time.Time
	ctx, cancel := s.solveContext(r, timeoutMS)
	defer cancel()
	for {
		fl, leader := s.flights.join(key)
		if !leader {
			if tr != nil {
				begin = time.Now()
			}
			select {
			case <-fl.done:
				if fl.err == nil {
					s.coalesced.Add(1)
					tr.Span("singleflight.wait", begin, "coalesced")
					writeCached(w, "coalesced", fl.out)
					return
				}
				if isContextErr(fl.err) && ctx.Err() == nil {
					tr.Span("singleflight.wait", begin, "leader expired")
					continue // the leader ran out of time; we have not
				}
				tr.Span("singleflight.wait", begin, "leader failed")
				s.writeComputeError(w, fl.err)
				return
			case <-ctx.Done():
				tr.Span("singleflight.wait", begin, "expired")
				s.writeError(w, s.solveStatus(ctx.Err()), "waiting for coalesced result: "+ctx.Err().Error())
				return
			}
		}
		out, err := func() ([]byte, error) {
			if err := s.acquire(ctx); err != nil {
				return nil, err
			}
			defer s.release()
			return compute(ctx)
		}()
		if err == nil {
			s.cache.Put(key, out)
		}
		s.flights.finish(key, fl, out, err)
		if err != nil {
			s.writeComputeError(w, err)
			return
		}
		writeCached(w, "miss", out)
		return
	}
}

// isContextErr reports whether err is the context speaking — the one
// leader failure mode a follower with remaining time should retry
// through rather than inherit.
func isContextErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// handleSolve serves POST /v1/solve: decode the body once, key the
// instance from its wire form, then run the serveCached pipeline
// (priority-lane cache hit, singleflight coalescing,
// admission-controlled solve). The instance is built only when the
// wire form cannot give the key (no explicit mapping) or on a miss, so
// a hit on a mapped instance costs no DAG, mapping or validation work.
// The response body is core.MarshalResult JSON, byte-cached so a hit
// costs no solver or encoder work either.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	body, err := s.readBody(w, r)
	if err != nil {
		s.writeHTTPError(w, err)
		return
	}
	var req solveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "parsing request: "+err.Error())
		return
	}
	if req.Instance == nil {
		s.writeError(w, http.StatusBadRequest, `request is missing "instance"`)
		return
	}
	opts, cfg, err := req.coreOptions()
	if err != nil {
		s.writeHTTPError(w, err)
		return
	}
	hash, in, err := req.Instance.Identify()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := hash + "|" + cfg.Fingerprint()
	if s.serveHit(w, r, key) {
		return
	}
	if in == nil {
		if in, err = req.Instance.Build(); err != nil {
			s.writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	s.serveMiss(w, r, key, req.TimeoutMS, func(ctx context.Context) ([]byte, error) {
		_, out, err := s.solveCached(ctx, in, opts, key)
		return out, err
	})
}

type batchRequest struct {
	Instances []batchInstance `json:"instances"`
	Workers   int             `json:"workers,omitempty"`
	solveOptions
}

// batchInstance is one decoded batch item. A malformed item keeps its
// decode error here instead of failing the whole request, so it lands
// in its own item like any other per-instance error.
type batchInstance struct {
	core.WireInstance
	err error
}

func (b *batchInstance) UnmarshalJSON(data []byte) error {
	if err := json.Unmarshal(data, &b.WireInstance); err != nil {
		b.err = fmt.Errorf("core: %w", err)
	}
	return nil
}

// batchItemJSON is one per-instance outcome; exactly one of Result and
// Error is set. Cached marks results served from the LRU.
type batchItemJSON struct {
	Index  int             `json:"index"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	Cached bool            `json:"cached,omitempty"`
}

type batchResponse struct {
	Items     []batchItemJSON `json:"items"`
	CacheHits int             `json:"cacheHits"`
}

// handleBatch serves POST /v1/batch: per-instance cache lookups first,
// keyed from each item's wire form as /v1/solve keys them, then one
// core.SolveAll worker pool over the misses; only misses are built.
// Like SolveAll, a batch never fails as a whole — malformed instances
// and per-instance solve errors land in their item while the rest
// solve normally. Items are returned in input order.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := s.readBody(w, r)
	if err != nil {
		s.writeHTTPError(w, err)
		return
	}
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "parsing request: "+err.Error())
		return
	}
	if len(req.Instances) == 0 {
		s.writeError(w, http.StatusBadRequest, `request is missing "instances"`)
		return
	}
	opts, cfg, err := req.coreOptions()
	if err != nil {
		s.writeHTTPError(w, err)
		return
	}
	opts = append(opts, core.WithWorkers(s.clampWorkers(req.Workers)))

	resp := batchResponse{Items: make([]batchItemJSON, len(req.Instances))}
	keys := make([]string, len(req.Instances))
	fp := cfg.Fingerprint()
	var toSolve []int // representative item index per solve slot
	var instances []*core.Instance
	slotByKey := map[string]int{} // dedups identical instances within the batch
	dups := map[int][]int{}       // slot → additional item indices sharing its key
	for i := range req.Instances {
		item := &req.Instances[i]
		resp.Items[i].Index = i
		if item.err != nil {
			resp.Items[i].Error = item.err.Error()
			continue
		}
		hash, in, err := item.Identify()
		if err != nil {
			resp.Items[i].Error = err.Error()
			continue
		}
		keys[i] = hash + "|" + fp
		if out, ok := s.cache.Get(keys[i]); ok {
			resp.Items[i].Result = out
			resp.Items[i].Cached = true
			resp.CacheHits++
			continue
		}
		if slot, ok := slotByKey[keys[i]]; ok {
			dups[slot] = append(dups[slot], i)
			continue
		}
		if in == nil {
			if in, err = item.Build(); err != nil {
				resp.Items[i].Error = err.Error()
				continue
			}
		}
		slotByKey[keys[i]] = len(toSolve)
		toSolve = append(toSolve, i)
		instances = append(instances, in)
	}
	if len(toSolve) > 0 {
		ctx, cancel := s.solveContext(r, req.TimeoutMS)
		defer cancel()
		if err := s.acquire(ctx); err != nil {
			s.writeComputeError(w, err)
			return
		}
		defer s.release()
		tr := obs.TraceFromContext(ctx)
		var begin time.Time
		if tr != nil {
			begin = time.Now()
		}
		solved := core.SolveAll(ctx, instances, opts...)
		tr.Span("batch", begin, "solved="+strconv.Itoa(len(toSolve)))
		for j, item := range solved {
			i := toSolve[j]
			if item.Err != nil {
				msg := item.Err.Error()
				if s.solveStatus(item.Err) == http.StatusGatewayTimeout {
					msg = "timeout: " + msg
				}
				resp.Items[i].Error = msg
				for _, d := range dups[j] {
					resp.Items[d].Error = msg
				}
				continue
			}
			s.latency.observe(item.Result.Solver, item.Result.WallTime)
			out, err := core.MarshalResult(item.Result)
			if err != nil {
				resp.Items[i].Error = err.Error()
				for _, d := range dups[j] {
					resp.Items[d].Error = err.Error()
				}
				continue
			}
			s.cache.Put(keys[i], out)
			s.solved.Add(1)
			resp.Items[i].Result = out
			for _, d := range dups[j] {
				resp.Items[d].Result = out
			}
		}
	}
	writeJSON(w, resp)
}

// handleSolvers serves GET /v1/solvers with the sorted registry names.
func (s *Server) handleSolvers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string][]string{"solvers": core.SolverNames()})
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// statsJSON is the GET /stats payload. inFlight and queued are
// gauges (current slot holders and semaphore waiters); shed and
// coalesced are the admission-control counters the load harness
// scrapes before and after a replay.
type statsJSON struct {
	UptimeSeconds float64                `json:"uptimeSeconds"`
	Requests      int64                  `json:"requests"`
	Solved        int64                  `json:"solved"`
	Simulated     int64                  `json:"simulated"`
	Swept         int64                  `json:"swept"`
	Errors        int64                  `json:"errors"`
	Timeouts      int64                  `json:"timeouts"`
	InFlight      int64                  `json:"inFlight"`
	MaxInFlight   int                    `json:"maxInFlight"`
	Queued        int64                  `json:"queued"`
	MaxQueueDepth int                    `json:"maxQueueDepth"`
	Shed          int64                  `json:"shed"`
	Coalesced     int64                  `json:"coalesced"`
	Panics        int64                  `json:"panics"`
	Cache         cache.Stats            `json:"cache"`
	Jobs          jobs.Stats             `json:"jobs"`
	Latency       map[string]latencyJSON `json:"latency"`
}

// handleStats serves GET /stats with request, solve, admission, cache
// and per-solver latency-histogram counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, statsJSON{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Solved:        s.solved.Load(),
		Simulated:     s.simulated.Load(),
		Swept:         s.swept.Load(),
		Errors:        s.errors.Load(),
		Timeouts:      s.timeouts.Load(),
		InFlight:      s.inflight.Load(),
		MaxInFlight:   s.cfg.MaxInFlight,
		Queued:        s.queued.Load(),
		MaxQueueDepth: s.cfg.MaxQueueDepth,
		Shed:          s.shed.Load(),
		Coalesced:     s.coalesced.Load(),
		Panics:        s.panics.Load(),
		Cache:         s.cache.Stats(),
		Jobs:          s.jobs.Stats(),
		Latency:       s.latency.snapshot(),
	})
}
