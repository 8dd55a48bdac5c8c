package server

import (
	"sort"
	"time"

	"energysched/internal/hist"
	"energysched/internal/jobs"
	"energysched/internal/obs"
)

// newRegistry builds the GET /metrics registry over the exact state
// GET /stats reads: the same atomic counters, the same cache stats,
// the same hist.Atomic latency histograms. Every family carries the
// flattened /stats key it mirrors (the StatKey), which is what the
// parity test checks in both directions. The go_/obs_ families and
// the latency histogram's per-bucket detail are the only series with
// no /stats counterpart — the former by the profiling-prefix rule,
// the latter because /stats carries the identical buckets in its own
// latency block, keyed by the histogram's observation count.
func (s *Server) newRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.GaugeFunc("energyschedd_uptime_seconds", "Seconds since the server started.", "uptimeSeconds",
		func() float64 { return time.Since(s.start).Seconds() })
	r.Counter("energyschedd_requests_total", "HTTP requests accepted (all endpoints).", "requests", &s.requests)
	r.Counter("energyschedd_solved_total", "Instances solved by a solver (cache misses).", "solved", &s.solved)
	r.Counter("energyschedd_simulated_total", "Monte-Carlo campaigns executed (cache misses).", "simulated", &s.simulated)
	r.Counter("energyschedd_swept_total", "Workload-class sweeps executed (cache misses).", "swept", &s.swept)
	r.Counter("energyschedd_errors_total", "Requests answered with a 4xx/5xx status.", "errors", &s.errors)
	r.Counter("energyschedd_timeouts_total", "Solves that ran out of their deadline (caller cancellations excluded).", "timeouts", &s.timeouts)
	r.Gauge("energyschedd_inflight", "Requests currently holding a semaphore slot.", "inFlight", &s.inflight)
	r.GaugeFunc("energyschedd_inflight_max", "In-flight semaphore capacity.", "maxInFlight",
		func() float64 { return float64(s.cfg.MaxInFlight) })
	r.Gauge("energyschedd_queued", "Requests currently waiting for a slot.", "queued", &s.queued)
	r.GaugeFunc("energyschedd_queue_depth_max", "Admission-control queue capacity.", "maxQueueDepth",
		func() float64 { return float64(s.cfg.MaxQueueDepth) })
	r.Counter("energyschedd_shed_total", "Requests answered 429 by admission control.", "shed", &s.shed)
	r.Counter("energyschedd_coalesced_total", "Requests served a concurrent leader's bytes.", "coalesced", &s.coalesced)
	r.Counter("energyschedd_panics_total", "Handler panics contained by the recovery middleware.", "panics", &s.panics)

	// Campaign-job families mirror the /stats "jobs" block: live
	// lifecycle gauges plus the durability counters (checkpoints
	// written, corrupt files skipped, persistence failures, contained
	// exec panics).
	jobStat := func(name, help, key string, pick func(jobs.Stats) int64, counter bool) {
		f := func() float64 { return float64(pick(s.jobs.Stats())) }
		if counter {
			r.CounterFunc(name, help, "jobs."+key, f)
		} else {
			r.GaugeFunc(name, help, "jobs."+key, f)
		}
	}
	jobStat("energyschedd_jobs_queued", "Campaign jobs waiting for a compute slot.", "queued",
		func(st jobs.Stats) int64 { return st.Queued }, false)
	jobStat("energyschedd_jobs_running", "Campaign jobs currently computing.", "running",
		func(st jobs.Stats) int64 { return st.Running }, false)
	jobStat("energyschedd_jobs_done", "Finished campaign jobs held for polling.", "done",
		func(st jobs.Stats) int64 { return st.Done }, false)
	jobStat("energyschedd_jobs_failed", "Failed campaign jobs held for polling.", "failed",
		func(st jobs.Stats) int64 { return st.Failed }, false)
	jobStat("energyschedd_jobs_cancelled_total", "Campaign jobs cancelled via DELETE.", "cancelled",
		func(st jobs.Stats) int64 { return st.Cancelled }, true)
	jobStat("energyschedd_jobs_submitted_total", "Campaign jobs accepted (excluding dedupes).", "submitted",
		func(st jobs.Stats) int64 { return st.Submitted }, true)
	jobStat("energyschedd_jobs_deduped_total", "Submissions deduped onto an existing job.", "deduped",
		func(st jobs.Stats) int64 { return st.Deduped }, true)
	jobStat("energyschedd_jobs_resumed_total", "Jobs resumed from checkpoints after a restart.", "resumed",
		func(st jobs.Stats) int64 { return st.Resumed }, true)
	jobStat("energyschedd_jobs_checkpoints_total", "Job checkpoints written atomically.", "checkpoints",
		func(st jobs.Stats) int64 { return st.Checkpoints }, true)
	jobStat("energyschedd_jobs_corrupt_total", "Corrupt checkpoint files skipped on scan.", "corrupt",
		func(st jobs.Stats) int64 { return st.Corrupt }, true)
	jobStat("energyschedd_jobs_persist_errors_total", "Checkpoint writes that failed.", "persistErrors",
		func(st jobs.Stats) int64 { return st.PersistErrs }, true)
	jobStat("energyschedd_jobs_panics_total", "Job executions that panicked and were contained.", "panics",
		func(st jobs.Stats) int64 { return st.Panics }, true)

	r.CounterFunc("energyschedd_cache_hits_total", "Result cache hits.", "cache.hits",
		func() float64 { return float64(s.cache.Stats().Hits) })
	r.CounterFunc("energyschedd_cache_misses_total", "Result cache misses.", "cache.misses",
		func() float64 { return float64(s.cache.Stats().Misses) })
	r.CounterFunc("energyschedd_cache_evictions_total", "Result cache evictions.", "cache.evictions",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	r.GaugeFunc("energyschedd_cache_entries", "Result cache entries.", "cache.entries",
		func() float64 { return float64(s.cache.Stats().Entries) })
	r.GaugeFunc("energyschedd_cache_capacity", "Result cache capacity.", "cache.capacity",
		func() float64 { return float64(s.cache.Stats().Capacity) })

	r.HistogramVec("energyschedd_solve_duration_seconds",
		"Stage wall time by solver name (plus the simulate pseudo-solver).",
		s.latency.collect)

	obs.RegisterRuntime(r)
	obs.RegisterTracer(r, s.tracer)
	return r
}

// latencySecondsBounds is hist.LatencyBounds converted once from
// nanoseconds to the seconds /metrics speaks.
var latencySecondsBounds = func() []float64 {
	ns := hist.LatencyBounds()
	secs := make([]float64, len(ns))
	for i, b := range ns {
		secs[i] = b / 1e9
	}
	return secs
}()

// collect emits one histogram series per tracked solver, reading the
// same hist.Atomic state the /stats latency block snapshots.
func (lt *latencyTracker) collect(emit func(obs.HistSample)) {
	lt.mu.RLock()
	names := make([]string, 0, len(lt.m))
	for name := range lt.m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		count, sumNs, counts := lt.m[name].Snapshot()
		emit(obs.HistSample{
			Labels:  []obs.Label{{Key: "solver", Value: name}},
			Bounds:  latencySecondsBounds,
			Counts:  counts,
			Count:   count,
			Sum:     float64(sumNs) / 1e9,
			StatKey: "latency." + name,
		})
	}
	lt.mu.RUnlock()
}
