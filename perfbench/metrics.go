package main

// metricDef is one reported metric. Moves names the end-to-end metric
// a per-layer metric should move, and on which workload; a later
// change that claims a gain in that layer is judged there.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd are the metrics a caller or operator of the service sees,
// reported by every untraced run and gated by BENCHMARK.json. Timings
// are per request, from send to the last byte read, over the timed
// phase. The wall-clock rate and tail (wallClock) move with the CPU
// time the machine's other tenants take, so they are printed but not
// gated; the CPU cost per request is what bounds the rate.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "wall seconds of one set-up (server start, input generation, cache warm-up, campaign-pool solves), median of >= 5 over >= 1 s"},
	{"latency_p50_ms", "ms", "lower", "exact nearest-rank median of the raw per-request samples"},
	{"cpu_us_per_req", "us", "lower", "process CPU time (servers and clients) per completed request, median over 1 s windows; capacity is nproc / this"},
	{"allocs_per_req", "count", "lower", "process-wide MemStats.Mallocs delta over the timed phase per completed request"},
	{"heap_peak_mb", "MiB", "lower", "median over 1 s windows of the highest HeapInuse sampled every 10 ms"},
}

// wallClock are printed beside endToEnd but not gated.
var wallClock = []metricDef{
	{"throughput_rps", "1/s", "higher", "completed 2xx requests per wall second of the timed phase"},
	{"latency_p90_ms", "ms", "lower", "exact nearest-rank p90 of the raw per-request samples"},
	{"latency_p99_ms", "ms", "lower", "exact nearest-rank p99; every workload holds >= 1000 samples"},
}

// solverNames are the solvers the workloads' responses name: the
// default config sends n=16 discrete instances (n·levels = 80 > 64)
// to discrete-roundup.
var solverNames = []string{"continuous-convex", "vdd-lp", "discrete-roundup", "tricrit-best-of"}

// perLayer are the traced run's metrics, named after the modules. A
// layer a workload does not reach reports 0.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"client.transport_us", "us", "lower", "latency_p50_ms on solve-hot and cluster-hot"},
		{"server.handler_us", "us", "lower", "latency_p50_ms and cpu_us_per_req on solve-hot"},
		{"server.self_us", "us", "lower", "handler time the core, cache and sim passes do not explain; cpu_us_per_req on solve-hot"},
		{"server.shed", "count", "lower", "error_rate (failed / attempted); 0 on every workload"},
		{"server.timeouts", "count", "lower", "error_rate (failed / attempted); 0 on every workload"},
		{"server.coalesced", "count", "lower", "0 on every workload: admission control takes no part"},
		{"server.queued_after", "count", "lower", "0 on every workload: admission control takes no part"},
		{"core.decode_us", "us", "lower", "cpu_us_per_req and latency_p50_ms on solve-hot and cluster-hot; flat on solve-cold"},
		{"core.decode_allocs", "count", "lower", "allocs_per_req on solve-hot and cluster-hot"},
		{"core.hash_us", "us", "lower", "cpu_us_per_req on solve-hot"},
	}
	for _, s := range solverNames {
		moves := "cpu_us_per_req and latency_p50_ms on solve-cold"
		if s == "tricrit-best-of" {
			moves = "setup_s on campaign"
		}
		m = append(m,
			metricDef{"core.solve_ms." + s, "ms", "lower", moves},
			metricDef{"core.solve_count." + s, "count", "higher", "responses naming the solver in the traced phase; " + moves})
	}
	return append(m, []metricDef{
		{"core.marshal_us", "us", "lower", "cpu_us_per_req on solve-cold"},
		{"cache.get_ns", "ns", "lower", "cpu_us_per_req on solve-hot"},
		{"cache.put_ns", "ns", "lower", "cpu_us_per_req on solve-cold (puts and evictions)"},
		{"cache.hit_ratio", "ratio", "higher", ">= 0.99 on solve-hot, <= 0.01 on solve-cold"},
		{"cache.evictions", "count", "lower", "cpu_us_per_req on solve-cold"},
		{"sim.runner_us", "us", "lower", "cpu_us_per_req on campaign"},
		{"sim.trial_ns.fast", "ns", "lower", "jobs.job_s on campaign"},
		{"sim.trial_ns.heap", "ns", "lower", "cpu_us_per_req and latency_p50_ms on campaign"},
		{"sim.chunked_trial_ns", "ns", "lower", "jobs.job_s on campaign"},
		{"sim.fastpath_ratio", "ratio", "higher", "cpu_us_per_req on campaign"},
		{"sim.merge_share", "ratio", "lower", "latency_p50_ms on campaign"},
		{"sim.parallel_eff", "ratio", "higher", "latency_p50_ms on campaign"},
		{"jobs.job_s", "s", "lower", "median submit-to-done time of the campaign jobs"},
		{"jobs.checkpoint_us", "us", "lower", "jobs.job_s on campaign"},
		{"jobs.checkpoint_bytes", "bytes", "lower", "jobs.job_s on campaign"},
		{"jobs.checkpoints", "count", "lower", "jobs.job_s on campaign"},
		{"router.self_us", "us", "lower", "latency_p50_ms and cpu_us_per_req on cluster-hot"},
		{"router.failovers", "count", "lower", "0 on cluster-hot"},
		{"router.hit_ratio", "ratio", "higher", "equal to solve-hot's under affinity routing"},
		{"trace.p50_overhead_pct", "%", "lower", "traced minus untraced latency_p50_ms, as a share of the untraced"},
	}...)
}()
