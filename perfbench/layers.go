package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"energysched/internal/cache"
	"energysched/internal/core"
	"energysched/internal/jobs"
	"energysched/internal/server"
	"energysched/internal/sim"
)

// passBudget is roughly how long each timed loop of a direct pass
// repeats its inputs.
const passBudget = 300 * time.Millisecond

// repeatFor calls f (one pass over n inputs) until passBudget has
// passed, at least once, and returns the mean time per input and the
// mean heap allocations per input. It stops at f's first error.
func repeatFor(n int, f func() error) (perItem time.Duration, allocs float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	passes := 0
	for passes == 0 || time.Since(start) < passBudget {
		if err := f(); err != nil {
			return 0, 0, err
		}
		passes++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	items := float64(passes * n)
	return time.Duration(float64(elapsed) / items), float64(after.Mallocs-before.Mallocs) / items, nil
}

// pathCounts is how often one request of a workload runs each step of
// the server's handler, from the handler code: a hit is one cache Get;
// a cold solve is two Gets (response key, then solve key), one solve,
// one marshal and two Puts; a simulate is two Gets (the simulate key
// misses, the solve key hits), one campaign and one Put.
type pathCounts struct{ gets, puts, solves, campaigns float64 }

var workloadPath = map[string]pathCounts{
	wlSolveHot:   {gets: 1},
	wlClusterHot: {gets: 1},
	wlSolveCold:  {gets: 2, puts: 2, solves: 1},
	wlCampaign:   {gets: 2, puts: 1, campaigns: 1},
}

// layerPasses times each layer's public functions directly on the
// workload's own inputs, outside the servers, and fills the per-layer
// metrics they give. traced is the traced phase, untraced the untraced
// phase of the same run.
func (b *bench) layerPasses(traced, untraced *phaseResult) (map[string]float64, error) {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	ctx := context.Background()

	// core: decode, hash, solve and marshal every instance the
	// workload sends (solve-cold: the first solveSample of them).
	insts := b.instances
	if b.jobInst != nil {
		insts = append(append([][]byte(nil), insts...), b.jobInst)
	}
	const solveSample = 63 // three of every (class, model) pair on solve-cold
	insts = insts[:min(len(insts), solveSample)]
	parsed := make([]*core.Instance, len(insts))
	decode, decodeAllocs, err := repeatFor(len(insts), func() (err error) {
		for i, raw := range insts {
			if parsed[i], err = core.UnmarshalInstance(raw); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode pass: %w", err)
	}
	m["core.decode_us"] = us(decode)
	m["core.decode_allocs"] = decodeAllocs
	cfg, err := core.NewConfig()
	if err != nil {
		return nil, err
	}
	var keys []string
	hash, _, _ := repeatFor(len(parsed), func() error {
		keys = keys[:0]
		for _, in := range parsed {
			keys = append(keys, in.Hash()+"|"+cfg.Fingerprint())
		}
		return nil
	})
	m["core.hash_us"] = us(hash)

	solveMS := map[string][]float64{}
	results := make([]*core.Result, len(parsed))
	for i, in := range parsed {
		t0 := time.Now()
		res, err := core.Solve(ctx, in)
		if err != nil {
			return nil, fmt.Errorf("direct solve %d: %w", i, err)
		}
		solveMS[res.Solver] = append(solveMS[res.Solver], float64(time.Since(t0))/1e6)
		results[i] = res
	}
	var allSolveMS []float64
	for _, s := range solverNames {
		m["core.solve_ms."+s] = mean(solveMS[s])
		m["core.solve_count."+s] = float64(traced.load.solvers[s])
		allSolveMS = append(allSolveMS, solveMS[s]...)
	}
	marshal, _, err := repeatFor(len(results), func() error {
		for _, res := range results {
			if _, err := core.MarshalResult(res); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("marshal pass: %w", err)
	}
	m["core.marshal_us"] = us(marshal)

	// cache: replay the traced phase's key sequence into a cache of the
	// server's capacity, all Puts first, then all Gets.
	seq := b.keySequence(keys, traced.load.attempted)
	val := []byte("{}")
	c := cache.New[[]byte](server.DefaultCacheSize)
	t0 := time.Now()
	for _, k := range seq {
		c.Put(k, val)
	}
	putNS := float64(time.Since(t0)) / float64(max(1, len(seq)))
	t0 = time.Now()
	for _, k := range seq {
		c.Get(k)
	}
	getNS := float64(time.Since(t0)) / float64(max(1, len(seq)))
	m["cache.get_ns"], m["cache.put_ns"] = getNS, putNS
	m["cache.hit_ratio"] = hitRatio(traced)
	m["cache.evictions"] = float64(traced.after.Cache.Evictions - traced.before.Cache.Evictions)

	// server: the /stats deltas, the handler span and what of it the
	// passes above do not explain.
	m["server.shed"] = float64(traced.after.Shed - traced.before.Shed)
	m["server.timeouts"] = float64(traced.after.Timeouts - traced.before.Timeouts)
	m["server.coalesced"] = float64(traced.after.Coalesced - traced.before.Coalesced)
	m["server.queued_after"] = float64(traced.after.Queued)
	st := b.rec.selfTimes()
	m["server.handler_us"] = st.handlerUS
	m["client.transport_us"] = st.clientSelf
	pc := workloadPath[b.name]
	path := m["core.decode_us"] + m["core.hash_us"] + (pc.gets*getNS+pc.puts*putNS)/1e3 +
		pc.solves*(mean(allSolveMS)*1e3+m["core.marshal_us"])

	if b.name == wlCampaign {
		campaignUS, err := b.simPasses(ctx, m, parsed, results)
		if err != nil {
			return nil, err
		}
		path += pc.campaigns * campaignUS
		if err := b.jobPasses(m, traced, untraced); err != nil {
			return nil, err
		}
	}
	m["server.self_us"] = m["server.handler_us"] - path

	if b.name == wlClusterHot {
		m["router.self_us"] = st.routerSelf
		d := func(f func(s statsSnap) int64) float64 { return float64(f(traced.after) - f(traced.before)) }
		m["router.failovers"] = d(func(s statsSnap) int64 { return s.Resilience.Failovers })
		m["router.hit_ratio"] = m["cache.hit_ratio"]
	}
	u, t := percentile(untraced.load.latMS, 0.5), percentile(traced.load.latMS, 0.5)
	m["trace.p50_overhead_pct"] = 100 * (t - u) / u
	return m, nil
}

// keySequence is the cache key of each of the phase's n requests, in
// order; keys holds the solve key of each instance. A simulate request
// is cached under its solve key plus the campaign knobs.
func (b *bench) keySequence(keys []string, n int) []string {
	seq := make([]string, n)
	for k := range seq {
		switch b.name {
		case wlSolveCold:
			if i := k % coldPool; i < len(keys) {
				seq[k] = keys[i]
			} else {
				// Distinct like the pool instances beyond the sample,
				// and of about a real key's length.
				seq[k] = keys[i%len(keys)] + "#" + strconv.Itoa(i)
			}
		case wlCampaign:
			seq[k] = fmt.Sprintf("%s|sim|t=%d,s=%d,p=%s,wc=%t",
				keys[k%len(b.instances)], simTrials, simSeedAt(b.seed, k), sim.PolicySameSpeed, false)
		default:
			seq[k] = keys[k%len(keys)]
		}
	}
	return seq
}

// simPasses times the sim layer on the campaign instances: the simulate
// pool on the heap-heavy path with one and two workers, the job
// instance on the fast path, unchunked and chunked. It returns the
// mean campaign time of one simulate request as the server runs it, in
// µs.
func (b *bench) simPasses(ctx context.Context, m map[string]float64, parsed []*core.Instance, results []*core.Result) (float64, error) {
	pool := len(b.instances)
	runners := make([]*sim.Runner, len(parsed))
	runner, _, err := repeatFor(len(parsed), func() (err error) {
		for i, in := range parsed {
			if runners[i], err = sim.NewRunner(in, results[i].Schedule, sim.Options{Seed: b.seed}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("runner pass: %w", err)
	}
	m["sim.runner_us"] = us(runner)

	simPool := runners[:pool]
	var fast, trialsNS, mergeNS int64
	campaigns := func(workers int) (time.Duration, error) {
		perCampaign, _, err := repeatFor(pool, func() error {
			fast, trialsNS, mergeNS = 0, 0, 0
			for _, r := range simPool {
				camp, err := r.RunCampaign(ctx, simTrials, workers)
				if err != nil {
					return err
				}
				fast += camp.Profile.FastPathTrials
				trialsNS += camp.Profile.TrialsNs
				mergeNS += camp.Profile.MergeNs
			}
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("%d-worker campaign pass: %w", workers, err)
		}
		return perCampaign, nil
	}
	w2, err := campaigns(2)
	if err != nil {
		return 0, err
	}
	w1, err := campaigns(1) // last, so the profile sums are the one-worker ones
	if err != nil {
		return 0, err
	}
	heapNS := float64(w1) / simTrials
	m["sim.trial_ns.heap"] = heapNS
	m["sim.fastpath_ratio"] = ratio(float64(fast), float64(pool*simTrials))
	m["sim.merge_share"] = ratio(float64(mergeNS), float64(trialsNS+mergeNS))
	m["sim.parallel_eff"] = ratio(heapNS, 2*float64(w2)/simTrials)

	// The server builds a fresh runner for every simulate request and
	// runs it on all its workers: that is the campaign's share of the
	// handler.
	served, _, err := repeatFor(pool, func() error {
		for i := range simPool {
			if _, err := sim.RunCampaign(ctx, parsed[i], results[i].Schedule, sim.CampaignOptions{Trials: simTrials, Seed: b.seed}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("served campaign pass: %w", err)
	}

	const fastTrials = 400_000
	job := runners[pool]
	t0 := time.Now()
	if _, err := job.RunCampaign(ctx, fastTrials, 1); err != nil {
		return 0, err
	}
	m["sim.trial_ns.fast"] = float64(time.Since(t0)) / fastTrials
	t0 = time.Now()
	if _, err := job.RunCampaignChunked(ctx, sim.ChunkedOptions{Trials: fastTrials, Workers: 1}); err != nil {
		return 0, err
	}
	m["sim.chunked_trial_ns"] = float64(time.Since(t0)) / fastTrials
	return us(served), nil
}

// jobPasses times jobs.WriteAtomic on the final checkpoint of the
// traced phase's first job, and reads the job numbers of the untraced
// phase.
func (b *bench) jobPasses(m map[string]float64, traced, ph *phaseResult) error {
	data, err := os.ReadFile(b.checkpointPath(traced.jobIDs[0]))
	if err != nil {
		return fmt.Errorf("reading the job checkpoint: %w", err)
	}
	probe := filepath.Join(b.stateDir, "probe.ckpt")
	const writes = 20
	t0 := time.Now()
	for i := 0; i < writes; i++ {
		if err := jobs.WriteAtomic(probe, data); err != nil {
			return err
		}
	}
	m["jobs.checkpoint_us"] = us(time.Since(t0)) / writes
	m["jobs.checkpoint_bytes"] = float64(len(data))
	m["jobs.checkpoints"] = float64(ph.jobStats.Jobs.Checkpoints-ph.after.Jobs.Checkpoints) / float64(len(ph.jobS))
	m["jobs.job_s"] = median(ph.jobS)
	return nil
}

// checkpointPath is where the server's job manager keeps job id's
// checkpoint.
func (b *bench) checkpointPath(id string) string {
	return (&jobs.Checkpoint{ID: id}).Path(b.stateDir)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
