package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"energysched/internal/core"
	"energysched/internal/listsched"
	"energysched/internal/loadgen"
	"energysched/internal/model"
	"energysched/internal/server"
	"energysched/internal/workload"
)

// Workload names, as --workload takes them.
const (
	wlSolveHot   = "solve-hot"
	wlSolveCold  = "solve-cold"
	wlCampaign   = "campaign"
	wlClusterHot = "cluster-hot"
)

var workloadNames = []string{wlSolveHot, wlSolveCold, wlCampaign, wlClusterHot}

// Input sizes. They were probed on a 2-CPU Xeon so that every request
// succeeds, the load fits the machine (no shedding, no queueing) and a
// run of 10 s or more holds at least 1 000 requests, enough for an
// exact p99 with ten samples beyond it.
const (
	// hotPoolSize distinct n=12 continuous instances are warmed into
	// the cache: far below DefaultCacheSize, so every request hits.
	hotPoolSize = 64
	// coldN is the task count of the solve-cold instances; with 5
	// speed levels, n·levels exceeds the default exact-size limit, so
	// discrete instances go to discrete-roundup.
	coldN = 16
	// coldPool distinct solve-cold instances are generated in set-up
	// and sent in turn. An instance recurs only after 8× the cache
	// capacity of other instances, long evicted by then, so every
	// request misses; the pool does not grow with the run length.
	coldPool = 8 * server.DefaultCacheSize
	// campaignN is the task count of the TRI-CRIT campaign instances.
	campaignN = 24
	// simTrials is the campaign size of each /v1/simulate request: at
	// λ0=1e-3 about 40% of trials fault and run the event heap. One
	// client then completes ~150 requests a second.
	simTrials  = 5_000
	simLambda0 = 1e-3
	// jobTrials is the size of each /v1/jobs campaign: at λ0=1e-5
	// about 99% of trials take the fault-free fast path.
	jobTrials  = 4_000_000
	jobLambda0 = 1e-5
	// jobsPerRun jobs run one after another; job_s is their median.
	jobsPerRun = 3
)

// Seed-stream indices. Every input of a run is drawn from
// loadgen.PoolSeed(seed, index); the offsets keep the streams apart.
const (
	simSeedBase = 1 << 20 // simSeed of simulate request k
	jobSeedBase = 1 << 19 // simSeed of job j
)

var (
	coldModels      = []string{"continuous", "vdd", "discrete"}
	campaignClasses = []workload.Class{workload.ClassChain, workload.ClassForkJoin, workload.ClassLayered}
)

// buildInstance is dagen's construction: a seeded class graph with a
// critical-path mapping on two processors, speeds in [0.1, 1] (or the
// XScale levels), deadline = 2 × list makespan at fmax, and, when
// lambda0 > 0, TRI-CRIT reliability constraints (d=3, frel=0.8·fmax).
func buildInstance(cls workload.Class, n int, speed string, seed int64, lambda0 float64) ([]byte, error) {
	var sm model.SpeedModel
	var err error
	switch speed {
	case "continuous":
		sm, err = model.NewContinuous(0.1, 1.0)
	case "vdd":
		sm, err = model.NewVddHopping(model.XScaleLevels())
	case "discrete":
		sm, err = model.NewDiscrete(model.XScaleLevels())
	default:
		err = fmt.Errorf("unknown speed model %q", speed)
	}
	if err != nil {
		return nil, err
	}
	g := cls.Generate(rand.New(rand.NewSource(seed)), n, workload.UniformWeights)
	ls, err := listsched.CriticalPath(g, 2)
	if err != nil {
		return nil, err
	}
	in := &core.Instance{Graph: g, Mapping: ls.Mapping, Speed: sm, Deadline: ls.Makespan / sm.FMax * 2}
	if lambda0 > 0 {
		in.Rel = &model.Reliability{Lambda0: lambda0, Sensitivity: 3, FMin: sm.FMin, FMax: sm.FMax}
		in.FRel = 0.8 * sm.FMax
	}
	return core.MarshalInstance(in)
}

// solveBody wraps instance JSON into a /v1/solve request body.
func solveBody(instance []byte) []byte {
	b := append([]byte(`{"instance":`), instance...)
	return append(b, '}')
}

// campaignBody wraps instance JSON into a /v1/simulate or /v1/jobs
// request body.
func campaignBody(instance []byte, trials int, simSeed int64) []byte {
	b := append([]byte(`{"instance":`), instance...)
	b = append(b, `,"trials":`...)
	b = strconv.AppendInt(b, int64(trials), 10)
	b = append(b, `,"simSeed":`...)
	b = strconv.AppendInt(b, simSeed, 10)
	return append(b, '}')
}

// hotInstances is the solve-hot and cluster-hot pool: loadgen's pool
// instances 0..63 over all seven classes, continuous model, n=12.
func hotInstances(seed int64) ([][]byte, error) {
	out := make([][]byte, hotPoolSize)
	for i := range out {
		inst, err := loadgen.PoolInstance(loadgen.Spec{Seed: seed, PoolSize: hotPoolSize}, i)
		if err != nil {
			return nil, err
		}
		out[i] = inst
	}
	return out, nil
}

// coldInstance is solve-cold instance i: class i mod 7 and speed model
// i mod 3, so every (class, model) pair recurs and each model serves a
// third of the requests; each index has its own seed, so no two
// instances of the pool are alike.
func coldInstance(seed int64, i int) ([]byte, error) {
	classes := workload.AllClasses()
	return buildInstance(classes[i%len(classes)], coldN, coldModels[i%len(coldModels)], loadgen.PoolSeed(seed, i), 0)
}

func coldInstances(seed int64, count int) ([][]byte, error) {
	out := make([][]byte, count)
	for i := range out {
		inst, err := coldInstance(seed, i)
		if err != nil {
			return nil, fmt.Errorf("solve-cold instance %d: %w", i, err)
		}
		out[i] = inst
	}
	return out, nil
}

// campaignInstances returns the simulate pool (chain, fork-join and
// layered at λ0=1e-3) and the job instance (layered at λ0=1e-5).
func campaignInstances(seed int64) (pool [][]byte, job []byte, err error) {
	for i, cls := range campaignClasses {
		inst, err := buildInstance(cls, campaignN, "continuous", loadgen.PoolSeed(seed, i), simLambda0)
		if err != nil {
			return nil, nil, err
		}
		pool = append(pool, inst)
	}
	job, err = buildInstance(workload.ClassLayered, campaignN, "continuous", loadgen.PoolSeed(seed, len(campaignClasses)), jobLambda0)
	return pool, job, err
}

func simSeedAt(seed int64, k int) int64 { return loadgen.PoolSeed(seed, simSeedBase+k) }
func jobSeedAt(seed int64, j int) int64 { return loadgen.PoolSeed(seed, jobSeedBase+j) }
