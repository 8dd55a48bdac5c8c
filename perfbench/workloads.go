package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"energysched/internal/cache"
	"energysched/internal/client"
	"energysched/internal/core"
	"energysched/internal/jobs"
	"energysched/internal/router"
	"energysched/internal/server"
	"energysched/internal/sim"
)

// buildDir is where a run keeps its scratch state (campaign job
// checkpoints, the written-out spans), inside the checkout it runs in.
const buildDir = ".bench_build"

// coldSample is how many solve-cold responses are re-solved directly
// after the timed phase: every (class, model) pair once.
const coldSample = 21

// bench is one workload, set up and ready to run: its servers, the
// client the closed loop sends through, and the inputs the checks and
// the direct layer passes reuse.
type bench struct {
	name    string
	seed    int64
	rec     *recorder
	cl      *client.Client
	closers []func()
	path    string
	clients int
	next    func(k int) request

	// instances are the instance JSON documents the requests carry;
	// request k carries instances[k % len(instances)].
	instances [][]byte
	stateDir  string

	// solve-cold: energies of the first coldSample responses.
	coldEnergy []float64
	// campaign: the first simulate response of each pool instance, and
	// the job instance.
	simSampled [][]byte
	jobInst    []byte
}

func (b *bench) close() {
	for i := len(b.closers) - 1; i >= 0; i-- {
		b.closers[i]()
	}
}

// serve starts h on a loopback listener and registers its shutdown.
func (b *bench) serve(h http.Handler) *httptest.Server {
	ts := httptest.NewServer(h)
	b.closers = append(b.closers, ts.Close)
	return ts
}

// post sends one set-up request and requires a 2xx reply.
func (b *bench) post(path string, body []byte) ([]byte, error) {
	resp, err := b.cl.Post(context.Background(), path, body)
	if err != nil {
		return nil, err
	}
	if resp.Status/100 != 2 {
		return nil, fmt.Errorf("set-up %s: status %d: %s", path, resp.Status, firstLine(resp.Body))
	}
	return resp.Body, nil
}

// setup starts the servers of workload name and builds its inputs
// from seed. Spans go to rec, nil for an untraced run. The servers get
// the default Config energyschedd ships (campaign adds a state dir, so
// jobs checkpoint to disk).
func setup(name string, seed int64, rec *recorder) (*bench, error) {
	b := &bench{name: name, seed: seed, rec: rec, path: "/v1/solve", clients: 2}
	if err := b.start(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *bench) start() error {
	var err error
	switch b.name {
	case wlSolveHot, wlSolveCold:
		err = b.connect(b.serve(b.rec.wrap(layerServer, server.New(server.Config{}).Handler())).URL)
	case wlClusterHot:
		err = b.startCluster(3)
	case wlCampaign:
		if b.stateDir, err = makeStateDir(); err != nil {
			return err
		}
		dir := b.stateDir
		b.closers = append(b.closers, func() { os.RemoveAll(dir) })
		err = b.connect(b.serve(b.rec.wrap(layerServer, server.New(server.Config{StateDir: dir}).Handler())).URL)
	default:
		err = fmt.Errorf("unknown workload %q (have %v)", b.name, workloadNames)
	}
	if err != nil {
		return err
	}
	switch b.name {
	case wlSolveHot:
		return b.prepareHot(nil)
	case wlClusterHot:
		return b.prepareClusterHot()
	case wlSolveCold:
		return b.prepareCold()
	default:
		return b.prepareCampaign()
	}
}

func makeStateDir() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir, "state-")
}

func (b *bench) connect(url string) error {
	cl, closeConns, err := newClient(url, b.clients+1)
	if err != nil {
		return err
	}
	b.cl = cl
	b.closers = append(b.closers, closeConns)
	return nil
}

// startCluster is the topology router.NewTestCluster builds, assembled
// here so each handler can carry a span: n default backends behind an
// affinity router, all on loopback listeners. Hedging is off (as with
// energyrouter -no-hedging): its delay is at least 10 ms, so on a
// shared host a scheduling stall would send a second leg to a backend
// that does not own the key, which misses its cache and starts a
// solve; when the owner answers first that solve is cancelled and the
// backend counts it as a timeout. Every request thus takes one leg to
// its owner, and the workload measures the router hop alone.
func (b *bench) startCluster(n int) error {
	urls := make([]string, n)
	for i := range urls {
		srv := server.New(server.Config{})
		urls[i] = b.serve(b.rec.wrap(layerServer, srv.Handler())).URL
	}
	rt, err := router.New(router.Config{Backends: urls, Policy: router.PolicyAffinity, DisableHedging: true})
	if err != nil {
		return err
	}
	return b.connect(b.serve(b.rec.wrap(layerRouter, rt.Handler())).URL)
}

// prepareHot builds the 64-instance pool and warms it: the warm-up
// responses are what every later hit must return byte for byte, or,
// when stripped (the single-node answers, wallTimeMs removed) is set,
// what every later response must equal modulo wallTimeMs.
func (b *bench) prepareHot(stripped [][]byte) error {
	insts, err := hotInstances(b.seed)
	if err != nil {
		return err
	}
	b.instances = insts
	bodies := make([][]byte, len(insts))
	warm := make([][]byte, len(insts))
	for i, inst := range insts {
		bodies[i] = solveBody(inst)
		if warm[i], err = b.post("/v1/solve", bodies[i]); err != nil {
			return err
		}
		if stripped != nil {
			if err := checkModuloWallTime(warm[i], stripped[i]); err != nil {
				return fmt.Errorf("warm-up %d: %w", i, err)
			}
		}
	}
	b.next = func(k int) request {
		i := k % len(bodies)
		if stripped != nil {
			return request{bodies[i], func(resp []byte) error { return checkModuloWallTime(resp, stripped[i]) }}
		}
		return request{bodies[i], func(resp []byte) error { return checkSame(resp, warm[i]) }}
	}
	return nil
}

// prepareClusterHot solves the pool on a separate single node first:
// its answers, wallTimeMs removed, are what the cluster must return.
func (b *bench) prepareClusterHot() error {
	insts, err := hotInstances(b.seed)
	if err != nil {
		return err
	}
	h := server.New(server.Config{}).Handler()
	stripped := make([][]byte, len(insts))
	for i, inst := range insts {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(solveBody(inst))))
		if w.Code != http.StatusOK {
			return fmt.Errorf("single-node solve %d: status %d", i, w.Code)
		}
		stripped[i] = stripWallTime(w.Body.Bytes())
	}
	return b.prepareHot(stripped)
}

// prepareCold generates the solve-cold pool; each response must
// rebuild against its instance with a finite energy at or above its
// lower bound.
func (b *bench) prepareCold() error {
	insts, err := coldInstances(b.seed, coldPool)
	if err != nil {
		return err
	}
	b.instances = insts
	b.coldEnergy = make([]float64, coldSample)
	b.next = func(k int) request {
		inst := insts[k%len(insts)]
		return request{solveBody(inst), func(resp []byte) error {
			in, err := core.UnmarshalInstance(inst)
			if err != nil {
				return err
			}
			res, err := checkSolved(resp, in)
			if err != nil {
				return err
			}
			if k < coldSample {
				b.coldEnergy[k] = res.Energy // each k is written by one client only
			}
			return nil
		}}
	}
	return nil
}

// prepareCampaign solves the TRI-CRIT pool and the job instance
// through /v1/solve, so every simulate and job request finds its
// schedule cached and spends its time in the simulator.
func (b *bench) prepareCampaign() error {
	pool, job, err := campaignInstances(b.seed)
	if err != nil {
		return err
	}
	b.instances, b.jobInst = pool, job
	b.clients = 1
	b.path = "/v1/simulate"
	for _, inst := range append([][]byte{job}, pool...) {
		if _, err := b.post("/v1/solve", solveBody(inst)); err != nil {
			return err
		}
	}
	b.simSampled = make([][]byte, len(pool))
	b.next = func(k int) request {
		seed := simSeedAt(b.seed, k)
		return request{campaignBody(pool[k%len(pool)], simTrials, seed), func(resp []byte) error {
			if k < len(b.simSampled) {
				b.simSampled[k] = append([]byte(nil), resp...)
			}
			return checkCampaignHeader(resp, simTrials, seed)
		}}
	}
	return nil
}

// statsSnap is the subset of GET /stats (a server's, or the router's
// aggregate) the guards and per-layer metrics read.
type statsSnap struct {
	Shed       int64       `json:"shed"`
	Timeouts   int64       `json:"timeouts"`
	Coalesced  int64       `json:"coalesced"`
	Queued     int64       `json:"queued"`
	Cache      cache.Stats `json:"cache"`
	Jobs       jobs.Stats  `json:"jobs"`
	Resilience struct {
		Failovers int64 `json:"failovers"`
	} `json:"resilience"`
}

func (b *bench) stats() (statsSnap, error) {
	var s statsSnap
	err := b.cl.GetJSON(context.Background(), "/stats", &s)
	return s, err
}

// phaseResult is one timed phase: the closed loop, the /stats around
// it, and on campaign the jobs that follow it.
type phaseResult struct {
	load          *loadResult
	before, after statsSnap
	jobS          []float64
	jobIDs        []string
	jobBody       []byte // the first job's finished document
	jobStats      statsSnap
}

// run measures one timed phase of dur, then, on campaign, the jobs.
func (b *bench) run(dur time.Duration) (*phaseResult, error) {
	ph := &phaseResult{}
	var err error
	if ph.before, err = b.stats(); err != nil {
		return nil, err
	}
	ph.load = closedLoop(b.cl, b.path, b.clients, dur, b.rec, b.next)
	if ph.after, err = b.stats(); err != nil {
		return nil, err
	}
	if b.name != wlCampaign {
		return ph, nil
	}
	for j := 0; j < jobsPerRun; j++ {
		id, secs, body, err := b.runJob(campaignBody(b.jobInst, jobTrials, jobSeedAt(b.seed, j)))
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", j, err)
		}
		ph.jobS = append(ph.jobS, secs)
		ph.jobIDs = append(ph.jobIDs, id)
		if j == 0 {
			ph.jobBody = body
		}
	}
	ph.jobStats, err = b.stats()
	return ph, err
}

// runJob submits one job and polls it every 2 ms until it is done; it
// returns the job's ID, the seconds from submit to the 200, and the
// finished document. client.PollJob is not used: it follows the
// ≥1 s Retry-After hint, which would round every time up to seconds.
func (b *bench) runJob(body []byte) (string, float64, []byte, error) {
	ctx := context.Background()
	t0 := time.Now()
	resp, err := b.cl.Post(ctx, "/v1/jobs", body)
	if err != nil {
		return "", 0, nil, err
	}
	if resp.Status != http.StatusAccepted {
		return "", 0, nil, fmt.Errorf("submit: status %d: %s", resp.Status, firstLine(resp.Body))
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp.Body, &sub); err != nil || sub.ID == "" {
		return "", 0, nil, fmt.Errorf("submit: no job ID in %s", firstLine(resp.Body))
	}
	for {
		resp, err := b.cl.Get(ctx, "/v1/jobs/"+sub.ID)
		if err != nil {
			return "", 0, nil, err
		}
		switch resp.Status {
		case http.StatusOK:
			return sub.ID, time.Since(t0).Seconds(), resp.Body, nil
		case http.StatusAccepted:
			time.Sleep(2 * time.Millisecond)
		default:
			return "", 0, nil, fmt.Errorf("poll: status %d: %s", resp.Status, firstLine(resp.Body))
		}
	}
}

// verify runs the checks that re-compute answers outside the timed
// phase and returns one error per wrong answer.
func (b *bench) verify(ph *phaseResult) []error {
	var errs []error
	ctx := context.Background()
	switch b.name {
	case wlSolveCold:
		for k := 0; k < min(coldSample, ph.load.attempted); k++ {
			in, err := core.UnmarshalInstance(b.instances[k])
			if err == nil {
				var res *core.Result
				if res, err = core.Solve(ctx, in); err == nil {
					err = sameEnergy(b.coldEnergy[k], res.Energy)
				}
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("solve-cold request %d re-solved: %w", k, err))
			}
		}
	case wlCampaign:
		for k, body := range b.simSampled {
			if body == nil {
				continue
			}
			err := b.checkDirect(body, b.instances[k], func(in *core.Instance, res *core.Result) (*sim.Campaign, error) {
				return sim.RunCampaign(ctx, in, res.Schedule, sim.CampaignOptions{Trials: simTrials, Seed: simSeedAt(b.seed, k)})
			})
			if err != nil {
				errs = append(errs, fmt.Errorf("simulate request %d: %w", k, err))
			}
		}
		err := b.checkDirect(ph.jobBody, b.jobInst, func(in *core.Instance, res *core.Result) (*sim.Campaign, error) {
			return sim.RunCampaignChunked(ctx, in, res.Schedule, sim.CampaignOptions{Seed: jobSeedAt(b.seed, 0)},
				sim.ChunkedOptions{Trials: jobTrials, ChunkSize: sim.DefaultChunkSize})
		})
		if err != nil {
			errs = append(errs, fmt.Errorf("job 0: %w", err))
		}
	}
	return errs
}

// checkDirect solves inst directly, runs the campaign direct builds on
// that schedule, and requires body's campaign block to equal it byte
// for byte.
func (b *bench) checkDirect(body, inst []byte, direct func(*core.Instance, *core.Result) (*sim.Campaign, error)) error {
	if body == nil {
		return errors.New("no response to check")
	}
	in, err := core.UnmarshalInstance(inst)
	if err != nil {
		return err
	}
	res, err := core.Solve(context.Background(), in)
	if err != nil {
		return err
	}
	camp, err := direct(in, res)
	if err != nil {
		return err
	}
	return checkCampaignBlock(body, camp)
}

// guards returns why the phase did not measure the regime its
// workload names, if it did not.
func (b *bench) guards(ph *phaseResult) []string {
	var bad []string
	d := func(f func(s statsSnap) int64) int64 { return f(ph.after) - f(ph.before) }
	if n := d(func(s statsSnap) int64 { return s.Shed }); n != 0 {
		bad = append(bad, fmt.Sprintf("%d requests were shed", n))
	}
	if n := d(func(s statsSnap) int64 { return s.Timeouts }); n != 0 {
		bad = append(bad, fmt.Sprintf("%d solves timed out", n))
	}
	hit := hitRatio(ph)
	switch b.name {
	case wlSolveHot:
		if hit < 0.99 {
			bad = append(bad, fmt.Sprintf("cache hit ratio %.4f is below 0.99", hit))
		}
	case wlSolveCold:
		if hit > 0.01 {
			bad = append(bad, fmt.Sprintf("cache hit ratio %.4f is above 0.01", hit))
		}
	case wlClusterHot:
		if n := d(func(s statsSnap) int64 { return s.Resilience.Failovers }); n != 0 {
			bad = append(bad, fmt.Sprintf("the router failed over %d times", n))
		}
	}
	return bad
}

func hitRatio(ph *phaseResult) float64 {
	hits := float64(ph.after.Cache.Hits - ph.before.Cache.Hits)
	misses := float64(ph.after.Cache.Misses - ph.before.Cache.Misses)
	return ratio(hits, hits+misses)
}
