// The campaign engine. Trials are processed in fixed-size chunks on a
// persistent worker pool; each chunk's trial-slot array is merged — in
// trial order — into a running CampaignState, so memory is flat at any
// trial count and, with the stopping rule off, the final Campaign is
// bit-identical whatever the worker count or chunk size. Because trial
// t owns the counter-split stream (Seed, t) regardless of which
// process runs it, a campaign resumed from a serialized CampaignState
// at a chunk boundary is byte-identical to one that never stopped —
// the property internal/jobs builds crash-safe campaign jobs on.
// RunCampaign is this engine with the default chunk size and no
// stopping rule.
//
// On top of the chunk loop sits a sequential-confidence stopping
// rule: when the Wilson confidence-interval half-width on the
// observed success rate falls below Epsilon, the campaign stops and
// reports how many trials it actually ran versus how many were
// requested. At realistic reliability targets most campaigns resolve
// in a small fraction of their requested trials.
package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"energysched/internal/core"
	"energysched/internal/hist"
	"energysched/internal/schedule"
)

// DefaultChunkSize is the chunked-campaign chunk size when
// ChunkedOptions leaves it zero: large enough that per-chunk
// coordination is noise, small enough that checkpoints are frequent
// and the stopping rule reacts quickly.
const DefaultChunkSize = 4096

// DefaultMinStopTrials is the floor below which the stopping rule
// never fires: Wilson intervals on a handful of trials are honest but
// useless, and stopping a campaign on them would be noise-driven.
const DefaultMinStopTrials = 1000

// CampaignState is the merged aggregate of every completed chunk of a
// chunked campaign — everything the sequential reduction has folded
// so far, in a form that serializes to JSON and restores without
// loss. Counts are integers; the float sums round-trip exactly
// through Go's shortest-form float encoding; histograms carry raw
// bucket counters (hist.State). A campaign resumed from a restored
// CampaignState is therefore bit-identical to one that never stopped.
type CampaignState struct {
	// TrialsRun is the number of trials merged so far; on a checkpoint
	// it always sits at a chunk boundary.
	TrialsRun       int   `json:"trialsRun"`
	Successes       int   `json:"successes"`
	DeadlineMisses  int   `json:"deadlineMisses"`
	Reexecutions    int64 `json:"reexecutions"`
	Faults          int64 `json:"faults"`
	FaultFreeTrials int   `json:"faultFreeTrials"`

	SumEnergy   float64 `json:"sumEnergy"`
	MinEnergy   float64 `json:"minEnergy"`
	MaxEnergy   float64 `json:"maxEnergy"`
	SumMakespan float64 `json:"sumMakespan"`
	MinMakespan float64 `json:"minMakespan"`
	MaxMakespan float64 `json:"maxMakespan"`

	Energy   *hist.State `json:"energy"`
	Makespan *hist.State `json:"makespan"`
}

// Validate rejects states no chunked campaign could have produced —
// the cheap structural checks a checkpoint parser applies before
// trusting a file that claims to be resumable.
func (st *CampaignState) Validate() error {
	if st.TrialsRun <= 0 {
		return fmt.Errorf("sim: campaign state has %d trials run", st.TrialsRun)
	}
	if st.Successes < 0 || st.Successes > st.TrialsRun {
		return fmt.Errorf("sim: campaign state has %d successes out of %d trials", st.Successes, st.TrialsRun)
	}
	if st.DeadlineMisses < 0 || st.DeadlineMisses > st.TrialsRun {
		return fmt.Errorf("sim: campaign state has %d deadline misses out of %d trials", st.DeadlineMisses, st.TrialsRun)
	}
	if st.FaultFreeTrials < 0 || st.FaultFreeTrials > st.TrialsRun {
		return fmt.Errorf("sim: campaign state has %d fault-free trials out of %d", st.FaultFreeTrials, st.TrialsRun)
	}
	if st.Reexecutions < 0 || st.Faults < 0 {
		return fmt.Errorf("sim: campaign state has negative fault counters")
	}
	for _, v := range []float64{st.SumEnergy, st.MinEnergy, st.MaxEnergy, st.SumMakespan, st.MinMakespan, st.MaxMakespan} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sim: campaign state has non-finite summary value")
		}
	}
	if st.Energy == nil || st.Makespan == nil {
		return fmt.Errorf("sim: campaign state is missing outcome histograms")
	}
	return nil
}

// ChunkedOptions tunes one RunCampaignChunked call. Trials is
// required; every other field has a usable zero.
type ChunkedOptions struct {
	// Trials is the requested campaign size (> 0). The stopping rule
	// may finish with fewer.
	Trials int
	// Workers caps the worker pool (default GOMAXPROCS, clamped to one
	// worker per claimSize trials of a chunk, or of the whole campaign
	// when it is shorter than a chunk).
	Workers int
	// ChunkSize is the number of trials per chunk (default
	// DefaultChunkSize). Checkpoints and the stopping rule operate at
	// chunk boundaries, so it is part of a campaign's identity: the
	// same knobs with a different chunk size may stop at a different
	// trial count.
	ChunkSize int
	// Epsilon, when positive, enables the sequential-confidence
	// stopping rule: the campaign ends once the Wilson CI half-width
	// on the success rate is at most Epsilon (and at least MinTrials
	// trials ran).
	Epsilon float64
	// Confidence is the CI confidence level for the stopping rule and
	// the reported CIHalfWidth: one of 0.90, 0.95, 0.99, 0.999
	// (default 0.99).
	Confidence float64
	// MinTrials is the floor before the stopping rule may fire
	// (default DefaultMinStopTrials, clamped to Trials).
	MinTrials int
	// StartChunk resumes the campaign at this chunk index; chunks
	// [0, StartChunk) must be summarized by Resume. Zero starts fresh.
	StartChunk int
	// Resume is the merged state of the chunks before StartChunk,
	// exactly as a prior OnChunk delivered it.
	Resume *CampaignState
	// OnChunk, when set, is called after each completed chunk with the
	// index of the next chunk to run and a freshly materialized state
	// snapshot — everything a checkpoint needs. Returning an error
	// aborts the campaign with that error.
	OnChunk func(nextChunk int, st *CampaignState) error
}

// zTable maps the supported confidence levels to their two-sided
// normal quantiles. Fixed constants, so the stopping decision is
// deterministic across platforms.
var zTable = map[float64]float64{
	0.90:  1.6448536269514722,
	0.95:  1.959963984540054,
	0.99:  2.5758293035489004,
	0.999: 3.2905267314919255,
}

// ZForConfidence resolves a confidence level to its normal quantile;
// zero picks the 0.99 default. Unsupported levels are rejected rather
// than interpolated so two services can never silently disagree on a
// stopping decision.
func ZForConfidence(conf float64) (float64, error) {
	if conf == 0 {
		conf = 0.99
	}
	z, ok := zTable[conf]
	if !ok {
		return 0, fmt.Errorf("sim: unsupported confidence %v (have 0.90, 0.95, 0.99, 0.999)", conf)
	}
	return z, nil
}

// WilsonHalfWidth is the half-width of the Wilson score interval for
// s successes in n trials at normal quantile z — the stopping-rule
// statistic, exported so progress reports compute the same number the
// rule tests.
func WilsonHalfWidth(s, n int, z float64) float64 {
	if n <= 0 {
		return 1
	}
	nf := float64(n)
	p := float64(s) / nf
	z2 := z * z
	return z / (1 + z2/nf) * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
}

// chunkPool is the persistent worker pool of one campaign: goroutines
// are spawned once and woken per chunk through a shared token channel,
// so running another chunk allocates nothing — the property that keeps
// a 1M-trial campaign's allocations independent of its trial count.
// It lives in the Runner's campaignScratch and is reused by every
// campaign the Runner runs.
type chunkPool struct {
	ctx     context.Context
	runners []*Runner   // worker w runs runners[w]
	slots   []trialSlot // capacity one chunk; re-sliced per chunk
	base    int         // first trial of the current chunk
	next    atomic.Int64
	work    chan struct{} // one token per worker per chunk
	chunkWG sync.WaitGroup
	exitWG  sync.WaitGroup
}

// start launches one goroutine for each of the scratch's first workers
// runners and resets their fast-path counters.
func (p *chunkPool) start(ctx context.Context, cs *campaignScratch, workers int) {
	p.ctx = ctx
	p.runners = cs.runners[:workers]
	p.slots = cs.slots[:0]
	p.work = make(chan struct{}, workers)
	p.exitWG.Add(workers)
	for w, rn := range p.runners {
		rn.sc.fastServed = 0
		go p.worker(w)
	}
}

func (p *chunkPool) worker(w int) {
	defer p.exitWG.Done()
	for range p.work {
		p.runClaims(p.runners[w])
		p.chunkWG.Done()
	}
}

// runClaims claims claimSize-long runs of slot indices until the
// counter runs past the chunk or the context is cancelled, executing
// trial base+i into slots[i] on the runner's own trace.
func (p *chunkPool) runClaims(r *Runner) {
	tr := &r.sc.trace
	n := len(p.slots)
	for {
		lo := int(p.next.Add(claimSize)) - claimSize
		if lo >= n || p.ctx.Err() != nil {
			return
		}
		hi := min(lo+claimSize, n)
		for t := lo; t < hi; t++ {
			r.Run(p.base+t, tr)
			o := &tr.Outcome
			var flags uint8
			if o.Succeeded {
				flags |= 1
			}
			if o.DeadlineMet {
				flags |= 2
			}
			p.slots[t] = trialSlot{
				energy:   o.Energy,
				makespan: o.Makespan,
				reexec:   int32(o.Reexecutions),
				faults:   int32(o.Faults),
				flags:    flags,
			}
		}
	}
}

// runChunk executes trials [base, base+count) into p.slots[:count].
func (p *chunkPool) runChunk(base, count int) {
	p.base = base
	p.slots = p.slots[:count]
	p.next.Store(0)
	p.chunkWG.Add(len(p.runners))
	for range p.runners {
		p.work <- struct{}{}
	}
	p.chunkWG.Wait()
}

// close stops the workers and drops the campaign's context.
func (p *chunkPool) close() {
	close(p.work)
	p.exitWG.Wait()
	p.ctx = nil
}

// RunCampaignChunked executes up to opts.Trials seeded runs of the
// runner's schedule in fixed-size chunks, merging each chunk into a
// running CampaignState so memory stays flat at any trial count, and
// stopping early once the Wilson CI half-width on the success rate
// reaches opts.Epsilon. With the stopping rule off, the returned
// Campaign is bit-identical to a sequential fold of the same trials,
// whatever the worker count, chunk size or resume point — see
// chunked_test.go for the gates. Cancelling the context
// aborts between chunk claims with the context's error; no partially
// merged chunk is ever observable.
func (r *Runner) RunCampaignChunked(ctx context.Context, opts ChunkedOptions) (*Campaign, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	trials := opts.Trials
	if trials <= 0 {
		return nil, fmt.Errorf("sim: trials must be positive, got %d", trials)
	}
	cs := opts.ChunkSize
	if cs <= 0 {
		cs = DefaultChunkSize
	}
	z, err := ZForConfidence(opts.Confidence)
	if err != nil {
		return nil, err
	}
	if opts.Epsilon < 0 || opts.Epsilon >= 1 {
		return nil, fmt.Errorf("sim: epsilon must be in [0, 1), got %v", opts.Epsilon)
	}
	minTrials := opts.MinTrials
	if minTrials <= 0 {
		minTrials = DefaultMinStopTrials
	}
	if minTrials > trials {
		minTrials = trials
	}
	numChunks := (trials + cs - 1) / cs
	if opts.StartChunk < 0 || opts.StartChunk > numChunks {
		return nil, fmt.Errorf("sim: start chunk %d out of range [0, %d]", opts.StartChunk, numChunks)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	perChunk := min(trials, cs)
	if limit := (perChunk + claimSize - 1) / claimSize; workers > limit {
		workers = limit
	}
	scratch := r.campaignScratchFor(workers, perChunk)
	scratch.eHist.Reset()
	scratch.mHist.Reset()

	// The merged aggregate. Resume replays the serialized state into
	// it; a fresh campaign starts from the empty-merge identity.
	st := CampaignState{
		MinEnergy: math.Inf(1), MaxEnergy: math.Inf(-1),
		MinMakespan: math.Inf(1), MaxMakespan: math.Inf(-1),
	}
	if opts.StartChunk > 0 {
		if opts.Resume == nil {
			return nil, fmt.Errorf("sim: start chunk %d needs a resume state", opts.StartChunk)
		}
		if err := opts.Resume.Validate(); err != nil {
			return nil, err
		}
		want := opts.StartChunk * cs
		if want > trials {
			want = trials
		}
		if opts.Resume.TrialsRun != want {
			return nil, fmt.Errorf("sim: resume state has %d trials, chunk %d of size %d implies %d",
				opts.Resume.TrialsRun, opts.StartChunk, cs, want)
		}
		st = *opts.Resume
		if err := scratch.eHist.Restore(opts.Resume.Energy); err != nil {
			return nil, err
		}
		if err := scratch.mHist.Restore(opts.Resume.Makespan); err != nil {
			return nil, err
		}
	} else if opts.Resume != nil {
		return nil, fmt.Errorf("sim: resume state without a start chunk")
	}

	pool := &scratch.pool
	pool.start(ctx, scratch, workers)
	defer pool.close()

	stopEligible := func() bool {
		return opts.Epsilon > 0 && st.TrialsRun >= minTrials &&
			WilsonHalfWidth(st.Successes, st.TrialsRun, z) <= opts.Epsilon
	}

	trialsStart := time.Now()
	var mergeNs int64
	for c := opts.StartChunk; c < numChunks; c++ {
		if stopEligible() {
			break
		}
		base := c * cs
		count := cs
		if base+count > trials {
			count = trials - base
		}
		pool.runChunk(base, count)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mergeStart := time.Now()
		mergeChunk(&st, pool.slots, scratch.eHist, scratch.mHist)
		mergeNs += time.Since(mergeStart).Nanoseconds()
		if opts.OnChunk != nil {
			snap := st
			snap.Energy = scratch.eHist.State()
			snap.Makespan = scratch.mHist.State()
			if err := opts.OnChunk(c+1, &snap); err != nil {
				return nil, err
			}
		}
	}
	trialsNs := time.Since(trialsStart).Nanoseconds() - mergeNs

	if st.TrialsRun == 0 {
		return nil, fmt.Errorf("sim: campaign ran no trials")
	}
	c := &Campaign{
		Trials:          st.TrialsRun,
		TrialsRequested: trials,
		StoppedEarly:    st.TrialsRun < trials,
		CIHalfWidth:     WilsonHalfWidth(st.Successes, st.TrialsRun, z),
		Seed:            r.opts.Seed,
		Policy:          r.opts.Policy.String(),
		WorstCase:       r.opts.WorstCase,
		Successes:       st.Successes,
		SuccessRate:     float64(st.Successes) / float64(st.TrialsRun),
		DeadlineMisses:  st.DeadlineMisses,
		Reexecutions:    st.Reexecutions,
		Faults:          st.Faults,
		FaultFreeTrials: st.FaultFreeTrials,
		FaultFreeRate:   float64(st.FaultFreeTrials) / float64(st.TrialsRun),
		Energy: Summary{
			Mean: st.SumEnergy / float64(st.TrialsRun),
			Min:  st.MinEnergy, Max: st.MaxEnergy,
		},
		Makespan: Summary{
			Mean: st.SumMakespan / float64(st.TrialsRun),
			Min:  st.MinMakespan, Max: st.MaxMakespan,
		},
		EnergyHist:   scratch.eHist.JSON(),
		MakespanHist: scratch.mHist.JSON(),
		Predicted:    r.Predict(),
	}
	var fastServed int64
	for _, rn := range pool.runners {
		fastServed += rn.sc.fastServed
	}
	c.Profile = CampaignProfile{
		TrialsNs:       trialsNs,
		MergeNs:        mergeNs,
		FastPathTrials: fastServed,
		HeapTrials:     int64(st.TrialsRun-chunkResumeTrials(opts)) - fastServed,
		Workers:        workers,
	}
	return c, nil
}

// chunkResumeTrials is how many of the campaign's trials were already
// merged before this process ran any — they contribute to the state
// but not to this run's fast-path/sweep accounting.
func chunkResumeTrials(opts ChunkedOptions) int {
	if opts.Resume == nil {
		return 0
	}
	return opts.Resume.TrialsRun
}

// mergeChunk folds one chunk's trial slots — in slot order, which is
// trial order — into the running state: the campaign's one reduction.
func mergeChunk(st *CampaignState, slots []trialSlot, eHist, mHist *hist.Histogram) {
	for i := range slots {
		slot := &slots[i]
		st.SumEnergy += slot.energy
		st.SumMakespan += slot.makespan
		eHist.Observe(slot.energy)
		mHist.Observe(slot.makespan)
		if slot.energy < st.MinEnergy {
			st.MinEnergy = slot.energy
		}
		if slot.energy > st.MaxEnergy {
			st.MaxEnergy = slot.energy
		}
		if slot.makespan < st.MinMakespan {
			st.MinMakespan = slot.makespan
		}
		if slot.makespan > st.MaxMakespan {
			st.MaxMakespan = slot.makespan
		}
		st.Reexecutions += int64(slot.reexec)
		st.Faults += int64(slot.faults)
		if slot.faults == 0 {
			st.FaultFreeTrials++
		}
		if slot.flags&1 != 0 {
			st.Successes++
		}
		if slot.flags&2 == 0 {
			st.DeadlineMisses++
		}
	}
	st.TrialsRun += len(slots)
}

// RunCampaignChunked validates the (instance, schedule) pairing,
// builds a Runner under opts and executes a chunked campaign; see
// Runner.RunCampaignChunked. Callers running many campaigns on one
// pairing should hold a Runner and call its method directly.
func RunCampaignChunked(ctx context.Context, in *core.Instance, s *schedule.Schedule, opts CampaignOptions, chunked ChunkedOptions) (*Campaign, error) {
	base, err := NewRunner(in, s, Options{
		Policy:        opts.Policy,
		Seed:          opts.Seed,
		WorstCase:     opts.WorstCase,
		DisableFaults: opts.DisableFaults,
	})
	if err != nil {
		return nil, err
	}
	if chunked.Trials == 0 {
		chunked.Trials = opts.Trials
	}
	if chunked.Workers == 0 {
		chunked.Workers = opts.Workers
	}
	return base.RunCampaignChunked(ctx, chunked)
}
