// Campaign results and entry points: Monte-Carlo outcome
// distributions over many seeded trials of one (instance, schedule)
// pair. Every campaign runs on the chunked engine (chunked.go): a
// worker pool fills per-trial slots one chunk at a time and a single
// sequential pass in trial order does every floating-point reduction
// (summaries and the energy/makespan outcome histograms alike), so the
// aggregate is bit-identical whatever the worker count — like
// core.SolveAll. RunCampaign is the fixed-size call into that engine:
// no stopping rule, no checkpoints.
//
// The inner loop is built around the fault-free fast path (see
// Runner.Run): at the reliability targets the paper studies the
// overwhelming majority of trials draw zero faults, replay the
// deterministic fault-free schedule, and therefore cost only the
// occurrence-uniform draws — only the faulty minority is executed, by
// the sweep over the constraint graph. Worker Runners are
// Clones sharing the immutable per-attempt tables, their scratch
// carved from line-padded slabs, and the whole campaign state is
// retained on the base Runner, so repeated campaigns run with
// near-zero steady-state allocation.
package sim

import (
	"context"

	"energysched/internal/core"
	"energysched/internal/hist"
	"energysched/internal/schedule"
)

// claimSize is the number of consecutive trials a worker claims at
// once: large enough to amortize the atomic claim, small enough to
// balance tail latency.
const claimSize = 64

// MaxCampaignTrials caps the campaign size a single request may ask
// for — shared by cmd/energysim's -trials validation and the
// service's default MaxTrials, so the CLI and the daemon enforce the
// same ceiling.
const MaxCampaignTrials = 200_000

// MaxJobCampaignTrials caps the campaign size an asynchronous job may
// ask for. Jobs run chunked with flat memory and survive restarts, so
// their ceiling is set by patience, not RAM — 25× the synchronous
// in-request cap. Shared by the service's job endpoint and
// cmd/energysim -job validation.
const MaxJobCampaignTrials = 5_000_000

// CampaignOptions tunes RunCampaign.
type CampaignOptions struct {
	// Trials is the number of simulated runs (required, > 0).
	Trials int
	// Seed addresses the fault streams: trial t draws from
	// rng.At(Seed, t) regardless of worker count.
	Seed int64
	// Policy is the recovery policy (default PolicySameSpeed).
	Policy Policy
	// WorstCase replays every scheduled execution (see Options).
	WorstCase bool
	// DisableFaults turns the injector off for every trial.
	DisableFaults bool
	// Workers caps the worker pool (default GOMAXPROCS).
	Workers int
}

// Summary condenses one observed metric across the campaign.
type Summary struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// Campaign is the aggregate of a RunCampaign call, JSON-ready for the
// CLI and the service.
type Campaign struct {
	Trials int `json:"trials"`
	// TrialsRequested is the campaign size the caller asked for; it
	// differs from Trials only when the sequential-confidence stopping
	// rule finished the campaign with fewer trials than requested.
	TrialsRequested int `json:"trialsRequested,omitempty"`
	// StoppedEarly marks a campaign ended by the stopping rule before
	// TrialsRequested trials ran.
	StoppedEarly bool `json:"stoppedEarly,omitempty"`
	// CIHalfWidth is the Wilson confidence-interval half-width on the
	// success rate at the campaign's confidence level (default 0.99):
	// the quantity the stopping rule drives below epsilon.
	CIHalfWidth    float64 `json:"ciHalfWidth,omitempty"`
	Seed           int64   `json:"seed"`
	Policy         string  `json:"policy"`
	WorstCase      bool    `json:"worstCase,omitempty"`
	Successes      int     `json:"successes"`
	SuccessRate    float64 `json:"successRate"`
	DeadlineMisses int     `json:"deadlineMisses"`
	Reexecutions   int64   `json:"reexecutions"`
	Faults         int64   `json:"faults"`
	// FaultFreeTrials counts trials in which no execution attempt
	// faulted — exactly the trials the fast path can serve. The count
	// is derived from the merged outcomes, so it is identical whether
	// the fast path or the sweep served each trial.
	FaultFreeTrials int `json:"faultFreeTrials"`
	// FaultFreeRate is FaultFreeTrials over Trials: the fast-path hit
	// rate of the campaign.
	FaultFreeRate float64 `json:"faultFreeRate"`
	Energy        Summary `json:"energy"`
	Makespan      Summary `json:"makespan"`
	// EnergyHist and MakespanHist are log-bucket histograms of the
	// observed outcome distributions (scale-free geometric grid,
	// conservative p50/p99), streamed by the deterministic merge.
	EnergyHist   *hist.JSON `json:"energyHistogram"`
	MakespanHist *hist.JSON `json:"makespanHistogram"`
	// Predicted is the closed-form counterpart of the observed
	// distribution, for predicted-vs-observed reporting.
	Predicted Prediction `json:"predicted"`
	// Profile carries the campaign's per-phase wall-clock timing. It is
	// excluded from the Campaign's own JSON — the marshalled Campaign is
	// deterministic in (instance, options) and equivalence-tested
	// byte-for-byte across fast-path and worker-count settings, which
	// wall time would break — and surfaced instead as a sibling field by
	// /v1/simulate and cmd/energysim.
	Profile CampaignProfile `json:"-"`
}

// CampaignProfile is the per-phase timing of one RunCampaign call: how
// the wall clock split between the parallel trials phase and the
// sequential merge, and how many trials the fault-free fast path
// served versus the rest. Nondeterministic by nature, so it
// never participates in campaign caching or equivalence.
type CampaignProfile struct {
	// TrialsNs is the wall time of the parallel trial phase (pool launch
	// to drain); MergeNs is the sequential deterministic reduction.
	TrialsNs int64 `json:"trialsNs"`
	MergeNs  int64 `json:"mergeNs"`
	// FastPathTrials counts trials served by the precomputed fault-free
	// outcome; HeapTrials counts the trials the sweep ran. The JSON name
	// predates the sweep and is kept for wire compatibility.
	FastPathTrials int64 `json:"fastPathTrials"`
	HeapTrials     int64 `json:"heapTrials"`
	// Workers is the resolved pool size the campaign ran with.
	Workers int `json:"workers"`
}

// Delta quantifies how far the observed campaign strayed from the
// closed-form prediction; it is the shared report block of
// cmd/energysim and POST /v1/simulate.
type Delta struct {
	// EnergyPct is the relative deviation (percent) of the observed
	// mean energy from the analytic expectation under the policy.
	EnergyPct float64 `json:"energyPct"`
	// MakespanPct is the relative deviation (percent) of the observed
	// mean makespan from the schedule's predicted makespan.
	MakespanPct float64 `json:"makespanPct"`
	// ReliabilityAbs is the absolute deviation of the observed success
	// rate from the closed-form schedule reliability.
	ReliabilityAbs float64 `json:"reliabilityAbs"`
}

// Delta derives the predicted-vs-observed deviations of the campaign.
func (c *Campaign) Delta() Delta {
	return Delta{
		EnergyPct:      pct(c.Energy.Mean, c.Predicted.ExpectedEnergy),
		MakespanPct:    pct(c.Makespan.Mean, c.Predicted.Makespan),
		ReliabilityAbs: c.SuccessRate - c.Predicted.Reliability,
	}
}

// pct returns the relative deviation of observed from predicted in
// percent; a zero prediction (nothing was promised) reports 0.
func pct(observed, predicted float64) float64 {
	if predicted == 0 {
		return 0
	}
	return (observed/predicted - 1) * 100
}

// trialSlot is one trial's condensed outcome; workers write disjoint
// slots, the merge reads them in trial order.
type trialSlot struct {
	energy   float64
	makespan float64
	reexec   int32
	faults   int32
	flags    uint8 // bit 0: succeeded, bit 1: deadline met
}

// campaignScratch is the reusable campaign state a Runner retains
// across campaigns: the worker runners (the owning Runner first, then
// clones whose trial scratch is carved from line-padded slabs), a
// one-chunk trial-slot array, the outcome histograms and the worker
// pool. It grows monotonically — a campaign needing more workers or a
// larger chunk than any before it reallocates, every other campaign
// reuses.
type campaignScratch struct {
	runners []*Runner // worker w runs runners[w]; runners[0] is the owner
	slots   []trialSlot
	eHist   *hist.Histogram
	mHist   *hist.Histogram
	pool    chunkPool
}

// campaignScratchFor returns the runner's campaign scratch, grown to
// hold workers goroutines and slots trial slots. Worker 0 is the base
// runner itself; clones cover the rest, their runners allocated as one
// slab and their trial scratch as one set of line-padded slabs, so no
// two workers write to the same cache line.
func (r *Runner) campaignScratchFor(workers, slots int) *campaignScratch {
	cs := r.camp
	if cs == nil {
		cs = &campaignScratch{
			eHist: hist.New(hist.OutcomeBounds()),
			mHist: hist.New(hist.OutcomeBounds()),
		}
		r.camp = cs
	}
	if len(cs.runners) < workers {
		need := workers - 1
		slab := make([]Runner, need)
		scratch := newScratchSlabs(len(r.first), need)
		runners := make([]*Runner, workers)
		runners[0] = r
		for w := 0; w < need; w++ {
			c := &slab[w]
			// Same table sharing as Clone, scratch carved from slabs.
			*c = *r
			c.camp = nil
			c.sc = scratch.scratch(w)
			runners[w+1] = c
		}
		cs.runners = runners
	}
	if cap(cs.slots) < slots {
		cs.slots = make([]trialSlot, slots)
	}
	return cs
}

// RunCampaign executes trials seeded runs of the runner's schedule
// under its Options (seed, policy, worst-case, fault injection) and
// aggregates the outcome distribution: a RunCampaignChunked call with
// the default chunk size and no stopping rule, so every trial runs.
// Trial t always draws from stream (Seed, t) and the reduction runs
// in trial order, so the returned Campaign is bit-identical across
// worker counts. workers <= 0 defaults to GOMAXPROCS. The runner
// retains its campaign scratch, so repeated campaigns on one Runner
// allocate only the worker launch, the returned Campaign and its
// histogram snapshots. Cancelling the context aborts the campaign
// with the context's error.
func (r *Runner) RunCampaign(ctx context.Context, trials, workers int) (*Campaign, error) {
	return r.RunCampaignChunked(ctx, ChunkedOptions{Trials: trials, Workers: workers})
}

// RunCampaign validates the (instance, schedule) pairing, builds a
// Runner and executes opts.Trials seeded runs on a worker pool; see
// Runner.RunCampaign for the determinism contract. Callers running
// many campaigns on one pairing should hold a Runner and call its
// RunCampaign directly to amortize setup.
func RunCampaign(ctx context.Context, in *core.Instance, s *schedule.Schedule, opts CampaignOptions) (*Campaign, error) {
	return RunCampaignChunked(ctx, in, s, opts, ChunkedOptions{})
}
