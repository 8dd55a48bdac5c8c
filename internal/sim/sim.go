// Package sim is a deterministic, seeded discrete-event simulator
// that closes the predict/observe loop of the repository: it takes a
// problem instance plus a solved schedule (speeds, start times,
// processor mapping from any registered solver) and *executes* it on
// a simulated multi-processor platform, injecting transient faults
// from the very rate model the solvers optimize against. Where the
// solvers only ever predict energy, makespan and reliability, sim
// observes them — per run as a structured Trace (time-ordered
// start/fault/finish events plus an Outcome), and per campaign as
// Monte-Carlo outcome distributions (campaign.go) whose success rate
// must match the closed-form reliability and whose fault-free
// replays must reproduce the solver's own numbers exactly.
//
// Because the mapping is fixed and processor order is part of the
// mapping's constraint graph (DAG precedence ∪ same-processor order),
// a trial's timeline is a longest-path pass over that graph: an
// execution attempt starts at the later of its scheduled start time and
// the instant every predecessor completed. Every trial runs on that
// pass (runSweep), in topological order, and its time-ordered event
// log comes out in the order of a classic event-queue simulation — a
// binary heap of (time, task, attempt, kind) events — which the tests
// keep as the reference engine and match bit for bit. Faults are drawn
// per attempt from counter-split splitmix64 streams (internal/rng), one
// stream per (seed, trial) pair, so campaigns are reproducible and
// embarrassingly parallel. Recovery after a failed first attempt is
// pluggable: re-execute at the same speed (in the schedule's
// re-execution slot when the solver provisioned one), re-execute at
// fmax, or abort the run.
package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"energysched/internal/core"
	"energysched/internal/dag"
	"energysched/internal/model"
	"energysched/internal/rng"
	"energysched/internal/schedule"
)

// Policy selects the recovery action after a failed execution
// attempt. Whatever the policy, a task is attempted at most twice —
// the paper's re-execution model.
type Policy int

const (
	// PolicySameSpeed re-executes a failed task at the speeds of the
	// schedule's second execution when the solver provisioned one
	// (starting no earlier than its scheduled slot), and otherwise
	// repeats the first execution's segments immediately.
	PolicySameSpeed Policy = iota
	// PolicyMaxSpeed re-executes a failed task at fmax immediately
	// after the failure is detected.
	PolicyMaxSpeed
	// PolicyAbort gives up on the run at the first failure.
	PolicyAbort
)

func (p Policy) String() string {
	switch p {
	case PolicySameSpeed:
		return "same-speed"
	case PolicyMaxSpeed:
		return "max-speed"
	case PolicyAbort:
		return "abort"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy is the inverse of Policy.String, for flag and request
// parsing.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "same-speed", "":
		return PolicySameSpeed, nil
	case "max-speed":
		return PolicyMaxSpeed, nil
	case "abort":
		return PolicyAbort, nil
	default:
		return 0, fmt.Errorf("sim: unknown policy %q (have same-speed, max-speed, abort)", s)
	}
}

// EventKind enumerates the trace event types.
type EventKind int

const (
	// EventStart marks the begin of an execution attempt.
	EventStart EventKind = iota
	// EventFault marks a transient fault striking a running attempt
	// (the attempt still runs to completion — fault detection is at
	// the end, as in the paper's checkpoint-free model).
	EventFault
	// EventFinish marks the end of an attempt; Failed tells whether a
	// fault invalidated it.
	EventFinish
)

func (k EventKind) String() string {
	switch k {
	case EventStart:
		return "start"
	case EventFault:
		return "fault"
	case EventFinish:
		return "finish"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of a run's time-ordered log.
type Event struct {
	Time    float64 `json:"time"`
	Kind    string  `json:"kind"`
	Task    int     `json:"task"`
	Attempt int     `json:"attempt"`
	Proc    int     `json:"proc"`
	// Speed is the speed of the attempt's first segment (the whole
	// attempt under non-VDD models).
	Speed float64 `json:"speed"`
	// Failed is set on finish events of attempts hit by a fault.
	Failed bool `json:"failed,omitempty"`
}

// Outcome condenses one simulated run.
type Outcome struct {
	// Energy is the energy actually consumed: Σ f³·t over every
	// segment of every attempt that ran (failed attempts included —
	// fault detection is at the end of the attempt).
	Energy float64 `json:"energy"`
	// Makespan is the finish time of the last attempt that ran.
	Makespan float64 `json:"makespan"`
	// Succeeded reports whether every task ultimately succeeded.
	Succeeded bool `json:"succeeded"`
	// DeadlineMet reports whether the run both succeeded and finished
	// within the instance deadline (validator tolerance).
	DeadlineMet bool `json:"deadlineMet"`
	// Reexecutions counts second attempts that ran.
	Reexecutions int `json:"reexecutions"`
	// Faults counts attempts invalidated by a transient fault.
	Faults int `json:"faults"`
}

// Trace is the structured record of one simulated run. Events is only
// populated when the run was asked to record (Options.Record); the
// Outcome is always filled.
type Trace struct {
	Events  []Event `json:"events,omitempty"`
	Outcome Outcome `json:"outcome"`
}

// Options tunes one simulated run.
type Options struct {
	// Policy is the recovery policy (default PolicySameSpeed).
	Policy Policy
	// Seed and Trial address the fault stream: rng.At(Seed, Trial).
	Seed  int64
	Trial int
	// WorstCase replays the schedule exactly as the solver accounted
	// it: every scheduled execution runs, including re-executions whose
	// first attempt succeeded (the paper charges both "even when the
	// first execution is successful"). Recovery policies do not apply,
	// and failures only affect the success statistic — successors run
	// regardless, so every trial's energy and makespan equal the
	// schedule's predicted values and only Succeeded varies with the
	// fault draws.
	WorstCase bool
	// DisableFaults turns the injector off — the run becomes the
	// deterministic fault-free execution of the schedule.
	DisableFaults bool
	// Record fills Trace.Events with the time-ordered event log.
	Record bool
}

// attempt is one precomputed execution attempt: scheduled start (< 0
// when the attempt chains immediately after its predecessor attempt),
// duration, energy, failure probability and segments.
type attempt struct {
	start  float64
	dur    float64
	energy float64
	p      float64
	speed  float64
	segs   []schedule.Segment
}

// event is one record of a trial's timeline: an attempt's start, fault
// or finish. The key (time, task, attempt, kind) is unique within a
// trial and totally ordered by eventLess.
type event struct {
	time    float64
	task    int32
	attempt int8
	kind    EventKind
	failed  bool
}

func eventLess(a, b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.task != b.task {
		return a.task < b.task
	}
	if a.attempt != b.attempt {
		return a.attempt < b.attempt
	}
	return a.kind < b.kind
}

// Runner is a prepared simulation: instance and schedule cross-checked
// once, constraint graph and its topological order built once,
// per-attempt durations, energies, failure probabilities — and the
// fault-free outcome — precomputed once. Run then executes individual
// trials allocation-free, so campaigns amortize all setup, and trials
// whose occurrence draws admit no fault short-circuit to the
// precomputed outcome. A Runner is not safe for concurrent use;
// campaigns give each worker its own Clone.
type Runner struct {
	in   *core.Instance
	s    *schedule.Schedule
	rel  *model.Reliability
	opts Options

	cg     *dag.Graph
	topo   []int // a topological order of cg
	first  []attempt
	second []attempt // dur == 0 → no second attempt possible
	hasSec []bool

	// ff is the outcome of the deterministic fault-free execution
	// under the runner's options, precomputed by one injector-off sweep
	// in NewRunner; it is what the fast path emits.
	ff Outcome

	// camp is the reusable campaign state (worker clones, trial slots,
	// outcome histograms, worker pool), built lazily by the first
	// campaign.
	camp *campaignScratch

	// sc is everything a trial writes. The pads keep it off every
	// cache line holding another runner's fields or any other object.
	_  [cacheLine]byte
	sc trialScratch
	_  [cacheLine]byte
}

// trialScratch is one runner's per-trial state. Its slices are carved
// from line-padded slabs (scratchSlabs), so the campaign workers'
// scratch never shares a cache line.
type trialScratch struct {
	u1, u2 []float64 // occurrence uniforms, drawn in task order
	// release is the sweep's per-task release time (unreleased when
	// the task, or a predecessor, failed for good).
	release []float64
	// recs holds the sweep's records: finishes, plus starts and faults
	// when recording (recording runs outgrow the slab region on first
	// use and keep the larger buffer).
	recs []event
	// trace is the trace a campaign worker runs its trials into.
	trace Trace
	// fastServed counts trials this runner answered from the fast path
	// since the campaign last reset it — each worker counts its own,
	// the campaign engine sums them into the campaign profile.
	fastServed int64
}

// cacheLine is the cache-line size the worker scratch is padded to.
const cacheLine = 64

// scratchSlabs backs the trial scratch of one or more runners with one
// slab per element type. Each runner's region is padded to whole cache
// lines and has a guard line on either side, so whatever the slab's
// alignment, no two runners' regions — and no other object — touch the
// same cache line.
type scratchSlabs struct {
	n      int
	floats []float64 // u1, u2, release
	recs   []event
}

func newScratchSlabs(n, runners int) scratchSlabs {
	return scratchSlabs{
		n:      n,
		floats: lineSlab[float64](runners, 3*n),
		recs:   lineSlab[event](runners, 2*n),
	}
}

// scratch returns the trial scratch of runner w.
func (sl scratchSlabs) scratch(w int) trialScratch {
	n := sl.n
	fl := lineRegion(sl.floats, w, 3*n)
	return trialScratch{
		u1:      fl[:n:n],
		u2:      fl[n : 2*n : 2*n],
		release: fl[2*n:],
		recs:    lineRegion(sl.recs, w, 2*n)[:0],
	}
}

// lineStride returns the guard length and the region-plus-guard stride,
// in elements of T, of a line slab whose regions hold n elements.
func lineStride[T any](n int) (guard, stride int) {
	size := int(unsafe.Sizeof(*new(T)))
	elems := func(bytes int) int { return (bytes + size - 1) / size }
	guard = elems(cacheLine)
	return guard, elems((n*size+cacheLine-1)/cacheLine*cacheLine) + guard
}

// lineSlab allocates a line slab of the given number of n-element
// regions, laid out guard, region, guard, region, …, guard.
func lineSlab[T any](regions, n int) []T {
	guard, stride := lineStride[T](n)
	return make([]T, guard+regions*stride)
}

// lineRegion returns region w of a line slab, capped at n elements.
func lineRegion[T any](slab []T, w, n int) []T {
	guard, stride := lineStride[T](n)
	lo := guard + w*stride
	return slab[lo : lo+n : lo+n]
}

// NewRunner validates the pairing and precomputes the trial-invariant
// tables. The schedule must belong to the instance (same graph and
// mapping object shapes); it is not re-validated against the
// constraints — pass solver output, which core.Solve already
// validated.
func NewRunner(in *core.Instance, s *schedule.Schedule, opts Options) (*Runner, error) {
	if in == nil || s == nil {
		return nil, errors.New("sim: nil instance or schedule")
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := in.Graph.N()
	if s.G == nil || s.G.N() != n || len(s.Tasks) != n {
		return nil, fmt.Errorf("sim: schedule has %d tasks, instance has %d", len(s.Tasks), n)
	}
	if s.Mapping == nil || len(s.Mapping.Proc) != n {
		return nil, errors.New("sim: schedule mapping does not cover the instance")
	}
	cg, err := in.Mapping.ConstraintGraph(in.Graph)
	if err != nil {
		return nil, err
	}
	topo, err := cg.TopoOrder()
	if err != nil {
		return nil, err
	}
	r := &Runner{
		in:     in,
		s:      s,
		rel:    in.Rel,
		opts:   opts,
		cg:     cg,
		topo:   topo,
		first:  make([]attempt, n),
		second: make([]attempt, n),
		hasSec: make([]bool, n),
		sc:     newScratchSlabs(n, 1).scratch(0),
	}
	for i := 0; i < n; i++ {
		ts := s.Tasks[i]
		if len(ts.Execs) < 1 || len(ts.Execs) > 2 {
			return nil, fmt.Errorf("sim: task %d has %d executions", i, len(ts.Execs))
		}
		r.first[i] = makeAttempt(ts.Execs[0], in.Rel)
		switch {
		case opts.WorstCase:
			// Replay mode: exactly the scheduled executions run.
			if ts.ReExecuted() {
				r.second[i] = makeAttempt(ts.Execs[1], in.Rel)
				r.hasSec[i] = true
			}
		case opts.Policy == PolicyAbort:
			// No recovery, even when the solver provisioned a slot.
		case opts.Policy == PolicyMaxSpeed:
			w := in.Graph.Weight(i)
			a := makeAttempt(schedule.Constant(0, w, in.Speed.FMax), in.Rel)
			a.start = -1
			r.second[i] = a
			r.hasSec[i] = true
		case ts.ReExecuted():
			// Same-speed recovery in the solver's provisioned slot.
			r.second[i] = makeAttempt(ts.Execs[1], in.Rel)
			r.hasSec[i] = true
		default:
			// Same-speed recovery without a slot: repeat the first
			// attempt immediately after the failure is detected.
			a := r.first[i]
			a.start = -1
			r.second[i] = a
			r.hasSec[i] = true
		}
	}
	// Precompute the fault-free outcome by one sweep with the injector
	// off: the fault-free trace is fully deterministic (no stream is
	// consumed), so this single run is the exact outcome of every trial
	// whose occurrence draws admit no fault.
	var ff Trace
	r.opts.Record = false
	r.drawNoFaults()
	r.runSweep(&ff)
	r.opts.Record = opts.Record
	r.ff = ff.Outcome
	return r, nil
}

// Clone returns a Runner that shares every immutable trial-invariant
// table with r — instance, schedule, constraint graph, per-attempt
// tables, precomputed fault-free outcome — and owns fresh per-trial
// scratch. Cloning costs two O(n) slab allocations instead of the
// constraint-graph reconstruction and validation NewRunner pays,
// which is what makes campaign worker pools cheap. The clone starts
// from the same Options; like its source, it is not safe for
// concurrent use, but distinct clones may run concurrently.
func (r *Runner) Clone() *Runner {
	c := new(Runner)
	*c = *r
	c.sc = newScratchSlabs(len(r.first), 1).scratch(0)
	c.camp = nil
	return c
}

func makeAttempt(ex schedule.Execution, rel *model.Reliability) attempt {
	a := attempt{start: ex.Start, dur: ex.Duration(), energy: ex.Energy(), segs: ex.Segments}
	if len(ex.Segments) > 0 {
		a.speed = ex.Segments[0].Speed
	}
	if rel != nil {
		a.p = ex.FailureProb(*rel)
	}
	return a
}

// Run executes one trial and fills tr (reusing its Events buffer).
// With a warmed Runner and Trace the call performs no steady-state
// allocations beyond buffer growth on first use.
//
// Fast path: the per-attempt fault *occurrence* decision factors out
// of the fault *location* computation (the same uniform u both decides
// u < p and, via inverse-CDF over the segment hazard, locates the
// instant — see faultOffset), so a trial can be classified by drawing
// only the occurrence uniforms, in task order. When none admits a fault
// the trial is the deterministic fault-free execution and Run emits the
// precomputed Outcome. Each trial owns its counter-split stream
// rng.At(Seed, trial), so stopping after the occurrence block is
// unobservable — no later consumer shares the stream. Every other
// trial, and every recording run, executes on the sweep (runSweep).
func (r *Runner) Run(trial int, tr *Trace) {
	opts := r.opts
	sc := &r.sc
	injecting := r.rel != nil && !opts.DisableFaults
	if !injecting {
		if !opts.Record {
			r.serveFaultFree(tr)
			return
		}
		r.drawNoFaults()
		r.runSweep(tr)
		return
	}
	// Draws are made up front in task order — two per task, used or
	// not — so the outcome depends only on (seed, trial), never on
	// event interleaving.
	n := len(r.first)
	stream := rng.At(opts.Seed, trial)
	for i := 0; i < n; i++ {
		sc.u1[i] = stream.Float64()
	}
	if !opts.Record && !opts.WorstCase && r.cleanFirst() {
		// No first attempt faults; no second attempt runs. The trial
		// is the fault-free replay.
		r.serveFaultFree(tr)
		return
	}
	for i := 0; i < n; i++ {
		sc.u2[i] = stream.Float64()
	}
	if !opts.Record && opts.WorstCase && r.cleanFirst() && r.cleanSecondWorstCase() {
		// Worst-case replay runs every scheduled execution whatever
		// the draws, so the fault-free short-circuit must also clear
		// the always-running second attempts.
		r.serveFaultFree(tr)
		return
	}
	r.runSweep(tr)
}

// serveFaultFree emits the precomputed fault-free outcome.
func (r *Runner) serveFaultFree(tr *Trace) {
	r.sc.fastServed++
	tr.Events = tr.Events[:0]
	tr.Outcome = r.ff
}

// drawNoFaults sets every occurrence uniform to +Inf, which no failure
// probability exceeds: the sweep then runs the injector-off execution.
func (r *Runner) drawNoFaults() {
	for i := range r.sc.u1 {
		r.sc.u1[i], r.sc.u2[i] = math.Inf(1), math.Inf(1)
	}
}

// cleanFirst reports whether no first attempt's occurrence uniform
// admits a fault — the same u < p test the sweep applies to each
// first attempt.
func (r *Runner) cleanFirst() bool {
	for i := range r.first {
		if p := r.first[i].p; p > 0 && r.sc.u1[i] < p {
			return false
		}
	}
	return true
}

// cleanSecondWorstCase reports whether no always-running worst-case
// second attempt admits a fault.
func (r *Runner) cleanSecondWorstCase() bool {
	for i := range r.second {
		if !r.hasSec[i] {
			continue
		}
		if p := r.second[i].p; p > 0 && r.sc.u2[i] < p {
			return false
		}
	}
	return true
}

// unreleased marks, in the sweep's release times, a task whose
// successors never run.
var unreleased = math.Inf(-1)

// runSweep executes one trial in one pass over the constraint graph in
// topological order, on the occurrence uniforms u1/u2 already drawn
// (attempt k of task i fails when its uniform is below its failure
// probability). A task starts at the later of its scheduled start
// and the release times of its predecessors, and never runs if one of
// them failed for good (worst-case replay runs it anyway). After a
// failed first attempt — or always, in worst-case replay — the second
// attempt starts when the first ends, or in its scheduled slot if that
// is later.
//
// Times, counts and flags come out the same in any order; the energy
// sum and the event log do not. Both follow the order in which an
// event queue would pop the records: non-decreasing time, and within
// one time the smallest (task, attempt, kind) key among the records
// whose cause has been emitted. The cause of a first-attempt start is
// the final finish of each predecessor, of a second-attempt start the
// first attempt's finish, of a fault or finish its attempt's start.
// The sweep sorts its records and, only when a record can share its
// time with its cause, reorders each tie group by that rule
// (resolveTies). Without Record it keeps only finishes, each inheriting
// its start's causes, and a finish shares its cause's time only when
// its attempt's duration is absorbed by its start (start+dur == start).
// Recording runs also keep the starts, and add the faults after the
// pass (appendFaults).
func (r *Runner) runSweep(tr *Trace) {
	sc := &r.sc
	wc, record := r.opts.WorstCase, r.opts.Record
	release := sc.release
	recs := sc.recs[:0]
	tied := record
	out := Outcome{Succeeded: true}
tasks:
	for _, i := range r.topo {
		release[i] = unreleased
		start := r.first[i].start
		for _, p := range r.cg.Preds(i) {
			t := release[p]
			if t == unreleased {
				continue tasks
			}
			if t > start {
				start = t
			}
		}
		a := &r.first[i]
		end := start + a.dur
		lost := sc.u1[i] < a.p
		if record {
			recs = append(recs, event{time: start, task: int32(i), kind: EventStart})
		}
		recs = append(recs, event{time: end, task: int32(i), kind: EventFinish, failed: lost})
		if end == start {
			tied = true
		}
		if end > out.Makespan {
			out.Makespan = end
		}
		if lost {
			out.Faults++
		}
		if r.hasSec[i] && (lost || wc) {
			// Recovery, or worst-case replay's provisioned
			// re-execution: the second attempt starts when the first
			// ends, or in its scheduled slot if that is later.
			b := &r.second[i]
			start = end
			if b.start >= 0 && b.start > start {
				start = b.start
			}
			end = start + b.dur
			failed := sc.u2[i] < b.p
			if record {
				recs = append(recs, event{time: start, task: int32(i), attempt: 1, kind: EventStart})
			}
			recs = append(recs, event{time: end, task: int32(i), attempt: 1, kind: EventFinish, failed: failed})
			if end == start {
				tied = true
			}
			if end > out.Makespan {
				out.Makespan = end
			}
			if failed {
				out.Faults++
			}
			out.Reexecutions++
			lost = lost && failed
		}
		if lost {
			// Live execution prunes the failed task's successors;
			// worst-case replay runs them and only the success
			// statistic records the failure.
			out.Succeeded = false
			if !wc {
				continue
			}
		}
		release[i] = end
	}
	if record {
		recs = r.appendFaults(recs)
	}
	for k := 1; k < len(recs); k++ {
		e := recs[k]
		j := k
		for ; j > 0 && eventLess(e, recs[j-1]); j-- {
			recs[j] = recs[j-1]
		}
		recs[j] = e
	}
	if tied {
		r.resolveTies(recs)
	}
	tr.Events = tr.Events[:0]
	for _, e := range recs {
		a := r.attemptOf(e)
		if e.kind == EventFinish {
			out.Energy += a.energy
		}
		if record {
			tr.Events = append(tr.Events, Event{Time: e.time, Kind: e.kind.String(), Task: int(e.task),
				Attempt: int(e.attempt), Proc: r.s.Mapping.Proc[e.task], Speed: a.speed, Failed: e.failed})
		}
	}
	sc.recs = recs
	out.DeadlineMet = out.Succeeded && r.withinDeadline(out.Makespan)
	tr.Outcome = out
}

// attemptOf returns the attempt a record belongs to.
func (r *Runner) attemptOf(e event) *attempt {
	if e.attempt == 1 {
		return &r.second[e.task]
	}
	return &r.first[e.task]
}

// appendFaults appends a fault record for each recorded start whose
// attempt fails, placed by faultOffset. The range covers the records
// present on entry.
func (r *Runner) appendFaults(recs []event) []event {
	for _, e := range recs {
		if e.kind != EventStart {
			continue
		}
		a, u := r.attemptOf(e), r.sc.u1[e.task]
		if e.attempt == 1 {
			u = r.sc.u2[e.task]
		}
		if u < a.p {
			recs = append(recs, event{time: e.time + faultOffset(a, u, *r.rel), task: e.task, attempt: e.attempt, kind: EventFault})
		}
	}
	return recs
}

// resolveTies reorders each run of equal-time records of the sorted
// recs into event-queue order: repeatedly emit the smallest pending
// record none of whose causes is still pending. The pending records
// stay sorted, so the first one that is ready is the smallest.
func (r *Runner) resolveTies(recs []event) {
	for lo := 0; lo < len(recs); {
		hi := lo + 1
		for hi < len(recs) && recs[hi].time == recs[lo].time {
			hi++
		}
		for pos := lo; pos < hi-1; pos++ {
			k := pos
			for r.waits(recs[k], recs[pos:hi]) {
				k++
			}
			e := recs[k]
			copy(recs[pos+1:k+1], recs[pos:k])
			recs[pos] = e
		}
		lo = hi
	}
}

// waits reports whether one of e's causes is among the pending records
// of e's tie group.
func (r *Runner) waits(e event, pending []event) bool {
	for _, c := range pending {
		if r.causes(c, e) {
			return true
		}
	}
	return false
}

// causes reports whether record c is a cause of record e. A recorded
// fault or finish is caused by its attempt's start; a start, or an
// unrecorded finish standing in for its start, by the finish before
// it: its task's first attempt's, or its predecessors'.
func (r *Runner) causes(c, e event) bool {
	if e.kind != EventStart && r.opts.Record {
		return c.kind == EventStart && c.task == e.task && c.attempt == e.attempt
	}
	if c.kind != EventFinish {
		return false
	}
	if e.attempt == 1 {
		return c.task == e.task && c.attempt == 0
	}
	return slices.Contains(r.cg.Preds(int(e.task)), int(c.task))
}

// withinDeadline reports whether a run ending at makespan meets the
// instance deadline, with the validator's tolerance.
func (r *Runner) withinDeadline(makespan float64) bool {
	d := r.in.Deadline
	return makespan <= d+schedule.TimeEps*math.Max(1, d)
}

// faultOffset locates the fault instant within the attempt for the
// trace. Under the repository's linearized rate model the fault
// probability is P(fault in [0,t]) = Λ(t) = Σ λ(f_s)·d_s itself (not
// 1−e^−Λ — see model.Reliability.FailureProb), so the
// per-attempt uniform u that decided the fault (u < p, u uniform)
// doubles as the exact inverse-CDF sample: the fault lands where the
// running Λ crosses u.
func faultOffset(att *attempt, u float64, rel model.Reliability) float64 {
	h := 0.0
	t := 0.0
	for _, seg := range att.segs {
		rate := rel.FaultRate(seg.Speed)
		dh := rate * seg.Duration
		if h+dh >= u && rate > 0 {
			return t + (u-h)/rate
		}
		h += dh
		t += seg.Duration
	}
	return att.dur
}

// Prediction is what the schedule promises before any trial runs; the
// campaign report pairs it with the observed distribution.
type Prediction struct {
	// Energy is the schedule's worst-case energy (every scheduled
	// execution charged, as the solvers account it).
	Energy float64 `json:"energy"`
	// ExpectedEnergy is the analytic expectation of the observed
	// energy under the runner's policy: Σ e₁ + p₁·e₂ per task (equal
	// to Energy in worst-case replay). It assumes every task runs —
	// exact up to the (second-order) probability that an earlier
	// abort prunes downstream tasks.
	ExpectedEnergy float64 `json:"expectedEnergy"`
	// Makespan is the schedule's makespan.
	Makespan float64 `json:"makespan"`
	// Reliability is the closed-form schedule success probability
	// Π (1 − p₁·p₂) over re-executed tasks × Π (1 − p₁) over the rest,
	// with p₂ taken from the runner's resolved recovery attempt.
	Reliability float64 `json:"reliability"`
}

// Predict returns the closed-form prediction for the runner's
// instance, schedule and policy.
func (r *Runner) Predict() Prediction {
	p := Prediction{Energy: r.s.Energy(), Makespan: r.s.Makespan(), Reliability: 1}
	injecting := r.rel != nil && !r.opts.DisableFaults
	for i := range r.first {
		e1, p1 := r.first[i].energy, r.first[i].p
		if !injecting {
			p1 = 0
		}
		switch {
		case r.opts.WorstCase && r.hasSec[i]:
			p.ExpectedEnergy += e1 + r.second[i].energy
			p.Reliability *= 1 - p1*r.second[i].p
		case r.hasSec[i]:
			p.ExpectedEnergy += e1 + p1*r.second[i].energy
			p.Reliability *= 1 - p1*r.second[i].p
		default:
			p.ExpectedEnergy += e1
			p.Reliability *= 1 - p1
		}
	}
	if !injecting {
		p.Reliability = 1
	}
	return p
}

// Simulate runs a single trial of the schedule on a fresh Runner and
// returns its trace. Campaigns should use RunCampaign, which amortizes
// the setup across trials and workers.
func Simulate(in *core.Instance, s *schedule.Schedule, opts Options) (*Trace, error) {
	r, err := NewRunner(in, s, opts)
	if err != nil {
		return nil, err
	}
	tr := &Trace{}
	r.Run(opts.Trial, tr)
	return tr, nil
}
