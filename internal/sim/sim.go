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
// The engine is a classic event-queue simulation: a binary heap of
// (time, task, attempt, kind) events with a total deterministic
// order; an execution attempt becomes ready when every predecessor in
// the mapping's constraint graph (DAG precedence ∪ same-processor
// order) has completed, and starts at the later of that instant and
// its scheduled start time. Faults are drawn per attempt from
// counter-split splitmix64 streams (internal/rng), one stream per
// (seed, trial) pair, so campaigns are reproducible and embarrassingly
// parallel. Recovery after a failed first attempt is pluggable:
// re-execute at the same speed (in the schedule's re-execution slot
// when the solver provisioned one), re-execute at fmax, or abort the
// run.
package sim

import (
	"errors"
	"fmt"
	"math"

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
	// DisableFastPath forces every trial through the event heap even
	// when the occurrence draws admit the precomputed fault-free
	// outcome. The fast path is bit-identical by construction (and
	// equivalence-tested); this switch exists for benchmarks comparing
	// the two paths and for the equivalence tests themselves.
	DisableFastPath bool
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

// event is a heap entry. Kind breaks exact time ties after task and
// attempt, giving the queue a total deterministic order.
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
// once, constraint graph built once, per-attempt durations, energies,
// failure probabilities — and the fault-free outcome — precomputed
// once. Run then executes individual trials allocation-free, so
// campaigns amortize all setup, and trials whose occurrence draws
// admit no fault short-circuit to the precomputed outcome without
// touching the event heap. A Runner is not safe for concurrent use;
// campaigns give each worker its own Clone.
type Runner struct {
	in   *core.Instance
	s    *schedule.Schedule
	rel  *model.Reliability
	opts Options

	cg     *dag.Graph
	indeg0 []int32 // constraint-graph indegree template
	first  []attempt
	second []attempt // dur == 0 → no second attempt possible
	hasSec []bool

	// ff is the outcome of the deterministic fault-free execution
	// under the runner's options, precomputed by one event-heap run in
	// NewRunner; it is what the fast path emits.
	ff Outcome
	// noFast forces the event heap for every trial
	// (Options.DisableFastPath).
	noFast bool
	// fastServed counts trials this runner answered from the fast path
	// since the campaign last reset it — each worker counts its own,
	// the campaign engine sums them into the campaign profile.
	fastServed int64

	// per-trial scratch
	indeg  []int32
	done   []bool // task completed all its attempts successfully
	u1, u2 []float64
	heap   []event

	// camp is the reusable campaign state (worker clones, trial slots,
	// outcome histograms, worker pool), built lazily by the first
	// campaign.
	camp *campaignScratch
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
	if _, err := cg.TopoOrder(); err != nil {
		return nil, err
	}
	r := &Runner{
		in:     in,
		s:      s,
		rel:    in.Rel,
		opts:   opts,
		cg:     cg,
		indeg0: make([]int32, n),
		first:  make([]attempt, n),
		second: make([]attempt, n),
		hasSec: make([]bool, n),
		indeg:  make([]int32, n),
		done:   make([]bool, n),
		u1:     make([]float64, n),
		u2:     make([]float64, n),
		heap:   make([]event, 0, 4*n),
	}
	for i := 0; i < n; i++ {
		for range cg.Preds(i) {
			r.indeg0[i]++
		}
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
	r.noFast = opts.DisableFastPath
	// Precompute the fault-free outcome by one event-heap run with the
	// injector off: the fault-free trace is fully deterministic (no
	// stream is consumed), so this single run is the exact outcome of
	// every trial whose occurrence draws admit no fault.
	record := r.opts.Record
	r.opts.Record = false
	var ff Trace
	r.runHeap(&ff, false)
	r.opts.Record = record
	r.ff = ff.Outcome
	return r, nil
}

// Clone returns a Runner that shares every immutable trial-invariant
// table with r — instance, schedule, constraint graph, per-attempt
// tables, precomputed fault-free outcome — and owns fresh per-trial
// scratch. Cloning costs five O(n) slice allocations instead of the
// constraint-graph reconstruction and validation NewRunner pays,
// which is what makes campaign worker pools cheap. The clone starts
// from the same Options; like its source, it is not safe for
// concurrent use, but distinct clones may run concurrently.
func (r *Runner) Clone() *Runner {
	c := new(Runner)
	*c = *r
	n := len(r.first)
	c.indeg = make([]int32, n)
	c.done = make([]bool, n)
	c.u1 = make([]float64, n)
	c.u2 = make([]float64, n)
	c.heap = make([]event, 0, cap(r.heap))
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
// allocations beyond heap growth on first use.
//
// Fast path: the per-attempt fault *occurrence* decision factors out
// of the fault *location* computation (the same uniform u both decides
// u < p and, via inverse-CDF over the segment hazard, locates the
// instant — see faultOffset), so a trial can be classified by drawing
// only the occurrence uniforms. They are drawn in the same task order
// the event-heap path uses; when none admits a fault the trial is the
// deterministic fault-free execution and Run emits the precomputed
// Outcome without touching the heap. Each trial owns its counter-split
// stream rng.At(Seed, trial), so stopping after the occurrence block
// is unobservable — no later consumer shares the stream — and the
// emitted outcome is bit-identical to the event-heap run (equivalence-
// tested across seeds, policies and workload classes).
func (r *Runner) Run(trial int, tr *Trace) {
	opts := r.opts
	injecting := r.rel != nil && !opts.DisableFaults
	fast := !r.noFast && !opts.Record
	if !injecting {
		if fast {
			r.fastServed++
			tr.Events = tr.Events[:0]
			tr.Outcome = r.ff
			return
		}
		r.runHeap(tr, false)
		return
	}
	// Draws are made up front in task order — two per task, used or
	// not — so the outcome depends only on (seed, trial), never on
	// event interleaving.
	n := len(r.first)
	stream := rng.At(opts.Seed, trial)
	for i := 0; i < n; i++ {
		r.u1[i] = stream.Float64()
	}
	if fast && !opts.WorstCase && r.cleanFirst() {
		// No first attempt faults; no second attempt runs. The trial
		// is the fault-free replay.
		r.fastServed++
		tr.Events = tr.Events[:0]
		tr.Outcome = r.ff
		return
	}
	for i := 0; i < n; i++ {
		r.u2[i] = stream.Float64()
	}
	if fast && opts.WorstCase && r.cleanFirst() && r.cleanSecondWorstCase() {
		// Worst-case replay runs every scheduled execution whatever
		// the draws, so the fault-free short-circuit must also clear
		// the always-running second attempts.
		r.fastServed++
		tr.Events = tr.Events[:0]
		tr.Outcome = r.ff
		return
	}
	r.runHeap(tr, true)
}

// cleanFirst reports whether no first attempt's occurrence uniform
// admits a fault — the same u < p test the event-heap path applies at
// each EventStart.
func (r *Runner) cleanFirst() bool {
	for i := range r.first {
		if p := r.first[i].p; p > 0 && r.u1[i] < p {
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
		if p := r.second[i].p; p > 0 && r.u2[i] < p {
			return false
		}
	}
	return true
}

// runHeap is the event-heap execution of one trial; when injecting,
// the occurrence uniforms u1/u2 must already be filled for this trial.
func (r *Runner) runHeap(tr *Trace, injecting bool) {
	n := r.in.Graph.N()
	opts := r.opts
	copy(r.indeg, r.indeg0)
	for i := range r.done {
		r.done[i] = false
	}
	tr.Events = tr.Events[:0]
	out := Outcome{Succeeded: true}
	r.heap = r.heap[:0]
	for i := 0; i < n; i++ {
		if r.indeg0[i] == 0 {
			r.push(event{time: r.first[i].start, task: int32(i), attempt: 0, kind: EventStart})
		}
	}
	for len(r.heap) > 0 {
		ev := r.pop()
		i := int(ev.task)
		att := &r.first[i]
		if ev.attempt == 1 {
			att = &r.second[i]
		}
		switch ev.kind {
		case EventStart:
			failed := false
			if injecting && att.p > 0 {
				u := r.u1[i]
				if ev.attempt == 1 {
					u = r.u2[i]
				}
				if u < att.p {
					failed = true
					if opts.Record {
						r.push(event{time: ev.time + faultOffset(att, u, *r.rel), task: ev.task, attempt: ev.attempt, kind: EventFault})
					}
				}
			}
			if opts.Record {
				tr.Events = append(tr.Events, Event{Time: ev.time, Kind: EventStart.String(),
					Task: i, Attempt: int(ev.attempt), Proc: r.s.Mapping.Proc[i], Speed: att.speed})
			}
			r.push(event{time: ev.time + att.dur, task: ev.task, attempt: ev.attempt, kind: EventFinish, failed: failed})
		case EventFault:
			tr.Events = append(tr.Events, Event{Time: ev.time, Kind: EventFault.String(),
				Task: i, Attempt: int(ev.attempt), Proc: r.s.Mapping.Proc[i], Speed: att.speed})
		case EventFinish:
			out.Energy += att.energy
			if ev.time > out.Makespan {
				out.Makespan = ev.time
			}
			if ev.failed {
				out.Faults++
			}
			if opts.Record {
				tr.Events = append(tr.Events, Event{Time: ev.time, Kind: EventFinish.String(),
					Task: i, Attempt: int(ev.attempt), Proc: r.s.Mapping.Proc[i], Speed: att.speed, Failed: ev.failed})
			}
			switch {
			case ev.attempt == 0 && opts.WorstCase && r.hasSec[i]:
				// Worst-case replay: the provisioned re-execution always
				// runs; the task fails only if both attempts do.
				if !ev.failed {
					r.done[i] = true // success already banked
				}
				r.startAttempt(i, 1, ev.time, &out)
			case ev.attempt == 0 && ev.failed && !opts.WorstCase && r.hasSec[i]:
				out.Reexecutions++
				r.startAttempt(i, 1, ev.time, &out)
			case ev.failed && !r.done[i]:
				// Final attempt failed (or abort policy): the task — and
				// with it the run — fails. Live execution prunes the
				// failed task's successors; worst-case replay keeps
				// executing the full schedule and only the success
				// statistic records the failure.
				out.Succeeded = false
				if opts.WorstCase {
					r.release(i, ev.time)
				}
			default:
				r.done[i] = true
				r.release(i, ev.time)
			}
		}
	}
	d := r.in.Deadline
	out.DeadlineMet = out.Succeeded && out.Makespan <= d+schedule.TimeEps*math.Max(1, d)
	tr.Outcome = out
}

// startAttempt enqueues the start of attempt k of task i after the
// previous attempt finished at time now. In worst-case replay the
// success bookkeeping of attempt 1 is resolved at its finish via done.
func (r *Runner) startAttempt(i, k int, now float64, out *Outcome) {
	att := &r.second[i]
	start := now
	if att.start >= 0 && att.start > start {
		start = att.start
	}
	if r.opts.WorstCase {
		out.Reexecutions++
	}
	r.push(event{time: start, task: int32(i), attempt: int8(k), kind: EventStart})
}

// release marks task i complete at time now and makes its
// constraint-graph successors ready; a successor with all predecessors
// done starts at the later of now and its scheduled start.
func (r *Runner) release(i int, now float64) {
	for _, v := range r.cg.Succs(i) {
		r.indeg[v]--
		if r.indeg[v] == 0 {
			start := r.first[v].start
			if now > start {
				start = now
			}
			r.push(event{time: start, task: int32(v), attempt: 0, kind: EventStart})
		}
	}
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

func (r *Runner) push(ev event) {
	r.heap = append(r.heap, ev)
	i := len(r.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(r.heap[i], r.heap[parent]) {
			break
		}
		r.heap[i], r.heap[parent] = r.heap[parent], r.heap[i]
		i = parent
	}
}

func (r *Runner) pop() event {
	top := r.heap[0]
	last := len(r.heap) - 1
	r.heap[0] = r.heap[last]
	r.heap = r.heap[:last]
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		small := i
		if l < last && eventLess(r.heap[l], r.heap[small]) {
			small = l
		}
		if rr < last && eventLess(r.heap[rr], r.heap[small]) {
			small = rr
		}
		if small == i {
			break
		}
		r.heap[i], r.heap[small] = r.heap[small], r.heap[i]
		i = small
	}
	return top
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
