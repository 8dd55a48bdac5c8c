package sim

import (
	"fmt"
	"math"
	"testing"

	"energysched/internal/hist"
)

// refHeap is the state of the reference engine: a classic event-queue
// simulation over a binary heap of (time, task, attempt, kind) events
// with eventLess as its total order. An execution attempt becomes
// ready when every predecessor in the constraint graph has completed,
// and starts at the later of that instant and its scheduled start.
// Every production trial runs on the sweep (runSweep); this engine is
// the independent oracle it must match bit for bit, outcome and event
// log alike.
type refHeap struct {
	r     *Runner
	indeg []int32
	done  []bool // task completed all its attempts successfully
	heap  []event
}

func newRefHeap(r *Runner) *refHeap {
	n := len(r.first)
	return &refHeap{r: r, indeg: make([]int32, n), done: make([]bool, n)}
}

// refRun executes one trial of r on the event heap and fills tr; when
// injecting, r's occurrence uniforms u1/u2 must already be drawn for the
// trial (drawTrial). It honours r's options, Record included.
func refRun(r *Runner, tr *Trace, injecting bool) { newRefHeap(r).run(tr, injecting) }

func (h *refHeap) run(tr *Trace, injecting bool) {
	r := h.r
	opts := r.opts
	tr.Events = tr.Events[:0]
	out := Outcome{Succeeded: true}
	h.heap = h.heap[:0]
	for i := range h.indeg {
		h.done[i] = false
		h.indeg[i] = int32(len(r.cg.Preds(i)))
		if h.indeg[i] == 0 {
			h.push(event{time: r.first[i].start, task: int32(i), attempt: 0, kind: EventStart})
		}
	}
	for len(h.heap) > 0 {
		ev := h.pop()
		i := int(ev.task)
		att := &r.first[i]
		if ev.attempt == 1 {
			att = &r.second[i]
		}
		switch ev.kind {
		case EventStart:
			failed := false
			if injecting && att.p > 0 {
				u := r.sc.u1[i]
				if ev.attempt == 1 {
					u = r.sc.u2[i]
				}
				if u < att.p {
					failed = true
					if opts.Record {
						h.push(event{time: ev.time + faultOffset(att, u, *r.rel), task: ev.task, attempt: ev.attempt, kind: EventFault})
					}
				}
			}
			if opts.Record {
				tr.Events = append(tr.Events, Event{Time: ev.time, Kind: EventStart.String(),
					Task: i, Attempt: int(ev.attempt), Proc: r.s.Mapping.Proc[i], Speed: att.speed})
			}
			h.push(event{time: ev.time + att.dur, task: ev.task, attempt: ev.attempt, kind: EventFinish, failed: failed})
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
					h.done[i] = true // success already banked
				}
				h.startSecond(i, ev.time, &out)
			case ev.attempt == 0 && ev.failed && !opts.WorstCase && r.hasSec[i]:
				out.Reexecutions++
				h.startSecond(i, ev.time, &out)
			case ev.failed && !h.done[i]:
				// Final attempt failed (or abort policy): the task — and
				// with it the run — fails. Live execution prunes the
				// failed task's successors; worst-case replay keeps
				// executing the full schedule and only the success
				// statistic records the failure.
				out.Succeeded = false
				if opts.WorstCase {
					h.release(i, ev.time)
				}
			default:
				h.done[i] = true
				h.release(i, ev.time)
			}
		}
	}
	out.DeadlineMet = out.Succeeded && r.withinDeadline(out.Makespan)
	tr.Outcome = out
}

// startSecond enqueues the second attempt of task i after the first
// finished at time now. In worst-case replay the success bookkeeping of
// the second attempt is resolved at its finish via done.
func (h *refHeap) startSecond(i int, now float64, out *Outcome) {
	att := &h.r.second[i]
	start := now
	if att.start >= 0 && att.start > start {
		start = att.start
	}
	if h.r.opts.WorstCase {
		out.Reexecutions++
	}
	h.push(event{time: start, task: int32(i), attempt: 1, kind: EventStart})
}

// release marks task i complete at time now and makes its
// constraint-graph successors ready; a successor with all predecessors
// done starts at the later of now and its scheduled start.
func (h *refHeap) release(i int, now float64) {
	for _, v := range h.r.cg.Succs(i) {
		h.indeg[v]--
		if h.indeg[v] == 0 {
			start := h.r.first[v].start
			if now > start {
				start = now
			}
			h.push(event{time: start, task: int32(v), attempt: 0, kind: EventStart})
		}
	}
}

func (h *refHeap) push(ev event) {
	q := append(h.heap, ev)
	h.heap = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *refHeap) pop() event {
	q := h.heap
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	h.heap = q
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		small := i
		if l < last && eventLess(q[l], q[small]) {
			small = l
		}
		if rr < last && eventLess(q[rr], q[small]) {
			small = rr
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top
}

// refTrial runs trial on the reference engine under r's options: the
// draws Run would make, then the event heap.
func refTrial(r *Runner, trial int, tr *Trace) { newRefHeap(r).trial(trial, tr) }

func (h *refHeap) trial(trial int, tr *Trace) {
	injecting := h.r.rel != nil && !h.r.opts.DisableFaults
	if injecting {
		drawTrial(h.r, trial)
	}
	h.run(tr, injecting)
}

// traceDiff describes the first difference between two traces —
// Outcome bits, then every Events field, times and speeds compared as
// float bits — or returns "" when they are identical.
func traceDiff(got, want *Trace) string {
	if !sameOutcome(got.Outcome, want.Outcome) {
		return fmt.Sprintf("outcome %+v, reference %+v", got.Outcome, want.Outcome)
	}
	if len(got.Events) != len(want.Events) {
		return fmt.Sprintf("%d events, reference %d", len(got.Events), len(want.Events))
	}
	for k := range got.Events {
		g, w := got.Events[k], want.Events[k]
		if math.Float64bits(g.Time) != math.Float64bits(w.Time) ||
			math.Float64bits(g.Speed) != math.Float64bits(w.Speed) ||
			g.Kind != w.Kind || g.Task != w.Task || g.Attempt != w.Attempt ||
			g.Proc != w.Proc || g.Failed != w.Failed {
			return fmt.Sprintf("event %d is %+v, reference %+v", k, g, w)
		}
	}
	return ""
}

// refCampaign is the independent reference for the campaign engine:
// it runs trials 0..trials-1 in order on the event heap (refTrial) and
// folds each outcome straight into a Campaign with a plain loop — no
// fast path, no sweep, no pool, no chunks, no trial slots, no
// CampaignState. Its Profile is left zero.
func refCampaign(t testing.TB, r *Runner, trials int) *Campaign {
	t.Helper()
	z, err := ZForConfidence(0)
	if err != nil {
		t.Fatal(err)
	}
	eh, mh := hist.New(hist.OutcomeBounds()), hist.New(hist.OutcomeBounds())
	c := &Campaign{
		Trials:          trials,
		TrialsRequested: trials,
		Seed:            r.opts.Seed,
		Policy:          r.opts.Policy.String(),
		WorstCase:       r.opts.WorstCase,
		Energy:          Summary{Min: math.Inf(1), Max: math.Inf(-1)},
		Makespan:        Summary{Min: math.Inf(1), Max: math.Inf(-1)},
		Predicted:       r.Predict(),
	}
	var sumE, sumM float64
	var tr Trace
	h := newRefHeap(r)
	for trial := 0; trial < trials; trial++ {
		h.trial(trial, &tr)
		o := tr.Outcome
		sumE += o.Energy
		sumM += o.Makespan
		eh.Observe(o.Energy)
		mh.Observe(o.Makespan)
		c.Energy.Min = math.Min(c.Energy.Min, o.Energy)
		c.Energy.Max = math.Max(c.Energy.Max, o.Energy)
		c.Makespan.Min = math.Min(c.Makespan.Min, o.Makespan)
		c.Makespan.Max = math.Max(c.Makespan.Max, o.Makespan)
		c.Reexecutions += int64(o.Reexecutions)
		c.Faults += int64(o.Faults)
		if o.Faults == 0 {
			c.FaultFreeTrials++
		}
		if o.Succeeded {
			c.Successes++
		}
		if !o.DeadlineMet {
			c.DeadlineMisses++
		}
	}
	n := float64(trials)
	c.SuccessRate = float64(c.Successes) / n
	c.FaultFreeRate = float64(c.FaultFreeTrials) / n
	c.CIHalfWidth = WilsonHalfWidth(c.Successes, trials, z)
	c.Energy.Mean = sumE / n
	c.Makespan.Mean = sumM / n
	c.EnergyHist = eh.JSON()
	c.MakespanHist = mh.JSON()
	return c
}
