// Package vdd implements the VDD-HOPPING results of Section IV:
//
//   - BI-CRIT under VDD-HOPPING is solvable in polynomial time by a
//     linear program (SolveBiCrit, built on internal/lp);
//   - only two (adjacent) speeds are ever needed per task — exposed by
//     SpeedsUsed and exercised by the experiment suite;
//   - continuous solutions adapt to VDD-HOPPING by mixing the two
//     closest discrete speeds while matching execution time and
//     reliability (RoundExecution), the paper's recipe for carrying
//     the CONTINUOUS heuristics over to discrete hardware.
package vdd

import (
	"context"
	"errors"
	"fmt"
	"math"

	"energysched/internal/dag"
	"energysched/internal/lp"
	"energysched/internal/model"
	"energysched/internal/platform"
	"energysched/internal/schedule"
)

// AlphaEps is the threshold below which a time share α(i,s) is treated
// as zero when counting speeds used.
const AlphaEps = 1e-7

// Result is an optimal VDD-HOPPING solution.
type Result struct {
	// Levels echoes the speed ladder the LP ran against.
	Levels []float64
	// Alpha[i][s] is the time task i spends at Levels[s].
	Alpha [][]float64
	// Durations[i] = Σ_s Alpha[i][s].
	Durations []float64
	// Energy is the optimal objective Σ α(i,s)·f_s³.
	Energy float64
}

// SpeedsUsed returns the indices of levels with α > AlphaEps for task
// i, in increasing speed order.
func (r *Result) SpeedsUsed(i int) []int {
	var out []int
	for s, a := range r.Alpha[i] {
		if a > AlphaEps {
			out = append(out, s)
		}
	}
	return out
}

// MaxSpeedsPerTask returns the largest number of distinct speeds any
// task uses — per the paper this is ≤ 2 at a basic optimum.
func (r *Result) MaxSpeedsPerTask() int {
	m := 0
	for i := range r.Alpha {
		if k := len(r.SpeedsUsed(i)); k > m {
			m = k
		}
	}
	return m
}

// Plan converts the solution into executable per-task segment lists
// (slow segments first; order inside a task is immaterial).
func (r *Result) Plan(g *dag.Graph) *schedule.Plan {
	p := &schedule.Plan{First: make([][]schedule.Segment, g.N()), Second: make([][]schedule.Segment, g.N())}
	for i := range r.Alpha {
		var segs []schedule.Segment
		for s, a := range r.Alpha[i] {
			if a > AlphaEps {
				segs = append(segs, schedule.Segment{Speed: r.Levels[s], Duration: a})
			}
		}
		if len(segs) == 0 {
			// Degenerate zero-duration artifacts cannot happen for
			// positive weights, but keep the plan well-formed.
			segs = []schedule.Segment{{Speed: r.Levels[len(r.Levels)-1], Duration: g.Weight(i) / r.Levels[len(r.Levels)-1]}}
		}
		p.First[i] = segs
	}
	return p
}

// ErrInfeasible is returned when the deadline cannot be met at the
// highest speed level.
var ErrInfeasible = errors.New("vdd: infeasible deadline")

// SolveBiCrit solves BI-CRIT under the VDD-HOPPING model exactly via
// the LP of Section IV: variables α(i,s) (time of task i at level s)
// and completion times C_i, constraints
//
//	Σ_s α(i,s)·f_s = w_i                    (work)
//	C_i ≥ Σ_s α(i,s)                        (source release)
//	C_v ≥ C_u + Σ_s α(v,s)  for edges u→v   (precedence/exclusivity)
//	C_i ≤ D
//
// minimizing Σ α(i,s)·f_s³. The constraint edges come from the
// mapping's constraint graph, so processor exclusivity is encoded the
// same way as precedence. It stops early with ctx.Err() once ctx is
// done.
func SolveBiCrit(ctx context.Context, g *dag.Graph, mp *platform.Mapping, sm model.SpeedModel, deadline float64) (*Result, error) {
	if sm.Kind != model.VddHopping {
		return nil, fmt.Errorf("vdd: speed model is %v, want VDD-HOPPING", sm.Kind)
	}
	if err := sm.Validate(); err != nil {
		return nil, err
	}
	if err := model.CheckDeadline(deadline); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cg, err := mp.ConstraintGraph(g)
	if err != nil {
		return nil, err
	}
	n := g.N()
	m := len(sm.Levels)
	// Quick infeasibility check: everything at fmax.
	minDur := make([]float64, n)
	for i := 0; i < n; i++ {
		minDur[i] = g.Weight(i) / sm.FMax
	}
	if _, ms, err := cg.LongestPath(minDur); err != nil {
		return nil, err
	} else if ms > deadline*(1+1e-9) {
		return nil, ErrInfeasible
	}

	nv := n*m + n // α variables then C variables
	alphaIdx := func(i, s int) int { return i*m + s }
	cIdx := func(i int) int { return n*m + i }

	edges := cg.Edges()
	nRows := 3*n + len(edges)
	rows := newRowSlab(nRows, nv)
	prob := &lp.Problem{NumVars: nv, Objective: make([]float64, nv), Constraints: make([]lp.Constraint, 0, nRows)}
	for i := 0; i < n; i++ {
		for s := 0; s < m; s++ {
			f := sm.Levels[s]
			prob.Objective[alphaIdx(i, s)] = f * f * f
		}
	}
	// Work equalities.
	for i := 0; i < n; i++ {
		row := rows.next()
		for s := 0; s < m; s++ {
			row[alphaIdx(i, s)] = sm.Levels[s]
		}
		prob.AddConstraint(row, lp.EQ, g.Weight(i))
	}
	// Release: C_i − Σ_s α(i,s) ≥ 0.
	for i := 0; i < n; i++ {
		row := rows.next()
		row[cIdx(i)] = 1
		for s := 0; s < m; s++ {
			row[alphaIdx(i, s)] = -1
		}
		prob.AddConstraint(row, lp.GE, 0)
	}
	// Precedence on the constraint graph.
	for _, e := range edges {
		u, v := e[0], e[1]
		row := rows.next()
		row[cIdx(v)] = 1
		row[cIdx(u)] = -1
		for s := 0; s < m; s++ {
			row[alphaIdx(v, s)] = -1
		}
		prob.AddConstraint(row, lp.GE, 0)
	}
	// Deadline.
	for i := 0; i < n; i++ {
		row := rows.next()
		row[cIdx(i)] = 1
		prob.AddConstraint(row, lp.LE, deadline)
	}

	sol, err := lp.Solve(ctx, prob)
	if err != nil {
		if err == lp.ErrInfeasible {
			return nil, ErrInfeasible
		}
		return nil, err
	}
	res := &Result{Levels: append([]float64(nil), sm.Levels...), Alpha: make([][]float64, n), Durations: make([]float64, n), Energy: sol.Objective}
	// The α block leads X, so each task's row is cut from it in place.
	for i := 0; i < n; i++ {
		alpha := sol.X[alphaIdx(i, 0):alphaIdx(i+1, 0):alphaIdx(i+1, 0)]
		for s, a := range alpha {
			if a < 0 {
				a = 0
				alpha[s] = 0
			}
			res.Durations[i] += a
		}
		res.Alpha[i] = alpha
	}
	return res, nil
}

// rowSlab cuts the zeroed constraint rows of one LP from a single
// backing slice, so building the LP allocates once for all its rows.
type rowSlab struct {
	buf []float64
	nv  int
}

func newRowSlab(rows, nv int) rowSlab {
	return rowSlab{buf: make([]float64, rows*nv), nv: nv}
}

// next returns the next row. Its capacity is capped so that an append
// to one row can never spill into the next.
func (s *rowSlab) next() []float64 {
	row := s.buf[:s.nv:s.nv]
	s.buf = s.buf[s.nv:]
	return row
}

// Schedule materializes the LP solution as a validated ASAP schedule.
func (r *Result) Schedule(g *dag.Graph, mp *platform.Mapping) (*schedule.Schedule, error) {
	return schedule.FromPlan(g, mp, r.Plan(g))
}

// RoundExecution converts one continuous-speed execution (weight w at
// speed f) into a VDD-HOPPING mix of the two adjacent levels
// bracketing f, matching the execution time w/f exactly. When
// maxFailure ≥ 0 and rel is non-nil, the mix is additionally shifted
// toward the faster level (shortening the execution) until its
// linearized failure probability is at most maxFailure — the paper's
// "matching the execution time and reliability for this task".
//
// The returned segments satisfy: work = w, duration ≤ w/f, every
// speed admissible, failure ≤ maxFailure (when requested).
func RoundExecution(sm model.SpeedModel, w, f float64, rel *model.Reliability, maxFailure float64) ([]schedule.Segment, error) {
	if sm.Kind != model.VddHopping {
		return nil, fmt.Errorf("vdd: speed model is %v, want VDD-HOPPING", sm.Kind)
	}
	if w <= 0 || f <= 0 {
		return nil, fmt.Errorf("vdd: invalid weight %v or speed %v", w, f)
	}
	if f > sm.FMax*(1+1e-9) {
		return nil, fmt.Errorf("vdd: speed %v exceeds fmax %v", f, sm.FMax)
	}
	if f < sm.FMin {
		f = sm.FMin // running at the lowest level is faster than requested: always deadline-safe
	}
	lo, hi, err := sm.Bracket(f)
	if err != nil {
		return nil, err
	}
	mix := func(theta float64) []schedule.Segment {
		// theta = 0: time-matched mix; theta = 1: all work at hi.
		if hi == lo {
			return []schedule.Segment{{Speed: lo, Duration: w / lo}}
		}
		t := w / f
		aHi0 := (w - lo*t) / (hi - lo) // time-matched share at hi
		aHi := aHi0 + theta*(w/hi-aHi0)
		if aHi < 0 {
			aHi = 0
		}
		aLo := (w - hi*aHi) / lo
		if aLo < 1e-12 {
			return []schedule.Segment{{Speed: hi, Duration: w / hi}}
		}
		if aHi < 1e-12 {
			return []schedule.Segment{{Speed: lo, Duration: w / lo}}
		}
		return []schedule.Segment{{Speed: lo, Duration: aLo}, {Speed: hi, Duration: aHi}}
	}
	failure := func(segs []schedule.Segment) float64 {
		if rel == nil {
			return 0
		}
		p := 0.0
		for _, s := range segs {
			p += rel.FaultRate(s.Speed) * s.Duration
		}
		return p
	}
	segs := mix(0)
	if rel == nil || maxFailure < 0 || failure(segs) <= maxFailure*(1+1e-9) {
		return segs, nil
	}
	if failure(mix(1)) > maxFailure*(1+1e-9) {
		// Even all-work-at-hi misses the bound. This happens on the
		// knife edge where f sits a few ulps above a level (the
		// caller's target was computed at f, unreachable at the level
		// just below) and, more generally, whenever the bound demands a
		// faster level. Escalate: run the whole execution at the lowest
		// level that meets the bound — it is faster than f, so the
		// execution only shortens and stays deadline-safe.
		for _, lv := range sm.Levels {
			if lv < hi {
				continue
			}
			one := []schedule.Segment{{Speed: lv, Duration: w / lv}}
			if failure(one) <= maxFailure*(1+1e-9) {
				return one, nil
			}
		}
		return nil, fmt.Errorf("vdd: cannot meet failure bound %v at any level ≥ %v", maxFailure, hi)
	}
	loTh, hiTh := 0.0, 1.0
	for it := 0; it < 100; it++ {
		mid := 0.5 * (loTh + hiTh)
		if failure(mix(mid)) <= maxFailure {
			hiTh = mid
		} else {
			loTh = mid
		}
	}
	return mix(hiTh), nil
}

// RoundPlan adapts a continuous constant-speed plan to VDD-HOPPING:
// each execution is rounded with RoundExecution, preserving execution
// times (so the continuous schedule's timing remains feasible).
//
// When rel is non-nil, frel must be the TRI-CRIT threshold speed; the
// rounding targets are then taken from the *constraint itself* — the
// full failure threshold λ(frel)·w/frel for a single execution, and
// its square root per execution of a re-executed task (the equal-split
// convention matching the solvers' equal-speed re-executions). This
// keeps every adapted schedule reliability-feasible while giving the
// mix all the slack the continuous solution left, so a continuous
// speed that happens to sit on (or a few ulps off) a ladder level
// rounds losslessly instead of being pushed to the next level.
func RoundPlan(g *dag.Graph, sm model.SpeedModel, speeds, reexec []float64, rel *model.Reliability, frel float64) (*schedule.Plan, error) {
	n := g.N()
	if len(speeds) != n || len(reexec) != n {
		return nil, fmt.Errorf("vdd: plan vectors (%d,%d) for %d tasks", len(speeds), len(reexec), n)
	}
	if rel != nil && (frel <= 0 || frel > sm.FMax*(1+1e-9)) {
		return nil, fmt.Errorf("vdd: frel %v outside (0, fmax]", frel)
	}
	p := &schedule.Plan{First: make([][]schedule.Segment, n), Second: make([][]schedule.Segment, n)}
	for i := 0; i < n; i++ {
		w := g.Weight(i)
		threshold := -1.0
		if rel != nil {
			threshold = rel.FailureProb(w, frel)
		}
		target := threshold
		if rel != nil && reexec[i] > 0 {
			target = math.Sqrt(threshold)
		}
		segs, err := RoundExecution(sm, w, speeds[i], rel, target)
		if err != nil {
			return nil, fmt.Errorf("vdd: task %d first execution: %w", i, err)
		}
		p.First[i] = segs
		if reexec[i] > 0 {
			segs2, err := RoundExecution(sm, w, reexec[i], rel, target)
			if err != nil {
				return nil, fmt.Errorf("vdd: task %d re-execution: %w", i, err)
			}
			p.Second[i] = segs2
		}
	}
	return p, nil
}
