package vdd

import (
	"context"
	"fmt"
	"math"

	"energysched/internal/dag"
	"energysched/internal/lp"
	"energysched/internal/model"
	"energysched/internal/platform"
	"energysched/internal/schedule"
)

// TRI-CRIT under VDD-HOPPING (Section IV). The paper shows the
// problem NP-complete; the hardness lives in choosing the re-execution
// set and in splitting the reliability budget between the two
// executions of a re-executed task. For a *fixed* re-execution set and
// the equal-split convention (each execution of a re-executed task
// gets failure budget √(λ(frel)·w/frel) — the analogue of the paper's
// equal-speed re-executions), everything that remains is linear:
//
//   - work:        Σ_s α(i,s)·f_s = wᵢ  per execution;
//   - reliability: Σ_s λ(f_s)·α(i,s) ≤ budget(i)  (linear because the
//     linearized failure probability is additive over segments);
//   - timing:      completion variables over the constraint graph, with
//     a task's occupancy the sum of both executions;
//   - objective:   Σ α(i,s)·f_s³.
//
// SolveTriCritFixed solves that LP; SolveTriCritRestricted enumerates
// re-execution subsets (exponential — the problem is NP-complete) and
// is the strongest VDD-feasible baseline the experiments compare the
// paper's continuous→VDD adaptation against.

// TriCritResult is a TRI-CRIT VDD-HOPPING solution.
type TriCritResult struct {
	Levels []float64
	// Alpha1[i][s] is the time of task i's first execution at level s;
	// Alpha2[i] is nil for tasks executed once.
	Alpha1, Alpha2 [][]float64
	// Durations[i] is the total processor occupancy of task i.
	Durations []float64
	// Energy is the worst-case energy (both executions always billed).
	Energy float64
}

// SolveTriCritFixed solves TRI-CRIT under VDD-HOPPING for a fixed
// re-execution set with the equal-split reliability budget. It stops
// early with ctx.Err() once ctx is done.
func SolveTriCritFixed(ctx context.Context, g *dag.Graph, mp *platform.Mapping, sm model.SpeedModel, deadline float64, rel model.Reliability, frel float64, reexec []bool) (*TriCritResult, error) {
	if sm.Kind != model.VddHopping {
		return nil, fmt.Errorf("vdd: speed model is %v, want VDD-HOPPING", sm.Kind)
	}
	if err := sm.Validate(); err != nil {
		return nil, err
	}
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	if err := model.CheckDeadline(deadline); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.N()
	if len(reexec) != n {
		return nil, fmt.Errorf("vdd: reexec length %d for %d tasks", len(reexec), n)
	}
	if frel <= 0 || frel > sm.FMax*(1+1e-12) {
		return nil, fmt.Errorf("vdd: frel %v outside (0, fmax]", frel)
	}
	cg, err := mp.ConstraintGraph(g)
	if err != nil {
		return nil, err
	}
	m := len(sm.Levels)

	// Execution slots: one per task plus one per re-executed task.
	slotOf1 := make([]int, n)
	slotOf2 := make([]int, n)
	slots := 0
	for i := 0; i < n; i++ {
		slotOf1[i] = slots
		slots++
		if reexec[i] {
			slotOf2[i] = slots
			slots++
		} else {
			slotOf2[i] = -1
		}
	}
	nv := slots*m + n // α variables then C variables
	aIdx := func(slot, s int) int { return slot*m + s }
	cIdx := func(i int) int { return slots*m + i }

	edges := cg.Edges()
	nRows := 2*slots + 2*n + len(edges)
	rows := newRowSlab(nRows, nv)
	prob := &lp.Problem{NumVars: nv, Objective: make([]float64, nv), Constraints: make([]lp.Constraint, 0, nRows)}
	for slot := 0; slot < slots; slot++ {
		for s := 0; s < m; s++ {
			f := sm.Levels[s]
			prob.Objective[aIdx(slot, s)] = f * f * f
		}
	}
	addWork := func(slot int, w float64) {
		row := rows.next()
		for s := 0; s < m; s++ {
			row[aIdx(slot, s)] = sm.Levels[s]
		}
		prob.AddConstraint(row, lp.EQ, w)
	}
	addRel := func(slot int, budget float64) {
		row := rows.next()
		for s := 0; s < m; s++ {
			row[aIdx(slot, s)] = rel.FaultRate(sm.Levels[s])
		}
		prob.AddConstraint(row, lp.LE, budget)
	}
	for i := 0; i < n; i++ {
		w := g.Weight(i)
		threshold := rel.FailureProb(w, frel)
		addWork(slotOf1[i], w)
		if reexec[i] {
			addWork(slotOf2[i], w)
			budget := math.Sqrt(threshold)
			addRel(slotOf1[i], budget)
			addRel(slotOf2[i], budget)
		} else {
			addRel(slotOf1[i], threshold)
		}
	}
	// Occupancy of task i = Σ over its slots of Σ_s α.
	occRow := func(i int, row []float64, sign float64) {
		for s := 0; s < m; s++ {
			row[aIdx(slotOf1[i], s)] += sign
			if reexec[i] {
				row[aIdx(slotOf2[i], s)] += sign
			}
		}
	}
	// Release: C_i ≥ occupancy(i).
	for i := 0; i < n; i++ {
		row := rows.next()
		row[cIdx(i)] = 1
		occRow(i, row, -1)
		prob.AddConstraint(row, lp.GE, 0)
	}
	// Precedence: C_v ≥ C_u + occupancy(v).
	for _, e := range edges {
		u, v := e[0], e[1]
		row := rows.next()
		row[cIdx(v)] = 1
		row[cIdx(u)] = -1
		occRow(v, row, -1)
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
	res := &TriCritResult{
		Levels:    append([]float64(nil), sm.Levels...),
		Alpha1:    make([][]float64, n),
		Alpha2:    make([][]float64, n),
		Durations: make([]float64, n),
		Energy:    sol.Objective,
	}
	read := func(slot int) []float64 {
		out := make([]float64, m)
		for s := 0; s < m; s++ {
			a := sol.X[aIdx(slot, s)]
			if a < 0 {
				a = 0
			}
			out[s] = a
		}
		return out
	}
	for i := 0; i < n; i++ {
		res.Alpha1[i] = read(slotOf1[i])
		for _, a := range res.Alpha1[i] {
			res.Durations[i] += a
		}
		if reexec[i] {
			res.Alpha2[i] = read(slotOf2[i])
			for _, a := range res.Alpha2[i] {
				res.Durations[i] += a
			}
		}
	}
	return res, nil
}

// MaxTriCritExactTasks caps the subset enumeration.
const MaxTriCritExactTasks = 14

// SolveTriCritRestricted enumerates every re-execution subset and
// solves the fixed-set LP for each — exact within the equal-split
// class, exponential overall (the problem is NP-complete). Returns the
// best result and its re-execution set. It stops early with ctx.Err()
// once ctx is done.
func SolveTriCritRestricted(ctx context.Context, g *dag.Graph, mp *platform.Mapping, sm model.SpeedModel, deadline float64, rel model.Reliability, frel float64) (*TriCritResult, []bool, error) {
	n := g.N()
	if n > MaxTriCritExactTasks {
		return nil, nil, fmt.Errorf("vdd: %d tasks exceed exact-solver cap %d", n, MaxTriCritExactTasks)
	}
	var best *TriCritResult
	var bestSet []bool
	reexec := make([]bool, n)
	for mask := 0; mask < 1<<uint(n); mask++ {
		for i := 0; i < n; i++ {
			reexec[i] = mask&(1<<uint(i)) != 0
		}
		res, err := SolveTriCritFixed(ctx, g, mp, sm, deadline, rel, frel, reexec)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, nil, ctxErr
			}
			continue
		}
		if best == nil || res.Energy < best.Energy {
			best = res
			bestSet = append([]bool(nil), reexec...)
		}
	}
	if best == nil {
		return nil, nil, ErrInfeasible
	}
	return best, bestSet, nil
}

// Plan converts the solution into executable segments.
func (r *TriCritResult) Plan(g *dag.Graph) *schedule.Plan {
	n := g.N()
	p := &schedule.Plan{First: make([][]schedule.Segment, n), Second: make([][]schedule.Segment, n)}
	toSegs := func(alpha []float64) []schedule.Segment {
		var segs []schedule.Segment
		for s, a := range alpha {
			if a > AlphaEps {
				segs = append(segs, schedule.Segment{Speed: r.Levels[s], Duration: a})
			}
		}
		if len(segs) == 0 {
			top := r.Levels[len(r.Levels)-1]
			segs = []schedule.Segment{{Speed: top, Duration: 0}}
		}
		return segs
	}
	for i := 0; i < n; i++ {
		p.First[i] = toSegs(r.Alpha1[i])
		if r.Alpha2[i] != nil {
			p.Second[i] = toSegs(r.Alpha2[i])
		}
	}
	return p
}

// MaxSpeedsPerExecution returns the largest number of distinct levels
// any single execution mixes — the reliability-aware version of the
// two-speed measurement.
func (r *TriCritResult) MaxSpeedsPerExecution() int {
	count := func(alpha []float64) int {
		k := 0
		for _, a := range alpha {
			if a > AlphaEps {
				k++
			}
		}
		return k
	}
	mx := 0
	for i := range r.Alpha1 {
		if k := count(r.Alpha1[i]); k > mx {
			mx = k
		}
		if r.Alpha2[i] != nil {
			if k := count(r.Alpha2[i]); k > mx {
				mx = k
			}
		}
	}
	return mx
}
