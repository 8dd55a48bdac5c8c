package core

import (
	"context"
	"fmt"
	"sync"

	"energysched/internal/convex"
	"energysched/internal/discrete"
	"energysched/internal/model"
	"energysched/internal/schedule"
	"energysched/internal/tricrit"
	"energysched/internal/vdd"
)

// Built-in solver names, as registered in init.
const (
	SolverContinuousConvex = "continuous-convex"
	SolverVddLP            = "vdd-lp"
	SolverDiscreteBB       = "discrete-bb"
	SolverDiscreteRoundUp  = "discrete-roundup"
)

// TriCritSolverName returns the registry name of the TRI-CRIT solver
// implementing the given strategy, e.g. "tricrit-best-of".
func TriCritSolverName(s Strategy) string { return "tricrit-" + s.String() }

func init() {
	Register(SolverContinuousConvex, continuousSolver{})
	Register(SolverVddLP, vddSolver{})
	Register(SolverDiscreteBB, discreteExactSolver{})
	Register(SolverDiscreteRoundUp, discreteRoundUpSolver{})
	for _, s := range []Strategy{StrategyBestOf, StrategyChainFirst, StrategyParallelFirst, StrategyExact} {
		Register(TriCritSolverName(s), triCritSolver{strat: s})
	}
}

// continuousSolver wraps the barrier-method convex program for the
// CONTINUOUS BI-CRIT problem — exact.
type continuousSolver struct{}

func (continuousSolver) Name() string  { return SolverContinuousConvex }
func (continuousSolver) priority() int { return 100 }

func (continuousSolver) Supports(in *Instance) bool {
	return !in.TriCrit() && in.Speed.Kind == model.Continuous
}

// convexWorkspaces pools barrier-solver workspaces across Solve
// calls, so repeated service requests reuse the flat Hessian and
// Newton buffers instead of reallocating them per request.
var convexWorkspaces = sync.Pool{New: func() any { return convex.NewWorkspace() }}

func (continuousSolver) Solve(ctx context.Context, in *Instance, cfg *Config) (*Result, error) {
	cg, err := in.Mapping.ConstraintGraph(in.Graph)
	if err != nil {
		return nil, err
	}
	n := in.Graph.N()
	lo := make([]float64, n)
	hi := make([]float64, n)
	for i := range lo {
		lo[i] = in.Speed.FMin
		hi[i] = in.Speed.FMax
	}
	ws := convexWorkspaces.Get().(*convex.Workspace)
	res, err := convex.MinimizeEnergyWS(ws, cg, in.Deadline, in.Graph.Weights(), lo, hi, convex.Options{})
	convexWorkspaces.Put(ws)
	if err != nil {
		return nil, mapInfeasible(err)
	}
	s, err := schedule.FromDurations(in.Graph, in.Mapping, res.Durations)
	if err != nil {
		return nil, err
	}
	return &Result{
		Solution:   Solution{Schedule: s, Energy: res.Energy, Method: "continuous-convex", Exact: true},
		LowerBound: res.Energy,
		Iterations: res.Iterations,
	}, nil
}

// vddSolver wraps the Section IV linear program for VDD-HOPPING
// BI-CRIT — exact, polynomial.
type vddSolver struct{}

func (vddSolver) Name() string  { return SolverVddLP }
func (vddSolver) priority() int { return 100 }

func (vddSolver) Supports(in *Instance) bool {
	return !in.TriCrit() && in.Speed.Kind == model.VddHopping
}

func (vddSolver) Solve(ctx context.Context, in *Instance, cfg *Config) (*Result, error) {
	res, err := vdd.SolveBiCrit(ctx, in.Graph, in.Mapping, in.Speed, in.Deadline)
	if err != nil {
		return nil, mapInfeasible(err)
	}
	s, err := res.Schedule(in.Graph, in.Mapping)
	if err != nil {
		return nil, err
	}
	return &Result{
		Solution:   Solution{Schedule: s, Energy: res.Energy, Method: "vdd-lp", Exact: true},
		LowerBound: res.Energy,
	}, nil
}

// discreteExactSolver wraps the exact branch-and-bound for DISCRETE
// and INCREMENTAL BI-CRIT. The problem is NP-complete, so
// auto-dispatch gates it behind Config.ExactSizeLimit; WithSolver can
// force it on instances of any size.
type discreteExactSolver struct{}

func (discreteExactSolver) Name() string  { return SolverDiscreteBB }
func (discreteExactSolver) priority() int { return 60 }

func (discreteExactSolver) Supports(in *Instance) bool {
	return !in.TriCrit() && (in.Speed.Kind == model.Discrete || in.Speed.Kind == model.Incremental)
}

func (discreteExactSolver) dispatchable(in *Instance, cfg *Config) bool {
	return in.Graph.N()*in.Speed.NumLevels() <= cfg.ExactSizeLimit
}

func (discreteExactSolver) Solve(ctx context.Context, in *Instance, cfg *Config) (*Result, error) {
	// Always the sequential search here: discrete.SolveExactParallel
	// returns bit-identical energies and assignments, but its Nodes
	// diagnostic depends on cross-subtree pruning timing, and Nodes is
	// part of the serialized Result while Config.Fingerprint excludes
	// Workers — auto-dispatching on cfg.Workers would make cached
	// response bytes depend on which path populated them (and stack
	// Workers² goroutines under SolveAll). Callers who want the
	// parallel search use discrete.SolveExactParallel directly.
	res, err := discrete.SolveExact(in.Graph, in.Mapping, in.Speed, in.Deadline)
	if err != nil {
		return nil, mapInfeasible(err)
	}
	s, err := res.Schedule(in.Graph, in.Mapping)
	if err != nil {
		return nil, err
	}
	return &Result{
		Solution:   Solution{Schedule: s, Energy: res.Energy, Method: "discrete-bb", Exact: true},
		LowerBound: res.Energy,
		Nodes:      res.Nodes,
	}, nil
}

// discreteRoundUpSolver wraps the polynomial round-up approximation
// for DISCRETE and INCREMENTAL BI-CRIT, guarantee
// (1+δ/fmin)²·(1+1/K)². It is the auto-dispatch fallback above the
// exact size limit.
type discreteRoundUpSolver struct{}

func (discreteRoundUpSolver) Name() string  { return SolverDiscreteRoundUp }
func (discreteRoundUpSolver) priority() int { return 50 }

func (discreteRoundUpSolver) Supports(in *Instance) bool {
	return !in.TriCrit() && (in.Speed.Kind == model.Discrete || in.Speed.Kind == model.Incremental)
}

func (discreteRoundUpSolver) Solve(ctx context.Context, in *Instance, cfg *Config) (*Result, error) {
	res, err := discrete.Approximate(in.Graph, in.Mapping, in.Speed, in.Deadline, cfg.RoundUpK)
	if err != nil {
		return nil, mapInfeasible(err)
	}
	s, err := res.Schedule(in.Graph, in.Mapping)
	if err != nil {
		return nil, err
	}
	return &Result{
		Solution:   Solution{Schedule: s, Energy: res.Energy, Method: "discrete-roundup", Exact: false},
		LowerBound: res.ContinuousEnergy,
	}, nil
}

// triCritSolver wraps one TRI-CRIT strategy. Under CONTINUOUS speeds
// the strategy runs directly; under VDD-HOPPING the continuous
// solution is adapted by mixing the two closest levels per execution
// while preserving execution times and reliability (Section IV). The
// DISCRETE and INCREMENTAL models have no TRI-CRIT solver in the
// paper, so Supports rejects them.
type triCritSolver struct{ strat Strategy }

func (t triCritSolver) Name() string { return TriCritSolverName(t.strat) }
func (triCritSolver) priority() int  { return 80 }

func (triCritSolver) Supports(in *Instance) bool {
	return in.TriCrit() && (in.Speed.Kind == model.Continuous || in.Speed.Kind == model.VddHopping)
}

func (t triCritSolver) dispatchable(in *Instance, cfg *Config) bool {
	return cfg.Strategy == t.strat
}

func (t triCritSolver) Solve(ctx context.Context, in *Instance, cfg *Config) (*Result, error) {
	tin := tricrit.Instance{
		Deadline: in.Deadline,
		FMin:     in.Speed.FMin,
		FMax:     in.Speed.FMax,
		FRel:     in.FRel,
		Rel:      *in.Rel,
	}
	cfgT, err := runStrategy(in, tin, t.strat)
	if err != nil {
		return nil, mapInfeasible(err)
	}
	res := &Result{}
	// The BI-CRIT relaxation (no reliability constraint) bounds every
	// TRI-CRIT solution from below. It costs an extra convex solve, so
	// the heuristics only compute it on request; the exact solver is
	// its own bound.
	if t.strat != StrategyExact && cfg.LowerBound {
		if lb, err := tricrit.BiCritLowerBound(in.Graph, in.Mapping, tin); err == nil {
			res.LowerBound = lb
		}
	}
	switch in.Speed.Kind {
	case model.Continuous:
		s, err := cfgT.Schedule(in.Graph, in.Mapping)
		if err != nil {
			return nil, err
		}
		res.Solution = Solution{Schedule: s, Energy: s.Energy(), Method: "tricrit-" + t.strat.String(), Exact: t.strat == StrategyExact}
	case model.VddHopping:
		plan, err := vdd.RoundPlan(in.Graph, in.Speed, cfgT.Speeds, cfgT.ReExecSpeeds(), in.Rel, in.FRel)
		if err != nil {
			return nil, err
		}
		s, err := schedule.FromPlan(in.Graph, in.Mapping, plan)
		if err != nil {
			return nil, err
		}
		res.Solution = Solution{Schedule: s, Energy: s.Energy(), Method: "tricrit-" + t.strat.String() + "+vdd-round", Exact: false}
	default:
		return nil, fmt.Errorf("core: unknown speed model %v", in.Speed.Kind)
	}
	if t.strat == StrategyExact {
		switch in.Speed.Kind {
		case model.Continuous:
			res.LowerBound = res.Energy
		case model.VddHopping:
			// The continuous-exact energy before level-mixing is a
			// valid bound: rounding onto the ladder can only add
			// energy (speed convexity), and it is already computed.
			res.LowerBound = cfgT.Energy
		}
	}
	return res, nil
}

func runStrategy(in *Instance, tin tricrit.Instance, strat Strategy) (*tricrit.Config, error) {
	switch strat {
	case StrategyBestOf:
		return tricrit.BestOf(in.Graph, in.Mapping, tin)
	case StrategyChainFirst:
		return tricrit.DAGChainFirst(in.Graph, in.Mapping, tin)
	case StrategyParallelFirst:
		return tricrit.DAGParallelFirst(in.Graph, in.Mapping, tin)
	case StrategyExact:
		return tricrit.SolveDAGExact(in.Graph, in.Mapping, tin)
	default:
		return nil, fmt.Errorf("core: unknown strategy %v", strat)
	}
}
