// Package core is the public facade of the library: problem instances
// (graph + mapping + speed model + deadline + optional reliability),
// a single context-aware Solve entry point backed by a pluggable
// solver registry covering the paper's four speed models for both the
// BI-CRIT and TRI-CRIT problems, a parallel SolveAll batch API, and
// JSON (de)serialization for the command-line tools.
package core

import (
	"errors"
	"fmt"

	"energysched/internal/convex"
	"energysched/internal/dag"
	"energysched/internal/discrete"
	"energysched/internal/model"
	"energysched/internal/platform"
	"energysched/internal/schedule"
	"energysched/internal/tricrit"
	"energysched/internal/vdd"
)

// Instance is a complete problem description. Rel == nil selects
// BI-CRIT (Definition 1); Rel != nil adds the reliability constraints
// of TRI-CRIT (Definition 2) with threshold speed FRel.
type Instance struct {
	Graph    *dag.Graph
	Mapping  *platform.Mapping
	Speed    model.SpeedModel
	Deadline float64
	Rel      *model.Reliability
	FRel     float64
}

// TriCrit reports whether reliability constraints are active.
func (in *Instance) TriCrit() bool { return in.Rel != nil }

// Validate checks the instance end to end.
func (in *Instance) Validate() error {
	if in.Graph == nil || in.Mapping == nil {
		return errors.New("core: instance needs graph and mapping")
	}
	if err := in.Graph.Validate(); err != nil {
		return err
	}
	if err := in.Mapping.Validate(in.Graph); err != nil {
		return err
	}
	if err := in.Speed.Validate(); err != nil {
		return err
	}
	if err := model.CheckDeadline(in.Deadline); err != nil {
		return err
	}
	if in.Rel != nil {
		if err := in.Rel.Validate(); err != nil {
			return err
		}
		if in.FRel <= 0 || in.FRel > in.Speed.FMax*(1+1e-12) {
			return fmt.Errorf("core: frel %v outside (0, fmax]", in.FRel)
		}
	}
	return nil
}

// Constraints returns the validator constraints matching the instance.
func (in *Instance) Constraints() schedule.Constraints {
	c := schedule.Constraints{Model: in.Speed, Deadline: in.Deadline}
	if in.Rel != nil {
		c.Rel = in.Rel
		c.FRel = in.FRel
	}
	return c
}

// Solution is a solved instance: a validated schedule plus metadata.
type Solution struct {
	Schedule *schedule.Schedule
	Energy   float64
	// Method names the algorithm that produced the solution.
	Method string
	// Exact reports whether the energy is provably optimal for the
	// instance's model.
	Exact bool
}

// ErrInfeasible is returned when no schedule can meet the constraints.
var ErrInfeasible = errors.New("core: infeasible instance")

func mapInfeasible(err error) error {
	switch err {
	case convex.ErrInfeasible, vdd.ErrInfeasible, discrete.ErrInfeasible, tricrit.ErrInfeasible:
		return ErrInfeasible
	default:
		return err
	}
}

// Strategy selects a TRI-CRIT algorithm.
type Strategy int

const (
	// StrategyBestOf runs both heuristic families and keeps the best
	// (the paper's recommended combination).
	StrategyBestOf Strategy = iota
	// StrategyChainFirst uses only the chain-oriented greedy.
	StrategyChainFirst
	// StrategyParallelFirst uses only the slack-oriented greedy.
	StrategyParallelFirst
	// StrategyExact enumerates re-execution subsets (small n only).
	StrategyExact
)

func (s Strategy) String() string {
	switch s {
	case StrategyBestOf:
		return "best-of"
	case StrategyChainFirst:
		return "chain-first"
	case StrategyParallelFirst:
		return "parallel-first"
	case StrategyExact:
		return "exact"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy is the inverse of Strategy.String, for flag parsing.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "best-of":
		return StrategyBestOf, nil
	case "chain-first":
		return StrategyChainFirst, nil
	case "parallel-first":
		return StrategyParallelFirst, nil
	case "exact":
		return StrategyExact, nil
	default:
		return 0, fmt.Errorf("core: unknown strategy %q", s)
	}
}
