package core

import (
	"context"
	"fmt"
	"time"
)

// Result is a solved instance plus solver diagnostics. It embeds the
// legacy Solution so existing field access (Schedule, Energy, Method,
// Exact) keeps working.
type Result struct {
	Solution
	// Solver is the registry name of the solver that produced the
	// result (Method may be more specific, e.g. the VDD-adapted
	// TRI-CRIT heuristics append "+vdd-round").
	Solver string
	// LowerBound is the strongest known lower bound on the optimal
	// energy, 0 when none is available. Exact solvers report their own
	// energy.
	LowerBound float64
	// WallTime is the measured solve duration.
	WallTime time.Duration
	// Nodes counts branch-and-bound nodes (exact DISCRETE solver
	// only).
	Nodes int64
	// Iterations counts inner solver iterations (continuous barrier
	// solver only).
	Iterations int
}

// Gap returns the relative optimality gap Energy/LowerBound − 1,
// clamped to 0 when float drift leaves the reported bound a few ulps
// above the energy (exact solvers report their own energy as the
// bound, so tiny negative raw gaps are noise, not information). It
// returns −1 only when no lower bound is available, keeping the two
// cases — "no bound" and "bound met exactly" — distinguishable.
func (r *Result) Gap() float64 {
	if r.LowerBound <= 0 {
		return -1
	}
	if g := r.Energy/r.LowerBound - 1; g > 0 {
		return g
	}
	return 0
}

// Solve is the single entry point of the library: it validates the
// instance, resolves a solver — the one pinned with WithSolver, or the
// best registered solver for the instance's problem kind, speed model
// and options — runs it under the context (honoring cancellation and
// WithTimeout), and returns the result with diagnostics attached. The
// produced schedule is re-validated against the instance constraints
// unless WithValidation(false) is given.
func Solve(ctx context.Context, in *Instance, opts ...Option) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := newConfig(opts...)
	if err != nil {
		return nil, err
	}
	return solve(ctx, in, cfg, false)
}

// solve runs the dispatch/execute/validate pipeline for an
// already-built Config. waitAbandoned is set by the SolveAll worker
// pool: a cancelled or timed-out solve then still waits for the
// (CPU-bound, non-preemptible) solver goroutine to finish before
// returning, so the pool's Workers cap bounds real concurrency
// instead of piling up abandoned solvers.
func solve(ctx context.Context, in *Instance, cfg *Config, waitAbandoned bool) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	solver, err := dispatch(in, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := runSolver(ctx, solver, in, cfg, waitAbandoned)
	if err != nil {
		return nil, err
	}
	res.Solver = solver.Name()
	res.WallTime = time.Since(start)
	if cfg.Validate {
		if err := res.Schedule.Validate(in.Constraints()); err != nil {
			return nil, fmt.Errorf("core: solver %q produced an invalid schedule: %w", solver.Name(), err)
		}
	}
	return res, nil
}

// runSolver executes the solver in a goroutine so that a cancelled or
// expired context unblocks the caller even while the (CPU-bound,
// non-preemptible) algorithm is still running. Without wait, an
// abandoned solver goroutine finishes on its own and its result is
// dropped; with wait, the call blocks until the goroutine exits so
// callers can bound total concurrency. A solver that checks ctx, such
// as vdd-lp, exits within a few pivots either way.
//
// A panic inside the solver is re-raised in the calling goroutine
// rather than crashing the process from an anonymous one: the caller
// (an HTTP handler behind recovery middleware, a SolveAll worker, a
// job executor) owns the decision of how to contain it.
func runSolver(ctx context.Context, s Solver, in *Instance, cfg *Config, wait bool) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	type outcome struct {
		res      *Result
		err      error
		panicked any
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{panicked: r}
			}
		}()
		res, err := s.Solve(ctx, in, cfg)
		done <- outcome{res: res, err: err}
	}()
	select {
	case <-ctx.Done():
		if wait {
			if o := <-done; o.panicked != nil {
				panic(o.panicked)
			}
		}
		return nil, ctx.Err()
	case o := <-done:
		if o.panicked != nil {
			panic(o.panicked)
		}
		return o.res, o.err
	}
}
