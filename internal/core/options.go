package core

import (
	"fmt"
	"runtime"
	"time"
)

// Defaults for the tunable solving knobs, used by Solve when no option
// overrides them.
const (
	// DefaultExactSizeLimit is the largest n·levels product for which
	// auto-dispatch uses the exponential exact DISCRETE solver before
	// falling back to the round-up approximation.
	DefaultExactSizeLimit = 64
	// DefaultRoundUpK is the accuracy parameter K of the round-up
	// approximation, with guarantee (1+δ/fmin)²·(1+1/K)².
	DefaultRoundUpK = 10
)

// Config carries every tunable the solvers consult. Zero values are
// replaced by defaults in newConfig; user code sets fields through the
// functional Option list of Solve/SolveAll and never constructs a
// Config directly.
type Config struct {
	// Solver pins a registered solver by name; empty selects by
	// capability through the registry.
	Solver string
	// Strategy selects among the TRI-CRIT heuristic families during
	// auto-dispatch.
	Strategy Strategy
	// ExactSizeLimit bounds n·levels for the exact DISCRETE solver
	// during auto-dispatch.
	ExactSizeLimit int
	// RoundUpK is the K of the round-up approximation.
	RoundUpK int
	// Timeout, when positive, bounds the wall time of each Solve call.
	Timeout time.Duration
	// Validate re-checks the produced schedule against the instance
	// constraints before returning (on by default).
	Validate bool
	// LowerBound enables optimality bounds that require extra solver
	// work (an additional convex relaxation for the TRI-CRIT
	// heuristics). Bounds that fall out of the solve itself are always
	// reported.
	LowerBound bool
	// Workers caps the SolveAll worker pool.
	Workers int
}

// Option mutates a Config. Options are applied in order, so later
// options win.
type Option func(*Config)

// WithSolver pins a registered solver by name instead of dispatching
// by capability. Solve fails if the name is unknown or the solver does
// not support the instance.
func WithSolver(name string) Option { return func(c *Config) { c.Solver = name } }

// WithStrategy selects the TRI-CRIT heuristic family used by
// auto-dispatch (default StrategyBestOf). It has no effect on BI-CRIT
// instances.
func WithStrategy(s Strategy) Option { return func(c *Config) { c.Strategy = s } }

// WithExactSizeLimit sets the largest n·levels product for which
// auto-dispatch prefers the exact branch-and-bound DISCRETE solver
// (default DefaultExactSizeLimit). Zero sends every DISCRETE instance
// to the approximation.
func WithExactSizeLimit(n int) Option { return func(c *Config) { c.ExactSizeLimit = n } }

// WithRoundUpK sets the accuracy parameter K ≥ 1 of the round-up
// approximation (default DefaultRoundUpK).
func WithRoundUpK(k int) Option { return func(c *Config) { c.RoundUpK = k } }

// WithTimeout bounds the wall time of each Solve call; on expiry Solve
// returns context.DeadlineExceeded. Zero means no limit beyond the
// caller's context.
func WithTimeout(d time.Duration) Option { return func(c *Config) { c.Timeout = d } }

// WithValidation toggles post-solve schedule validation (on by
// default; turn off to shave the validator from hot batch paths).
func WithValidation(on bool) Option { return func(c *Config) { c.Validate = on } }

// WithWorkers caps the SolveAll worker pool (default GOMAXPROCS).
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithLowerBound enables optimality lower bounds that cost extra
// solver work — currently the BI-CRIT convex relaxation the TRI-CRIT
// heuristics report through Result.LowerBound/Gap. Off by default;
// bounds that are free by-products of the solve are always reported.
func WithLowerBound(on bool) Option { return func(c *Config) { c.LowerBound = on } }

// newConfig applies the options over the defaults and validates the
// resulting configuration.
func newConfig(opts ...Option) (*Config, error) {
	c := &Config{
		Strategy:       StrategyBestOf,
		ExactSizeLimit: DefaultExactSizeLimit,
		RoundUpK:       DefaultRoundUpK,
		Validate:       true,
		Workers:        runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(c)
	}
	if c.ExactSizeLimit < 0 {
		return nil, fmt.Errorf("core: exact size limit must be ≥ 0, got %d", c.ExactSizeLimit)
	}
	if c.RoundUpK < 1 {
		return nil, fmt.Errorf("core: round-up K must be ≥ 1, got %d", c.RoundUpK)
	}
	if c.Timeout < 0 {
		return nil, fmt.Errorf("core: timeout must be ≥ 0, got %v", c.Timeout)
	}
	if c.Workers < 1 {
		return nil, fmt.Errorf("core: workers must be ≥ 1, got %d", c.Workers)
	}
	return c, nil
}
