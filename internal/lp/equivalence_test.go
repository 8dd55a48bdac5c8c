package lp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"energysched/internal/listsched"
	"energysched/internal/model"
	"energysched/internal/workload"
)

// randomLP builds a random LP that is feasible by construction (the
// constraints are anchored around a known non-negative point) with a
// mix of senses.
func randomLP(rng *rand.Rand) *Problem {
	n := rng.Intn(20) + 2
	m := rng.Intn(15) + 1
	p := &Problem{NumVars: n, Objective: make([]float64, n)}
	x0 := make([]float64, n)
	for j := range x0 {
		x0[j] = rng.Float64() * 5
		p.Objective[j] = rng.Float64() + 0.05
	}
	for k := 0; k < m; k++ {
		coeffs := make([]float64, n)
		dot := 0.0
		for j := range coeffs {
			coeffs[j] = rng.Float64()*2 - 0.5
			dot += coeffs[j] * x0[j]
		}
		switch rng.Intn(3) {
		case 0:
			p.AddConstraint(coeffs, LE, dot+rng.Float64()+0.1)
		case 1:
			p.AddConstraint(coeffs, GE, dot-rng.Float64()-0.1)
		default:
			p.AddConstraint(coeffs, EQ, dot)
		}
	}
	return p
}

// TestSimplexMatchesReference runs the contiguous-tableau solver and
// the preserved pre-optimization solver over randomized LPs and
// demands identical feasibility verdicts and objectives within 1e-9.
func TestSimplexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 60; trial++ {
		p := randomLP(rng)
		got, errNew := Solve(context.Background(), p)
		want, errRef := refSolve(p)
		if (errNew == nil) != (errRef == nil) {
			t.Fatalf("trial %d: error mismatch: optimized %v vs reference %v", trial, errNew, errRef)
		}
		if errNew != nil {
			if errNew != errRef {
				t.Errorf("trial %d: error %v vs reference %v", trial, errNew, errRef)
			}
			continue
		}
		scale := math.Max(math.Abs(want.Objective), 1)
		if math.Abs(got.Objective-want.Objective)/scale > 1e-9 {
			t.Errorf("trial %d: objective %v vs reference %v", trial, got.Objective, want.Objective)
		}
		for j := range got.X {
			if math.Abs(got.X[j]-want.X[j]) > 1e-7*scale {
				t.Errorf("trial %d: x[%d] = %v vs reference %v", trial, j, got.X[j], want.X[j])
			}
		}
	}
}

// vddShapedLP builds the Section IV BI-CRIT LP the way vdd.SolveBiCrit
// does (α(i,s) then C_i; work, release, precedence and deadline rows)
// for a seeded workload graph, list-scheduled by critical path on
// procs processors over the XScale ladder, with the deadline at twice
// the list makespan at fmax.
func vddShapedLP(t *testing.T, cls workload.Class, n, procs int, seed int64) *Problem {
	t.Helper()
	g := cls.Generate(rand.New(rand.NewSource(seed)), n, workload.UniformWeights)
	ls, err := listsched.CriticalPath(g, procs)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := ls.Mapping.ConstraintGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	levels := model.XScaleLevels()
	deadline := ls.Makespan / levels[len(levels)-1] * 2
	m := len(levels)
	nv := n*m + n
	cIdx := func(i int) int { return n*m + i }
	p := &Problem{NumVars: nv, Objective: make([]float64, nv)}
	for i := 0; i < n; i++ {
		for s, f := range levels {
			p.Objective[i*m+s] = f * f * f
		}
	}
	for i := 0; i < n; i++ {
		row := make([]float64, nv)
		for s, f := range levels {
			row[i*m+s] = f
		}
		p.AddConstraint(row, EQ, g.Weight(i))
	}
	for i := 0; i < n; i++ {
		row := make([]float64, nv)
		row[cIdx(i)] = 1
		for s := range levels {
			row[i*m+s] = -1
		}
		p.AddConstraint(row, GE, 0)
	}
	for _, e := range cg.Edges() {
		u, v := e[0], e[1]
		row := make([]float64, nv)
		row[cIdx(v)] = 1
		row[cIdx(u)] = -1
		for s := range levels {
			row[v*m+s] = -1
		}
		p.AddConstraint(row, GE, 0)
	}
	for i := 0; i < n; i++ {
		row := make([]float64, nv)
		row[cIdx(i)] = 1
		p.AddConstraint(row, LE, deadline)
	}
	return p
}

// TestSimplexBitIdenticalToReference demands that Solve and the
// preserved reference solver agree bit for bit: the same error, and
// equal math.Float64bits of every X entry and of the objective. Any
// change to the pivot sequence or to the summation order of a
// reduced cost or an elimination shows up here, even where
// TestSimplexMatchesReference's tolerance would hide it.
func TestSimplexBitIdenticalToReference(t *testing.T) {
	check := func(name string, p *Problem) {
		t.Helper()
		got, errNew := Solve(context.Background(), p)
		want, errRef := refSolve(p)
		if fmt.Sprint(errNew) != fmt.Sprint(errRef) {
			t.Fatalf("%s: error %v vs reference %v", name, errNew, errRef)
		}
		if errNew != nil {
			return
		}
		if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Errorf("%s: objective %v vs reference %v", name, got.Objective, want.Objective)
		}
		for j := range want.X {
			if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
				t.Errorf("%s: x[%d] = %v vs reference %v", name, j, got.X[j], want.X[j])
				return
			}
		}
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		check(fmt.Sprintf("random LP %d", trial), randomLP(rng))
	}
	// The solve-cold shape, then twice its size. The race detector
	// slows the reference solver some 25×, and the arithmetic it
	// checks is the same in either build, so -race runs one seed per
	// class.
	shapes := []struct{ n, procs int }{{16, 2}, {32, 4}}
	seeds := int64(20)
	if raceEnabled {
		seeds = 1
	}
	for _, sh := range shapes {
		for _, cls := range workload.AllClasses() {
			for seed := int64(1); seed <= seeds; seed++ {
				check(fmt.Sprintf("vdd %v n=%d seed %d", cls, sh.n, seed), vddShapedLP(t, cls, sh.n, sh.procs, seed))
			}
		}
	}
}
