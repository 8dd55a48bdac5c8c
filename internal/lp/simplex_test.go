package lp

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSimpleLE(t *testing.T) {
	// min -x1 - 2x2  s.t. x1 + x2 ≤ 4, x2 ≤ 2 → x = (2,2), obj = -6.
	p := &Problem{NumVars: 2, Objective: []float64{-1, -2}}
	p.AddConstraint([]float64{1, 1}, LE, 4)
	p.AddConstraint([]float64{0, 1}, LE, 2)
	s, err := Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(s.Objective, -6, 1e-7) {
		t.Errorf("obj = %v, want -6 (x=%v)", s.Objective, s.X)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x1 + x2  s.t. x1 + 2x2 = 4 → x = (0,2), obj = 2.
	p := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	p.AddConstraint([]float64{1, 2}, EQ, 4)
	s, err := Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(s.Objective, 2, 1e-7) {
		t.Errorf("obj = %v, want 2 (x=%v)", s.Objective, s.X)
	}
}

func TestGEConstraint(t *testing.T) {
	// min 2x1 + 3x2  s.t. x1 + x2 ≥ 10, x1 ≤ 4 → x = (4,6), obj = 26.
	p := &Problem{NumVars: 2, Objective: []float64{2, 3}}
	p.AddConstraint([]float64{1, 1}, GE, 10)
	p.AddConstraint([]float64{1, 0}, LE, 4)
	s, err := Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(s.Objective, 26, 1e-7) {
		t.Errorf("obj = %v, want 26 (x=%v)", s.Objective, s.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{NumVars: 1, Objective: []float64{1}}
	p.AddConstraint([]float64{1}, GE, 5)
	p.AddConstraint([]float64{1}, LE, 3)
	if _, err := Solve(context.Background(), p); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	p := &Problem{NumVars: 1, Objective: []float64{-1}}
	p.AddConstraint([]float64{-1}, LE, 0) // x ≥ 0 only
	if _, err := Solve(context.Background(), p); err != ErrUnbounded {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x1 ≤ -2  ⇔  x1 ≥ 2; min x1 → 2.
	p := &Problem{NumVars: 1, Objective: []float64{1}}
	p.AddConstraint([]float64{-1}, LE, -2)
	s, err := Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(s.X[0], 2, 1e-7) {
		t.Errorf("x = %v, want 2", s.X[0])
	}
}

func TestDegenerateLP(t *testing.T) {
	// Degenerate vertex at origin; Bland's rule must still terminate.
	p := &Problem{NumVars: 3, Objective: []float64{-0.75, 150, -0.02}}
	p.AddConstraint([]float64{0.25, -60, -0.04}, LE, 0)
	p.AddConstraint([]float64{0.5, -90, -0.02}, LE, 0)
	p.AddConstraint([]float64{0, 0, 1}, LE, 1)
	s, err := Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Objective > 0 {
		t.Errorf("obj = %v, expected ≤ 0", s.Objective)
	}
}

func TestRedundantEqualities(t *testing.T) {
	// Duplicated equality rows: phase 1 must cope with redundancy.
	p := &Problem{NumVars: 2, Objective: []float64{1, 2}}
	p.AddConstraint([]float64{1, 1}, EQ, 3)
	p.AddConstraint([]float64{2, 2}, EQ, 6)
	s, err := Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(s.Objective, 3, 1e-7) {
		t.Errorf("obj = %v, want 3 (x=%v)", s.Objective, s.X)
	}
}

func TestValidation(t *testing.T) {
	bad := []*Problem{
		{NumVars: 0},
		{NumVars: 2, Objective: []float64{1}},
		{NumVars: 1, Objective: []float64{math.NaN()}},
	}
	for i, p := range bad {
		if _, err := Solve(context.Background(), p); err == nil {
			t.Errorf("bad problem %d accepted", i)
		}
	}
	p := &Problem{NumVars: 1, Objective: []float64{1}}
	p.AddConstraint([]float64{1, 2}, LE, 1)
	if _, err := Solve(context.Background(), p); err == nil {
		t.Error("coefficient-length mismatch accepted")
	}
	p2 := &Problem{NumVars: 1, Objective: []float64{1}}
	p2.AddConstraint([]float64{math.Inf(1)}, LE, 1)
	if _, err := Solve(context.Background(), p2); err == nil {
		t.Error("inf coefficient accepted")
	}
	p3 := &Problem{NumVars: 1, Objective: []float64{1}}
	p3.AddConstraint([]float64{1}, LE, math.NaN())
	if _, err := Solve(context.Background(), p3); err == nil {
		t.Error("NaN RHS accepted")
	}
}

func TestKnownDietProblem(t *testing.T) {
	// Classic: min 0.6x1 + 0.35x2 s.t. 5x1+7x2 ≥ 8, 4x1+2x2 ≥ 15,
	// 2x1+x2 ≥ 3. Optimum at x = (3.75, 0): obj = 2.25.
	p := &Problem{NumVars: 2, Objective: []float64{0.6, 0.35}}
	p.AddConstraint([]float64{5, 7}, GE, 8)
	p.AddConstraint([]float64{4, 2}, GE, 15)
	p.AddConstraint([]float64{2, 1}, GE, 3)
	s, err := Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(s.Objective, 2.25, 1e-6) {
		t.Errorf("obj = %v, want 2.25 (x=%v)", s.Objective, s.X)
	}
}

// Randomized soundness: construct LPs known feasible (b = A·x0 with
// x0 ≥ 0 and LE senses), solve, and check (a) the solution satisfies
// every constraint and (b) the objective is no worse than c·x0.
func TestRandomFeasibleLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 120; trial++ {
		n := rng.Intn(6) + 2
		m := rng.Intn(6) + 1
		x0 := make([]float64, n)
		for j := range x0 {
			x0[j] = rng.Float64() * 5
		}
		p := &Problem{NumVars: n, Objective: make([]float64, n)}
		for j := range p.Objective {
			p.Objective[j] = rng.Float64()*4 - 1 // mostly positive: bounded below
		}
		// Ensure boundedness: all objective coefficients non-negative.
		for j := range p.Objective {
			if p.Objective[j] < 0 {
				p.Objective[j] = -p.Objective[j]
			}
		}
		for k := 0; k < m; k++ {
			coeffs := make([]float64, n)
			dot := 0.0
			for j := range coeffs {
				coeffs[j] = rng.Float64()*2 - 0.5
				dot += coeffs[j] * x0[j]
			}
			if rng.Intn(3) == 0 {
				p.AddConstraint(coeffs, EQ, dot)
			} else {
				p.AddConstraint(coeffs, LE, dot+rng.Float64())
			}
		}
		s, err := Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Check feasibility of the returned point.
		for k, c := range p.Constraints {
			dot := 0.0
			for j := range c.Coeffs {
				dot += c.Coeffs[j] * s.X[j]
			}
			switch c.Sense {
			case LE:
				if dot > c.RHS+1e-6 {
					t.Fatalf("trial %d: constraint %d violated: %v > %v", trial, k, dot, c.RHS)
				}
			case EQ:
				if math.Abs(dot-c.RHS) > 1e-6 {
					t.Fatalf("trial %d: equality %d violated: %v ≠ %v", trial, k, dot, c.RHS)
				}
			}
		}
		for j := range s.X {
			if s.X[j] < -1e-9 {
				t.Fatalf("trial %d: negative variable %v", trial, s.X[j])
			}
		}
		// Optimality sanity: no worse than the witness x0.
		witness := 0.0
		for j := range x0 {
			witness += p.Objective[j] * x0[j]
		}
		if s.Objective > witness+1e-6 {
			t.Fatalf("trial %d: objective %v worse than witness %v", trial, s.Objective, witness)
		}
	}
}

func TestSenseString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("Sense.String wrong")
	}
}

// TestSolveAllocs pins the allocations of a warmed Solve: the tableau
// and its scratch come from the pool, so only the Solution and its X
// remain.
func TestSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop items, so allocation counts vary")
	}
	rng := rand.New(rand.NewSource(5))
	p := randomLP(rng)
	for len(p.Constraints) < 10 {
		p = randomLP(rng)
	}
	if _, err := Solve(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Solve(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("warmed Solve allocates %v objects per run, want ≤ 2", allocs)
	}
}

// TestSolveConcurrent solves LPs of different sizes from several
// goroutines at once through the shared tableau pool and requires
// each answer to match, bit for bit, the one solved alone.
func TestSolveConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	probs := make([]*Problem, 40)
	want := make([]*Solution, len(probs))
	for i := range probs {
		probs[i] = randomLP(rng)
		want[i], _ = Solve(context.Background(), probs[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range probs {
				i := (k + 10*w) % len(probs)
				got, err := Solve(context.Background(), probs[i])
				if (err == nil) != (want[i] != nil) {
					t.Errorf("LP %d: error %v", i, err)
					continue
				}
				if err != nil {
					continue
				}
				if math.Float64bits(got.Objective) != math.Float64bits(want[i].Objective) {
					t.Errorf("LP %d: objective %v, alone %v", i, got.Objective, want[i].Objective)
				}
			}
		}(w)
	}
	wg.Wait()
}
