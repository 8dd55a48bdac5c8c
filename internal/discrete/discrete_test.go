package discrete

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"energysched/internal/dag"
	"energysched/internal/model"
	"energysched/internal/platform"
	"energysched/internal/schedule"
	"energysched/internal/vdd"
)

func xscale() model.SpeedModel {
	m, _ := model.NewDiscrete(model.XScaleLevels())
	return m
}

func TestSolveExactSingleTask(t *testing.T) {
	g := dag.IndependentGraph(2)
	mp, _ := platform.SingleProcessor(g)
	sm := xscale()
	// Deadline 4 → need f ≥ 0.5 → slowest admissible level 0.6.
	r, err := SolveExact(g, mp, sm, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Speeds[0] != 0.6 {
		t.Errorf("speed = %v, want 0.6", r.Speeds[0])
	}
	if want := model.Energy(2, 0.6); math.Abs(r.Energy-want) > 1e-9 {
		t.Errorf("energy = %v, want %v", r.Energy, want)
	}
}

func TestSolveExactChain(t *testing.T) {
	// Chain 1,1 with D=2.5 under {0.5,1}: uniform 1.0 for both gives
	// makespan 2 ≤ 2.5 (energy 2); one task at 0.5 gives 1+2=3 > 2.5
	// infeasible. So optimum is both at 1.0.
	g := dag.ChainGraph(1, 1)
	mp, _ := platform.SingleProcessor(g)
	sm, _ := model.NewDiscrete([]float64{0.5, 1})
	r, err := SolveExact(g, mp, sm, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Energy-2) > 1e-9 {
		t.Errorf("energy = %v, want 2", r.Energy)
	}
}

func TestSolveExactMixedLevels(t *testing.T) {
	// Chain 1,1 with D=3: one task at 0.5 (time 2, energy 0.25), the
	// other at 1.0 (time 1, energy 1). Total 1.25 beats both-at-1 (2).
	g := dag.ChainGraph(1, 1)
	mp, _ := platform.SingleProcessor(g)
	sm, _ := model.NewDiscrete([]float64{0.5, 1})
	r, err := SolveExact(g, mp, sm, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Energy-1.25) > 1e-9 {
		t.Errorf("energy = %v, want 1.25", r.Energy)
	}
}

func TestSolveExactInfeasible(t *testing.T) {
	g := dag.ChainGraph(5, 5)
	mp, _ := platform.SingleProcessor(g)
	if _, err := SolveExact(g, mp, xscale(), 1); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveExactRejectsWrongModel(t *testing.T) {
	g := dag.IndependentGraph(1)
	mp, _ := platform.SingleProcessor(g)
	cont, _ := model.NewContinuous(0.1, 1)
	if _, err := SolveExact(g, mp, cont, 1); err == nil {
		t.Error("CONTINUOUS accepted")
	}
	vm, _ := model.NewVddHopping([]float64{1})
	if _, err := SolveExact(g, mp, vm, 1); err == nil {
		t.Error("VDD-HOPPING accepted")
	}
}

func TestExactScheduleValidates(t *testing.T) {
	g := dag.ForkGraph(1, 2, 1.5)
	mp := platform.OneTaskPerProcessor(g)
	sm := xscale()
	r, err := SolveExact(g, mp, sm, 6)
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.Schedule(g, mp)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(schedule.Constraints{Model: sm, Deadline: 6}); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
	if math.Abs(s.Energy()-r.Energy) > 1e-6 {
		t.Errorf("schedule energy %v ≠ result %v", s.Energy(), r.Energy)
	}
}

func TestVddLowerBoundsDiscrete(t *testing.T) {
	// Model hierarchy (C9): on the same levels, E_vdd ≤ E_discrete.
	rng := rand.New(rand.NewSource(21))
	levels := model.XScaleLevels()
	smD, _ := model.NewDiscrete(levels)
	smV, _ := model.NewVddHopping(levels)
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(4) + 2
		ws := make([]float64, n)
		sum := 0.0
		for i := range ws {
			ws[i] = rng.Float64()*2 + 0.3
			sum += ws[i]
		}
		g := dag.ChainGraph(ws...)
		mp, _ := platform.SingleProcessor(g)
		D := (sum / smD.FMax) * (1.2 + rng.Float64()*2)
		de, err := SolveExact(g, mp, smD, D)
		if err != nil {
			t.Fatalf("trial %d exact: %v", trial, err)
		}
		ve, err := vdd.SolveBiCrit(context.Background(), g, mp, smV, D)
		if err != nil {
			t.Fatalf("trial %d vdd: %v", trial, err)
		}
		if ve.Energy > de.Energy+1e-6 {
			t.Errorf("trial %d: VDD %v above DISCRETE %v", trial, ve.Energy, de.Energy)
		}
	}
}

func TestApproximateFeasibleAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		n := rng.Intn(5) + 2
		ws := make([]float64, n)
		sum := 0.0
		for i := range ws {
			ws[i] = rng.Float64()*3 + 0.5
			sum += ws[i]
		}
		g := dag.ChainGraph(ws...)
		mp, _ := platform.SingleProcessor(g)
		delta := 0.1
		sm, _ := model.NewIncremental(0.1, 1.0, delta)
		D := sum / 1.0 * (1.3 + rng.Float64()*2)
		k := 10
		r, err := Approximate(g, mp, sm, D, k)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		s, err := r.Schedule(g, mp)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(schedule.Constraints{Model: sm, Deadline: D}); err != nil {
			t.Errorf("trial %d: rounded schedule invalid: %v", trial, err)
		}
		// The snapped rounding may dip a few ppm below the *numerical*
		// continuous energy (which itself sits slightly above the true
		// optimum); anything beyond that tolerance is a real bug.
		if r.Ratio < 1-1e-4 {
			t.Errorf("trial %d: ratio %v below 1 (continuous bound violated)", trial, r.Ratio)
		}
		if bound := Bound(delta, 0.1, k); r.Ratio > bound+1e-9 {
			t.Errorf("trial %d: ratio %v exceeds guarantee %v", trial, r.Ratio, bound)
		}
	}
}

func TestApproximateAgainstExact(t *testing.T) {
	// On small instances the approximation must be within the bound of
	// the true optimum too (the bound is proved against the continuous
	// lower bound, which is weaker).
	g := dag.ChainGraph(1, 2, 1.5)
	mp, _ := platform.SingleProcessor(g)
	delta := 0.15
	sm, _ := model.NewIncremental(0.15, 1.05, delta)
	D := 9.0
	ex, err := SolveExact(g, mp, sm, D)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := Approximate(g, mp, sm, D, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Energy < ex.Energy-1e-9 {
		t.Errorf("approximation %v beats exact %v", ap.Energy, ex.Energy)
	}
	if ap.Energy > ex.Energy*Bound(delta, 0.15, 5) {
		t.Errorf("approximation %v outside bound vs exact %v", ap.Energy, ex.Energy)
	}
}

func TestApproximateValidation(t *testing.T) {
	g := dag.IndependentGraph(1)
	mp, _ := platform.SingleProcessor(g)
	cont, _ := model.NewContinuous(0.1, 1)
	if _, err := Approximate(g, mp, cont, 1, 5); err == nil {
		t.Error("CONTINUOUS accepted")
	}
	sm, _ := model.NewIncremental(0.1, 1, 0.1)
	if _, err := Approximate(g, mp, sm, 10, 0); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Approximate(g, mp, sm, 0.1, 5); err != ErrInfeasible {
		t.Error("infeasible deadline not detected")
	}
}

func TestBoundFormula(t *testing.T) {
	// (1+0.1/0.5)²(1+1/4)² = 1.44·1.5625 = 2.25.
	if got := Bound(0.1, 0.5, 4); math.Abs(got-2.25) > 1e-12 {
		t.Errorf("Bound = %v, want 2.25", got)
	}
}

func TestBoundTightensWithDeltaAndK(t *testing.T) {
	if Bound(0.05, 0.5, 10) >= Bound(0.1, 0.5, 10) {
		t.Error("bound not decreasing in delta")
	}
	if Bound(0.1, 0.5, 20) >= Bound(0.1, 0.5, 10) {
		t.Error("bound not decreasing in K")
	}
}

func TestSubsetSumGadgetYes(t *testing.T) {
	// {3,5,2,7} has a subset summing to 10 (3+7, 5+2+3...).
	a := []int64{3, 5, 2, 7}
	var b int64 = 10
	if !HasSubsetSum(a, b) {
		t.Fatal("test instance should be a YES instance")
	}
	g, mp, sm, D, yes, err := SubsetSumGadget(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r, err := SolveExact(g, mp, sm, D)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Energy-yes) > 1e-6 {
		t.Errorf("optimal energy %v, want exactly %v on a YES instance", r.Energy, yes)
	}
}

func TestSubsetSumGadgetNo(t *testing.T) {
	// {4,6,8} with target 5: no subset sums to 5.
	a := []int64{4, 6, 8}
	var b int64 = 5
	if HasSubsetSum(a, b) {
		t.Fatal("test instance should be a NO instance")
	}
	g, mp, sm, D, yes, err := SubsetSumGadget(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r, err := SolveExact(g, mp, sm, D)
	if err != nil {
		t.Fatal(err)
	}
	if r.Energy <= yes+1e-9 {
		t.Errorf("optimal energy %v should strictly exceed %v on a NO instance", r.Energy, yes)
	}
}

func TestSubsetSumGadgetRandomizedEquivalence(t *testing.T) {
	// The gadget's decision must agree with the DP answer on random
	// instances — the heart of the NP-hardness claim (C7).
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(5) + 3
		a := make([]int64, n)
		var sum int64
		for i := range a {
			a[i] = int64(rng.Intn(9) + 1)
			sum += a[i]
		}
		b := int64(rng.Intn(int(sum))) + 1
		g, mp, sm, D, yes, err := SubsetSumGadget(a, b)
		if err != nil {
			t.Fatal(err)
		}
		r, err := SolveExact(g, mp, sm, D)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		gadgetYes := r.Energy <= yes+1e-6
		if want := HasSubsetSum(a, b); gadgetYes != want {
			t.Errorf("trial %d: gadget says %v (E=%v, yes=%v), DP says %v for a=%v b=%d", trial, gadgetYes, r.Energy, yes, want, a, b)
		}
	}
}

func TestSubsetSumGadgetValidation(t *testing.T) {
	if _, _, _, _, _, err := SubsetSumGadget(nil, 1); err == nil {
		t.Error("empty instance accepted")
	}
	if _, _, _, _, _, err := SubsetSumGadget([]int64{1, -2}, 1); err == nil {
		t.Error("negative item accepted")
	}
	if _, _, _, _, _, err := SubsetSumGadget([]int64{1}, 5); err == nil {
		t.Error("target above sum accepted")
	}
}

func TestHasSubsetSum(t *testing.T) {
	if !HasSubsetSum([]int64{1, 2, 3}, 0) {
		t.Error("empty subset")
	}
	if HasSubsetSum([]int64{2, 4}, 5) {
		t.Error("5 from {2,4}")
	}
	if !HasSubsetSum([]int64{2, 4}, 6) {
		t.Error("6 from {2,4}")
	}
	if HasSubsetSum([]int64{2}, -1) {
		t.Error("negative target")
	}
}

func TestNodesGrowWithSize(t *testing.T) {
	// Machine-independent exponential-shape check: B&B node counts on
	// hard gadget instances grow with n.
	counts := make([]int64, 0, 3)
	for _, n := range []int{6, 8, 10} {
		a := make([]int64, n)
		var sum int64
		for i := range a {
			a[i] = int64(2*i + 3) // odd items, no easy structure
			sum += a[i]
		}
		b := sum / 2
		g, mp, sm, D, _, err := SubsetSumGadget(a, b)
		if err != nil {
			t.Fatal(err)
		}
		r, err := SolveExact(g, mp, sm, D)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, r.Nodes)
	}
	if !(counts[0] < counts[1] && counts[1] < counts[2]) {
		t.Errorf("node counts not increasing: %v", counts)
	}
}
