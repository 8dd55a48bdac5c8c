package vdd

import (
	"context"
	"math"
	"testing"

	"energysched/internal/dag"
	"energysched/internal/model"
	"energysched/internal/platform"
	"energysched/internal/schedule"
)

func triLadder() model.SpeedModel {
	m, _ := model.NewVddHopping([]float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0})
	return m
}

func triRel() model.Reliability {
	return model.Reliability{Lambda0: 1e-4, Sensitivity: 3, FMin: 0.1, FMax: 1}
}

func TestSolveTriCritFixedNoReexecMatchesReliabilityBound(t *testing.T) {
	// One task, no re-execution: with a loose deadline the LP slows the
	// task until the reliability constraint binds — energy must be at
	// least w·frel'² where frel' is the best achievable given the
	// ladder, and at most running fully at the level above frel.
	g := dag.IndependentGraph(2)
	mp, _ := platform.SingleProcessor(g)
	sm := triLadder()
	rel := triRel()
	frel := 0.8
	res, err := SolveTriCritFixed(context.Background(), g, mp, sm, 100, rel, frel, []bool{false})
	if err != nil {
		t.Fatal(err)
	}
	// The mixed execution must meet the reliability threshold.
	fail := rel.MixedFailureProb(res.Alpha1[0], res.Levels)
	if fail > rel.FailureProb(2, frel)*(1+1e-6) {
		t.Errorf("reliability violated: %v > %v", fail, rel.FailureProb(2, frel))
	}
	// And cannot be cheaper than the continuous reliability-bound
	// optimum w·frel² (mixing is never more reliable per joule than the
	// continuous speed).
	if res.Energy < model.Energy(2, frel)*(1-1e-6) {
		t.Errorf("energy %v below continuous reliability bound %v", res.Energy, model.Energy(2, frel))
	}
}

func TestSolveTriCritFixedReexecCheaperWhenLoose(t *testing.T) {
	g := dag.IndependentGraph(2)
	mp, _ := platform.SingleProcessor(g)
	sm := triLadder()
	rel := triRel()
	frel := 0.8
	single, err := SolveTriCritFixed(context.Background(), g, mp, sm, 100, rel, frel, []bool{false})
	if err != nil {
		t.Fatal(err)
	}
	re, err := SolveTriCritFixed(context.Background(), g, mp, sm, 100, rel, frel, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if re.Energy >= single.Energy {
		t.Errorf("re-execution not cheaper at loose deadline: %v vs %v", re.Energy, single.Energy)
	}
}

func TestSolveTriCritFixedScheduleValidates(t *testing.T) {
	g := dag.ChainGraph(1.5, 2.5)
	mp, _ := platform.SingleProcessor(g)
	sm := triLadder()
	rel := triRel()
	frel := 0.8
	D := 30.0
	res, err := SolveTriCritFixed(context.Background(), g, mp, sm, D, rel, frel, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.FromPlan(g, mp, res.Plan(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(schedule.Constraints{Model: sm, Deadline: D, Rel: &rel, FRel: frel}); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
	if math.Abs(s.Energy()-res.Energy)/res.Energy > 1e-6 {
		t.Errorf("schedule energy %v ≠ LP energy %v", s.Energy(), res.Energy)
	}
}

func TestSolveTriCritRestrictedBeatsFixedChoices(t *testing.T) {
	g := dag.ChainGraph(1, 2, 1.5)
	mp, _ := platform.SingleProcessor(g)
	sm := triLadder()
	rel := triRel()
	frel := 0.8
	D := 40.0
	best, set, err := SolveTriCritRestricted(context.Background(), g, mp, sm, D, rel, frel)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 3 {
		t.Fatalf("set = %v", set)
	}
	for _, re := range [][]bool{{false, false, false}, {true, true, true}} {
		fixed, err := SolveTriCritFixed(context.Background(), g, mp, sm, D, rel, frel, re)
		if err != nil {
			continue
		}
		if best.Energy > fixed.Energy*(1+1e-9) {
			t.Errorf("restricted exact %v worse than fixed %v (%v)", best.Energy, fixed.Energy, re)
		}
	}
}

func TestSolveTriCritRestrictedUpperBoundsAdaptation(t *testing.T) {
	// The true VDD optimum (restricted exact) must be no worse than the
	// continuous→VDD adaptation on the same instance.
	g := dag.ChainGraph(2, 1)
	mp, _ := platform.SingleProcessor(g)
	sm := triLadder()
	rel := triRel()
	frel := 0.8
	// Loose enough that running both tasks re-executed at their f_inf
	// bound fits on the single processor (occupancy 2Σw/f_inf).
	D := 100.0
	exact, _, err := SolveTriCritRestricted(context.Background(), g, mp, sm, D, rel, frel)
	if err != nil {
		t.Fatal(err)
	}
	// Adaptation: continuous BestOf speeds rounded onto the ladder.
	// Build a simple continuous solution by hand: both tasks
	// re-executed at their f_inf bound (loose deadline).
	f0, err := rel.MinReExecSpeed(2, frel)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := rel.MinReExecSpeed(1, frel)
	if err != nil {
		t.Fatal(err)
	}
	speeds := []float64{math.Max(f0, sm.FMin), math.Max(f1, sm.FMin)}
	plan, err := RoundPlan(g, sm, speeds, speeds, &rel, frel)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.FromPlan(g, mp, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(schedule.Constraints{Model: sm, Deadline: D, Rel: &rel, FRel: frel}); err != nil {
		t.Fatalf("adapted schedule invalid (test setup bug): %v", err)
	}
	if exact.Energy > s.Energy()*(1+1e-6) {
		t.Errorf("restricted exact %v worse than adaptation %v", exact.Energy, s.Energy())
	}
}

func TestSolveTriCritFixedValidation(t *testing.T) {
	g := dag.IndependentGraph(1)
	mp, _ := platform.SingleProcessor(g)
	sm := triLadder()
	rel := triRel()
	if _, err := SolveTriCritFixed(context.Background(), g, mp, sm, 10, rel, 0.8, []bool{true, false}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := SolveTriCritFixed(context.Background(), g, mp, sm, 10, rel, 5, []bool{false}); err == nil {
		t.Error("frel above fmax accepted")
	}
	disc, _ := model.NewDiscrete([]float64{1})
	if _, err := SolveTriCritFixed(context.Background(), g, mp, disc, 10, rel, 0.8, []bool{false}); err == nil {
		t.Error("DISCRETE accepted")
	}
	if _, err := SolveTriCritFixed(context.Background(), g, mp, sm, 0.1, rel, 0.8, []bool{false}); err != ErrInfeasible {
		t.Error("infeasible deadline not detected")
	}
}

func TestSolveTriCritRestrictedCap(t *testing.T) {
	ws := make([]float64, MaxTriCritExactTasks+1)
	for i := range ws {
		ws[i] = 1
	}
	g := dag.IndependentGraph(ws...)
	mp, _ := platform.SingleProcessor(g)
	if _, _, err := SolveTriCritRestricted(context.Background(), g, mp, triLadder(), 1000, triRel(), 0.8); err == nil {
		t.Error("oversize enumeration accepted")
	}
}

func TestTriCritTwoSpeedClaim(t *testing.T) {
	// The paper: two speeds per execution suffice, "which still holds
	// true with reliability". Our simplex returns vertices, which can
	// in principle mix up to three levels when the reliability row is
	// tight; measure and bound it.
	g := dag.ChainGraph(1.2, 2.3, 0.9)
	mp, _ := platform.SingleProcessor(g)
	sm := triLadder()
	rel := triRel()
	res, _, err := SolveTriCritRestricted(context.Background(), g, mp, sm, 35, rel, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if k := res.MaxSpeedsPerExecution(); k > 3 {
		t.Errorf("an execution mixes %d speeds; even vertex solutions should stay ≤ 3", k)
	}
}
