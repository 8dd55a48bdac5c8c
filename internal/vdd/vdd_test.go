package vdd

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"energysched/internal/closedform"
	"energysched/internal/dag"
	"energysched/internal/listsched"
	"energysched/internal/model"
	"energysched/internal/platform"
	"energysched/internal/schedule"
	"energysched/internal/workload"
)

func ladder() model.SpeedModel {
	m, _ := model.NewVddHopping([]float64{0.5, 1.0, 1.5, 2.0})
	return m
}

func TestSingleTaskExactMix(t *testing.T) {
	// One task, weight 3, deadline 2 → continuous optimum speed 1.5,
	// which is a level: the LP should use it alone with energy 3·1.5².
	g := dag.IndependentGraph(3)
	mp, _ := platform.SingleProcessor(g)
	res, err := SolveBiCrit(context.Background(), g, mp, ladder(), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := model.Energy(3, 1.5)
	if math.Abs(res.Energy-want) > 1e-6 {
		t.Errorf("energy = %v, want %v", res.Energy, want)
	}
}

func TestMixBetweenLevels(t *testing.T) {
	// One task, weight 3, deadline 2.4 → continuous speed 1.25 strictly
	// between levels 1.0 and 1.5: VDD must mix exactly those two and
	// beat running at 1.5 alone.
	g := dag.IndependentGraph(3)
	mp, _ := platform.SingleProcessor(g)
	res, err := SolveBiCrit(context.Background(), g, mp, ladder(), 2.4)
	if err != nil {
		t.Fatal(err)
	}
	used := res.SpeedsUsed(0)
	if len(used) != 2 || res.Levels[used[0]] != 1.0 || res.Levels[used[1]] != 1.5 {
		t.Errorf("speeds used = %v (levels %v)", used, res.Levels)
	}
	// Optimal mix: α1 + α1.5 = 2.4, 1·α1 + 1.5·α1.5 = 3 → α1.5 = 1.2,
	// α1 = 1.2; energy = 1.2·1 + 1.2·3.375 = 5.25.
	if math.Abs(res.Energy-5.25) > 1e-6 {
		t.Errorf("energy = %v, want 5.25", res.Energy)
	}
	if e15 := model.Energy(3, 1.5); res.Energy >= e15 {
		t.Errorf("mix %v not better than single speed %v", res.Energy, e15)
	}
}

func TestTwoSpeedProperty(t *testing.T) {
	// Random DAGs: a basic optimal solution uses at most two speeds per
	// task, and when two, they are adjacent levels (Section IV).
	rng := rand.New(rand.NewSource(9))
	sm := ladder()
	for trial := 0; trial < 15; trial++ {
		g := randomDAG(rng, rng.Intn(6)+2, 0.3)
		mp, _ := platform.SingleProcessor(g)
		cg, _ := mp.ConstraintGraph(g)
		minD := 0.0
		for i := 0; i < g.N(); i++ {
			minD += g.Weight(i) / sm.FMax
		}
		_ = cg
		D := minD * (1.3 + rng.Float64()*2)
		res, err := SolveBiCrit(context.Background(), g, mp, sm, D)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if k := res.MaxSpeedsPerTask(); k > 2 {
			t.Errorf("trial %d: task uses %d speeds", trial, k)
		}
		for i := 0; i < g.N(); i++ {
			used := res.SpeedsUsed(i)
			if len(used) == 2 && used[1] != used[0]+1 {
				t.Errorf("trial %d: task %d mixes non-adjacent levels %v", trial, i, used)
			}
		}
	}
}

func TestEnergySandwichedByContinuous(t *testing.T) {
	// E_cont(unbounded speeds in [fmin,fmax]) ≤ E_vdd ≤ E at fmax.
	weights := []float64{2, 3, 1.5}
	g := dag.ChainGraph(weights...)
	mp, _ := platform.SingleProcessor(g)
	sm := ladder()
	D := 5.0
	res, err := SolveBiCrit(context.Background(), g, mp, sm, D)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := closedform.SolveChain(weights, D, sm.FMax)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy < cf.Energy-1e-6 {
		t.Errorf("VDD energy %v below continuous optimum %v", res.Energy, cf.Energy)
	}
	eMax := 0.0
	for _, w := range weights {
		eMax += model.Energy(w, sm.FMax)
	}
	if res.Energy > eMax+1e-6 {
		t.Errorf("VDD energy %v above everything-at-fmax %v", res.Energy, eMax)
	}
}

func TestVddEqualsContinuousWhenSpeedOnGrid(t *testing.T) {
	// Chain with uniform speed Σw/D landing exactly on a level: VDD
	// matches the continuous optimum exactly.
	weights := []float64{1, 1, 2} // Σ = 4, D = 4 → f = 1.0, a level
	g := dag.ChainGraph(weights...)
	mp, _ := platform.SingleProcessor(g)
	res, err := SolveBiCrit(context.Background(), g, mp, ladder(), 4)
	if err != nil {
		t.Fatal(err)
	}
	cf, _ := closedform.SolveChain(weights, 4, 2)
	if math.Abs(res.Energy-cf.Energy) > 1e-6 {
		t.Errorf("VDD %v ≠ continuous %v", res.Energy, cf.Energy)
	}
}

func TestScheduleValidates(t *testing.T) {
	g := dag.ForkGraph(1, 2, 3)
	mp := platform.OneTaskPerProcessor(g)
	sm := ladder()
	res, err := SolveBiCrit(context.Background(), g, mp, sm, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := res.Schedule(g, mp)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(schedule.Constraints{Model: sm, Deadline: 3}); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
	if math.Abs(s.Energy()-res.Energy) > 1e-6 {
		t.Errorf("schedule energy %v ≠ LP energy %v", s.Energy(), res.Energy)
	}
}

func TestInfeasible(t *testing.T) {
	g := dag.ChainGraph(10, 10)
	mp, _ := platform.SingleProcessor(g)
	if _, err := SolveBiCrit(context.Background(), g, mp, ladder(), 1); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveBiCritRejectsWrongModel(t *testing.T) {
	g := dag.IndependentGraph(1)
	mp, _ := platform.SingleProcessor(g)
	disc, _ := model.NewDiscrete([]float64{1})
	if _, err := SolveBiCrit(context.Background(), g, mp, disc, 1); err == nil {
		t.Error("DISCRETE model accepted")
	}
	cont, _ := model.NewContinuous(0.1, 1)
	if _, err := SolveBiCrit(context.Background(), g, mp, cont, 1); err == nil {
		t.Error("CONTINUOUS model accepted")
	}
}

func TestExclusivityEncodedInLP(t *testing.T) {
	// Two independent unit tasks on one processor with D = 2: must
	// serialize, so each runs at speed ≥ 1 on average. Total energy ≥
	// chain optimum 2·1 = (1+1)³/2² = 2.
	g := dag.IndependentGraph(1, 1)
	mp, _ := platform.SingleProcessor(g)
	res, err := SolveBiCrit(context.Background(), g, mp, ladder(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy < 2-1e-6 {
		t.Errorf("energy %v below serialized lower bound 2", res.Energy)
	}
	// On two processors the same instance can run both tasks at 0.5:
	// energy 2·(1·0.25) = 0.5.
	mp2 := platform.OneTaskPerProcessor(g)
	res2, err := SolveBiCrit(context.Background(), g, mp2, ladder(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res2.Energy-0.5) > 1e-6 {
		t.Errorf("parallel energy = %v, want 0.5", res2.Energy)
	}
}

func TestRoundExecutionTimeMatched(t *testing.T) {
	sm := ladder()
	// Speed 1.25 between 1.0 and 1.5; weight 5 → duration 4.
	segs, err := RoundExecution(sm, 5, 1.25, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	var work, dur float64
	for _, s := range segs {
		work += s.Speed * s.Duration
		dur += s.Duration
	}
	if math.Abs(work-5) > 1e-9 {
		t.Errorf("work = %v", work)
	}
	if math.Abs(dur-4) > 1e-9 {
		t.Errorf("duration = %v, want 4", dur)
	}
	if len(segs) != 2 || segs[0].Speed != 1.0 || segs[1].Speed != 1.5 {
		t.Errorf("segments = %v", segs)
	}
}

func TestRoundExecutionOnLevel(t *testing.T) {
	segs, err := RoundExecution(ladder(), 2, 1.0, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Speed != 1.0 {
		t.Errorf("segments = %v", segs)
	}
}

func TestRoundExecutionBelowFMin(t *testing.T) {
	segs, err := RoundExecution(ladder(), 2, 0.1, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Speed != 0.5 {
		t.Errorf("segments = %v", segs)
	}
}

func TestRoundExecutionAboveFMax(t *testing.T) {
	if _, err := RoundExecution(ladder(), 2, 5, nil, -1); err == nil {
		t.Error("speed above fmax accepted")
	}
}

func TestRoundExecutionReliabilityShift(t *testing.T) {
	sm := ladder()
	rel := model.Reliability{Lambda0: 1e-4, Sensitivity: 4, FMin: 0.5, FMax: 2}
	w, f := 5.0, 1.25
	// The time-matched mix has a (slightly) higher failure probability
	// than the continuous single-speed execution because the fault rate
	// is convex in speed; requesting the continuous failure probability
	// as the bound must shift the mix toward the faster level.
	target := rel.FailureProb(w, f)
	segs, err := RoundExecution(sm, w, f, &rel, target)
	if err != nil {
		t.Fatal(err)
	}
	var work, dur, fail float64
	for _, s := range segs {
		work += s.Speed * s.Duration
		dur += s.Duration
		fail += rel.FaultRate(s.Speed) * s.Duration
	}
	if math.Abs(work-w) > 1e-9 {
		t.Errorf("work = %v", work)
	}
	if dur > w/f+1e-9 {
		t.Errorf("duration %v exceeds continuous duration %v", dur, w/f)
	}
	if fail > target*(1+1e-6) {
		t.Errorf("failure %v exceeds target %v", fail, target)
	}
}

func TestRoundPlanPreservesFeasibility(t *testing.T) {
	// Round a continuous chain solution and validate the resulting
	// schedule under the VDD model with the same deadline.
	weights := []float64{2, 3, 1}
	g := dag.ChainGraph(weights...)
	mp, _ := platform.SingleProcessor(g)
	sm := ladder()
	D := 5.0
	cf, err := closedform.SolveChain(weights, D, sm.FMax)
	if err != nil {
		t.Fatal(err)
	}
	speeds := []float64{cf.Speed, cf.Speed, cf.Speed}
	plan, err := RoundPlan(g, sm, speeds, []float64{0, 0, 0}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.FromPlan(g, mp, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(schedule.Constraints{Model: sm, Deadline: D}); err != nil {
		t.Errorf("rounded schedule invalid: %v", err)
	}
	// Rounded energy is sandwiched between the continuous optimum and
	// the everything-at-next-level-up bound.
	if s.Energy() < cf.Energy-1e-9 {
		t.Errorf("rounded energy %v below continuous %v", s.Energy(), cf.Energy)
	}
	up, _ := sm.RoundUp(cf.Speed)
	eUp := 0.0
	for _, w := range weights {
		eUp += model.Energy(w, up)
	}
	if s.Energy() > eUp+1e-9 {
		t.Errorf("rounded energy %v above round-up bound %v", s.Energy(), eUp)
	}
}

func TestRoundPlanLengthMismatch(t *testing.T) {
	g := dag.ChainGraph(1, 1)
	if _, err := RoundPlan(g, ladder(), []float64{1}, []float64{0, 0}, nil, 0); err == nil {
		t.Error("length mismatch accepted")
	}
}

func randomDAG(rng *rand.Rand, n int, p float64) *dag.Graph {
	g := dag.New()
	for i := 0; i < n; i++ {
		g.AddTask("t", rng.Float64()*4+0.5)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.MustEdge(i, j)
			}
		}
	}
	return g
}

// TestSolveBiCritAllocs pins the allocations of one BI-CRIT solve on a
// 16-task DAG over two processors: every constraint row is cut from
// one backing slice and the LP tableau is pooled.
func TestSolveBiCritAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop items, so allocation counts vary")
	}
	g := workload.Layered(rand.New(rand.NewSource(3)), 16, 4, 0.3, workload.UniformWeights)
	ls, err := listsched.CriticalPath(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	mp := ls.Mapping
	sm, _ := model.NewVddHopping(model.XScaleLevels())
	D := 2 * ls.Makespan / sm.FMax
	solve := func() {
		if _, err := SolveBiCrit(context.Background(), g, mp, sm, D); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	// Mostly the constraint graph's clone; one slab for the rows, the
	// α rows cut from the LP's X.
	if allocs := testing.AllocsPerRun(10, solve); allocs > 66 {
		t.Errorf("SolveBiCrit allocates %v objects per run, want ≤ 66", allocs)
	}
}
