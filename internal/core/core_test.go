package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"energysched/internal/dag"
	"energysched/internal/model"
	"energysched/internal/platform"
)

func contInstance(deadline float64) *Instance {
	g := dag.ChainGraph(1, 2, 3)
	mp, _ := platform.SingleProcessor(g)
	sm, _ := model.NewContinuous(0.05, 10)
	return &Instance{Graph: g, Mapping: mp, Speed: sm, Deadline: deadline}
}

func TestSolveBiCritContinuous(t *testing.T) {
	in := contInstance(2)
	sol, err := Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Exact || sol.Method != "continuous-convex" {
		t.Errorf("method/exact wrong: %+v", sol)
	}
	// Chain closed form: (1+2+3)³/4 = 54.
	if math.Abs(sol.Energy-54)/54 > 1e-3 {
		t.Errorf("energy = %v, want ≈54", sol.Energy)
	}
	if err := sol.Schedule.Validate(in.Constraints()); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

func TestSolveBiCritVdd(t *testing.T) {
	g := dag.ChainGraph(1, 2)
	mp, _ := platform.SingleProcessor(g)
	sm, _ := model.NewVddHopping([]float64{0.5, 1, 2})
	in := &Instance{Graph: g, Mapping: mp, Speed: sm, Deadline: 4}
	sol, err := Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != "vdd-lp" || !sol.Exact {
		t.Errorf("method wrong: %+v", sol)
	}
	if err := sol.Schedule.Validate(in.Constraints()); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

func TestSolveBiCritDiscreteExactVsApprox(t *testing.T) {
	small := dag.ChainGraph(1, 2)
	mp, _ := platform.SingleProcessor(small)
	sm, _ := model.NewDiscrete(model.XScaleLevels())
	in := &Instance{Graph: small, Mapping: mp, Speed: sm, Deadline: 10}
	sol, err := Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != "discrete-bb" || !sol.Exact {
		t.Errorf("expected exact branch-and-bound, got %+v", sol)
	}

	// A larger instance must fall back to the approximation.
	ws := make([]float64, 30)
	for i := range ws {
		ws[i] = 1
	}
	big := dag.ChainGraph(ws...)
	mpB, _ := platform.SingleProcessor(big)
	inB := &Instance{Graph: big, Mapping: mpB, Speed: sm, Deadline: 120}
	solB, err := Solve(context.Background(), inB)
	if err != nil {
		t.Fatal(err)
	}
	if solB.Method != "discrete-roundup" || solB.Exact {
		t.Errorf("expected round-up approximation, got %+v", solB)
	}
	if err := solB.Schedule.Validate(inB.Constraints()); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

func TestSolveBiCritInfeasible(t *testing.T) {
	in := contInstance(0.1)
	in.Speed, _ = model.NewContinuous(0.05, 1)
	if _, err := Solve(context.Background(), in); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveBiCritRejectsTriCritInstance(t *testing.T) {
	in := contInstance(5)
	rel := model.DefaultReliability(in.Speed.FMin, in.Speed.FMax)
	in.Rel = &rel
	in.FRel = 0.8
	_, err := Solve(context.Background(), in, WithSolver(SolverContinuousConvex))
	if err == nil || !strings.Contains(err.Error(), "does not support") {
		t.Errorf("tri-crit instance on the BI-CRIT solver: err = %v", err)
	}
}

func triInstance(deadline float64) *Instance {
	g := dag.ForkGraph(1, 1, 1)
	mp := platform.OneTaskPerProcessor(g)
	sm, _ := model.NewContinuous(0.1, 1)
	rel := model.Reliability{Lambda0: 1e-5, Sensitivity: 3, FMin: 0.1, FMax: 1}
	return &Instance{Graph: g, Mapping: mp, Speed: sm, Deadline: deadline, Rel: &rel, FRel: 0.8}
}

func TestSolveTriCritAllStrategies(t *testing.T) {
	for _, strat := range []Strategy{StrategyBestOf, StrategyChainFirst, StrategyParallelFirst, StrategyExact} {
		in := triInstance(15)
		sol, err := Solve(context.Background(), in, WithStrategy(strat))
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if err := sol.Schedule.Validate(in.Constraints()); err != nil {
			t.Errorf("%v: schedule invalid: %v", strat, err)
		}
	}
}

func TestSolveTriCritVddAdaptation(t *testing.T) {
	in := triInstance(15)
	in.Speed, _ = model.NewVddHopping([]float64{0.1, 0.3, 0.5, 0.8, 1.0})
	sol, err := Solve(context.Background(), in, WithStrategy(StrategyBestOf))
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Schedule.Validate(in.Constraints()); err != nil {
		t.Errorf("VDD tri-crit schedule invalid: %v", err)
	}
	// The adaptation can only lose energy versus the continuous result.
	inC := triInstance(15)
	solC, err := Solve(context.Background(), inC, WithStrategy(StrategyBestOf))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Energy < solC.Energy*(1-1e-9) {
		t.Errorf("VDD adaptation %v beats continuous %v", sol.Energy, solC.Energy)
	}
}

func TestSolveTriCritRejectsDiscrete(t *testing.T) {
	in := triInstance(15)
	in.Speed, _ = model.NewDiscrete([]float64{0.5, 1})
	_, err := Solve(context.Background(), in, WithStrategy(StrategyBestOf))
	if err == nil || !strings.Contains(err.Error(), "no registered solver supports") {
		t.Errorf("DISCRETE tri-crit: err = %v", err)
	}
}

func TestSolveTriCritRejectsBiCritInstance(t *testing.T) {
	in := contInstance(5)
	_, err := Solve(context.Background(), in, WithSolver(TriCritSolverName(StrategyBestOf)))
	if err == nil || !strings.Contains(err.Error(), "does not support") {
		t.Errorf("bi-crit instance on the TRI-CRIT solver: err = %v", err)
	}
}

func TestInstanceValidate(t *testing.T) {
	in := contInstance(5)
	if err := in.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	in2 := contInstance(5)
	in2.Graph = nil
	if err := in2.Validate(); err == nil {
		t.Error("nil graph accepted")
	}
	in3 := contInstance(-1)
	if err := in3.Validate(); err == nil {
		t.Error("negative deadline accepted")
	}
	in4 := triInstance(5)
	in4.FRel = 99
	if err := in4.Validate(); err == nil {
		t.Error("frel above fmax accepted")
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		StrategyBestOf: "best-of", StrategyChainFirst: "chain-first",
		StrategyParallelFirst: "parallel-first", StrategyExact: "exact",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := triInstance(12)
	data, err := MarshalInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalInstance(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Graph.N() != in.Graph.N() || back.Graph.M() != in.Graph.M() {
		t.Errorf("graph changed: n=%d m=%d", back.Graph.N(), back.Graph.M())
	}
	if back.Deadline != in.Deadline || back.FRel != in.FRel {
		t.Errorf("scalars changed")
	}
	if back.Rel == nil || back.Rel.Lambda0 != in.Rel.Lambda0 {
		t.Errorf("reliability lost")
	}
	// Both instances must solve to the same energy.
	a, err := Solve(context.Background(), in, WithStrategy(StrategyChainFirst))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), back, WithStrategy(StrategyChainFirst))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Energy-b.Energy)/a.Energy > 1e-9 {
		t.Errorf("energies differ after round trip: %v vs %v", a.Energy, b.Energy)
	}
}

func TestJSONRoundTripAllModels(t *testing.T) {
	g := dag.ChainGraph(1, 2)
	mp, _ := platform.SingleProcessor(g)
	cont, _ := model.NewContinuous(0.1, 1)
	disc, _ := model.NewDiscrete([]float64{0.5, 1})
	vddm, _ := model.NewVddHopping([]float64{0.5, 1})
	incr, _ := model.NewIncremental(0.1, 1, 0.1)
	for _, sm := range []model.SpeedModel{cont, disc, vddm, incr} {
		in := &Instance{Graph: g, Mapping: mp, Speed: sm, Deadline: 10}
		data, err := MarshalInstance(in)
		if err != nil {
			t.Fatalf("%v: %v", sm.Kind, err)
		}
		back, err := UnmarshalInstance(data)
		if err != nil {
			t.Fatalf("%v: %v", sm.Kind, err)
		}
		if back.Speed.Kind != sm.Kind {
			t.Errorf("kind changed: %v → %v", sm.Kind, back.Speed.Kind)
		}
	}
}

func TestUnmarshalDefaultsToListScheduling(t *testing.T) {
	data := []byte(`{
		"tasks": [{"name":"a","weight":1},{"name":"b","weight":2},{"name":"c","weight":3}],
		"edges": [[0,1],[0,2]],
		"processors": 2,
		"speedModel": {"kind":"continuous","fmin":0.1,"fmax":2},
		"deadline": 10
	}`)
	in, err := UnmarshalInstance(data)
	if err != nil {
		t.Fatal(err)
	}
	if in.Mapping.P != 2 {
		t.Errorf("processors = %d", in.Mapping.P)
	}
	if err := in.Mapping.Validate(in.Graph); err != nil {
		t.Errorf("generated mapping invalid: %v", err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []string{
		`{`,
		`{"tasks":[]}`,
		`{"tasks":[{"name":"a","weight":1}],"speedModel":{"kind":"bogus"},"deadline":1}`,
		`{"tasks":[{"name":"a","weight":1}],"edges":[[0,9]],"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":1}`,
		`{"tasks":[{"name":"a","weight":-1}],"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":1}`,
	}
	for i, c := range cases {
		if _, err := UnmarshalInstance([]byte(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
