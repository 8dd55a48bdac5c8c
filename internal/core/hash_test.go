package core

import (
	"testing"

	"energysched/internal/dag"
	"energysched/internal/model"
	"energysched/internal/platform"
)

func TestHashStableAndSensitive(t *testing.T) {
	in := contInstance(2)
	h := in.Hash()
	if len(h) != 32 {
		t.Fatalf("Hash length = %d (%q), want 32 hex chars", len(h), h)
	}
	if in.Hash() != h {
		t.Fatal("Hash not deterministic across calls")
	}
	if contInstance(2).Hash() != h {
		t.Fatal("identical instances hash differently")
	}

	// Every problem-defining field must perturb the digest.
	mutations := map[string]func(*Instance){
		"deadline": func(in *Instance) { in.Deadline *= 2 },
		"weight":   func(in *Instance) { in.Graph = dag.ChainGraph(1, 2, 4) },
		"name": func(in *Instance) {
			g := dag.New()
			g.AddTask("renamed", 1)
			g.AddTask("task-1", 2)
			g.AddTask("task-2", 3)
			g.MustEdge(0, 1)
			g.MustEdge(1, 2)
			in.Graph = g
		},
		"speed model": func(in *Instance) { in.Speed, _ = model.NewContinuous(0.05, 9) },
		"kind":        func(in *Instance) { in.Speed, _ = model.NewDiscrete([]float64{0.05, 10}) },
		"reliability": func(in *Instance) {
			in.Rel = &model.Reliability{Lambda0: 1e-5, Sensitivity: 3, FMin: 0.05, FMax: 10}
			in.FRel = 1
		},
	}
	for what, mutate := range mutations {
		mut := contInstance(2)
		mutate(mut)
		if mut.Hash() == h {
			t.Errorf("changing %s did not change the hash", what)
		}
	}
}

func TestHashIgnoresEdgeInsertionOrder(t *testing.T) {
	build := func(order [][2]int) *Instance {
		g := dag.New()
		g.AddTask("a", 1)
		g.AddTask("b", 2)
		g.AddTask("c", 3)
		for _, e := range order {
			g.MustEdge(e[0], e[1])
		}
		// Fix the mapping explicitly: SingleProcessor's topological
		// order could legitimately differ with edge order, and a
		// different execution order is a different problem.
		mp := platform.NewMapping(1, g.N())
		for i := 0; i < g.N(); i++ {
			mp.MustAssign(i, 0)
		}
		sm, _ := model.NewContinuous(0.05, 10)
		return &Instance{Graph: g, Mapping: mp, Speed: sm, Deadline: 10}
	}
	ab := build([][2]int{{0, 1}, {0, 2}})
	ba := build([][2]int{{0, 2}, {0, 1}})
	if ab.Hash() != ba.Hash() {
		t.Error("edge insertion order changed the hash")
	}
}

func TestHashDistinguishesMapping(t *testing.T) {
	g := dag.New()
	g.AddTask("a", 1)
	g.AddTask("b", 2)
	sm, _ := model.NewContinuous(0.05, 10)
	onOne, err := platform.SingleProcessor(g)
	if err != nil {
		t.Fatal(err)
	}
	spread := platform.OneTaskPerProcessor(g)
	a := &Instance{Graph: g, Mapping: onOne, Speed: sm, Deadline: 10}
	b := &Instance{Graph: g, Mapping: spread, Speed: sm, Deadline: 10}
	if a.Hash() == b.Hash() {
		t.Error("different mappings hash equal")
	}
}

func TestHashSurvivesJSONRoundTrip(t *testing.T) {
	for name, in := range map[string]*Instance{
		"continuous": contInstance(2),
		"tri-crit":   triInstance(6),
	} {
		data, err := MarshalInstance(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := UnmarshalInstance(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := back.Hash(), in.Hash(); got != want {
			t.Errorf("%s: hash changed across marshal round-trip: %s → %s", name, want, got)
		}
	}
}

func TestConfigFingerprint(t *testing.T) {
	base, err := NewConfig()
	if err != nil {
		t.Fatal(err)
	}
	same, _ := NewConfig(WithTimeout(1e9), WithWorkers(3), WithValidation(false))
	if base.Fingerprint() != same.Fingerprint() {
		t.Errorf("volatile knobs changed the fingerprint: %q vs %q", base.Fingerprint(), same.Fingerprint())
	}
	for what, opt := range map[string]Option{
		"solver":      WithSolver(SolverContinuousConvex),
		"strategy":    WithStrategy(StrategyExact),
		"exact limit": WithExactSizeLimit(7),
		"round-up K":  WithRoundUpK(3),
		"lower bound": WithLowerBound(true),
	} {
		cfg, err := NewConfig(opt)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if cfg.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s did not change the fingerprint", what)
		}
	}
}

// TestHashAllocs bounds Instance.Hash at a constant number of
// allocations whatever the instance size: today one buffer, the sorted
// edge list and the hex string.
func TestHashAllocs(t *testing.T) {
	for _, n := range []int{2, 12, 64, 256} {
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = float64(i + 1)
		}
		g := dag.ChainGraph(ws...)
		for i := 0; i+2 < n; i++ {
			g.MustEdge(i, i+2)
		}
		mp, err := platform.SingleProcessor(g)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := model.NewDiscrete(model.XScaleLevels())
		if err != nil {
			t.Fatal(err)
		}
		in := &Instance{Graph: g, Mapping: mp, Speed: sm, Deadline: 1e3}
		if got := testing.AllocsPerRun(100, func() { in.Hash() }); got > 5 {
			t.Errorf("n=%d: Hash allocates %v times, want ≤ 5", n, got)
		}
	}
}
