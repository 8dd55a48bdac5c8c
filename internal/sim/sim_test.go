package sim

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"energysched/internal/core"
	"energysched/internal/dag"
	"energysched/internal/model"
	"energysched/internal/platform"
	"energysched/internal/schedule"
	"energysched/internal/workload"
)

// triChain builds a solvable TRI-CRIT chain instance with a fault rate
// high enough that a 10k-trial campaign observes real failures.
func triChain(t testing.TB, n int, lambda0 float64) *core.Instance {
	t.Helper()
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 + 0.25*float64(i%4)
	}
	g := dag.ChainGraph(weights...)
	mp, err := platform.SingleProcessor(g)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := model.NewContinuous(0.1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	rel := model.Reliability{Lambda0: lambda0, Sensitivity: 3, FMin: sm.FMin, FMax: sm.FMax}
	return &core.Instance{
		Graph:    g,
		Mapping:  mp,
		Speed:    sm,
		Deadline: sum / sm.FMax * 2.6,
		Rel:      &rel,
		FRel:     0.8 * sm.FMax,
	}
}

func solve(t testing.TB, in *core.Instance, opts ...core.Option) *core.Result {
	t.Helper()
	res, err := core.Solve(context.Background(), in, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimulateRejectsMismatchedSchedule(t *testing.T) {
	in := triChain(t, 4, 1e-5)
	other := triChain(t, 5, 1e-5)
	res := solve(t, other)
	if _, err := Simulate(in, res.Schedule, Options{}); err == nil {
		t.Fatal("expected mismatch error")
	}
	if _, err := Simulate(nil, nil, Options{}); err == nil {
		t.Fatal("expected nil error")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{PolicySameSpeed, PolicyMaxSpeed, PolicyAbort} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round-trip of %v: got %v, %v", p, got, err)
		}
	}
	if p, err := ParsePolicy(""); err != nil || p != PolicySameSpeed {
		t.Fatalf("empty policy: got %v, %v", p, err)
	}
	if _, err := ParsePolicy("bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("expected parse error, got %v", err)
	}
}

// TestTraceEventInvariants records runs with heavy fault injection and
// checks the structural invariants every trace must satisfy: events
// sorted by time, every attempt bracketed by start/finish, faults
// strictly inside their attempt, processor exclusivity, and precedence
// in the constraint graph.
func TestTraceEventInvariants(t *testing.T) {
	in := triChain(t, 8, 0.03)
	res := solve(t, in)
	for trial := 0; trial < 50; trial++ {
		tr, err := Simulate(in, res.Schedule, Options{Seed: 11, Trial: trial, Record: true})
		if err != nil {
			t.Fatal(err)
		}
		checkTrace(t, in, tr)
	}
}

func checkTrace(t *testing.T, in *core.Instance, tr *Trace) {
	t.Helper()
	type key struct{ task, attempt int }
	started := map[key]float64{}
	finished := map[key]float64{}
	lastTime := math.Inf(-1)
	var energy float64
	for _, ev := range tr.Events {
		if ev.Time < lastTime-1e-12 {
			t.Fatalf("events out of order: %v after %v", ev.Time, lastTime)
		}
		lastTime = ev.Time
		k := key{ev.Task, ev.Attempt}
		switch ev.Kind {
		case "start":
			if _, dup := started[k]; dup {
				t.Fatalf("task %d attempt %d started twice", ev.Task, ev.Attempt)
			}
			started[k] = ev.Time
		case "fault":
			s, ok := started[k]
			if !ok || ev.Time < s-1e-12 {
				t.Fatalf("fault before start of task %d attempt %d", ev.Task, ev.Attempt)
			}
		case "finish":
			s, ok := started[k]
			if !ok || ev.Time < s {
				t.Fatalf("finish before start of task %d attempt %d", ev.Task, ev.Attempt)
			}
			finished[k] = ev.Time
			energy += model.EnergyOverTime(ev.Speed, ev.Time-s)
		default:
			t.Fatalf("unknown event kind %q", ev.Kind)
		}
	}
	for k := range started {
		if _, ok := finished[k]; !ok {
			t.Fatalf("task %d attempt %d started but never finished", k.task, k.attempt)
		}
	}
	// Precedence over the constraint graph: a task's first start must
	// not precede the last finish of any constraint predecessor that
	// completed.
	cg, err := in.Mapping.ConstraintGraph(in.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range cg.Edges() {
		u, v := e[0], e[1]
		vStart, ok := started[key{v, 0}]
		if !ok {
			continue
		}
		uEnd := math.Max(finished[key{u, 0}], finished[key{u, 1}])
		if vStart < uEnd-1e-9 {
			t.Fatalf("task %d starts %v before predecessor %d ends %v", v, vStart, u, uEnd)
		}
	}
	if math.Abs(energy-tr.Outcome.Energy) > 1e-6*math.Max(1, tr.Outcome.Energy) {
		t.Fatalf("event energy %v != outcome energy %v", energy, tr.Outcome.Energy)
	}
}

func TestRunDeterministicPerTrial(t *testing.T) {
	in := triChain(t, 6, 0.03)
	res := solve(t, in)
	a, err := Simulate(in, res.Schedule, Options{Seed: 5, Trial: 3, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(in, res.Schedule, Options{Seed: 5, Trial: 3, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, trial) produced different traces")
	}
	differ := false
	for trial := 0; trial < 200 && !differ; trial++ {
		c, err := Simulate(in, res.Schedule, Options{Seed: 5, Trial: trial})
		if err != nil {
			t.Fatal(err)
		}
		differ = c.Outcome.Faults != a.Outcome.Faults || c.Outcome.Energy != a.Outcome.Energy
	}
	if !differ {
		t.Fatal("200 trials produced identical outcomes — injector looks dead")
	}
}

func TestPolicies(t *testing.T) {
	in := triChain(t, 8, 0.03)
	res := solve(t, in)

	// Find a trial with at least one fault under same-speed recovery.
	trial := -1
	for i := 0; i < 500; i++ {
		tr, err := Simulate(in, res.Schedule, Options{Seed: 2, Trial: i})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Outcome.Faults > 0 && tr.Outcome.Succeeded {
			trial = i
			break
		}
	}
	if trial < 0 {
		t.Fatal("no faulty-but-recovered trial found in 500")
	}

	same, err := Simulate(in, res.Schedule, Options{Seed: 2, Trial: trial, Policy: PolicySameSpeed})
	if err != nil {
		t.Fatal(err)
	}
	if same.Outcome.Reexecutions == 0 {
		t.Fatal("same-speed recovery ran no re-executions")
	}

	abort, err := Simulate(in, res.Schedule, Options{Seed: 2, Trial: trial, Policy: PolicyAbort})
	if err != nil {
		t.Fatal(err)
	}
	if abort.Outcome.Succeeded {
		t.Fatal("abort policy succeeded despite a fault")
	}
	if abort.Outcome.Reexecutions != 0 {
		t.Fatal("abort policy re-executed")
	}
	if abort.Outcome.Energy >= same.Outcome.Energy {
		t.Fatalf("abort energy %v not below same-speed energy %v", abort.Outcome.Energy, same.Outcome.Energy)
	}

	maxs, err := Simulate(in, res.Schedule, Options{Seed: 2, Trial: trial, Policy: PolicyMaxSpeed, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if maxs.Outcome.Reexecutions == 0 {
		t.Fatal("max-speed recovery ran no re-executions")
	}
	sawMax := false
	for _, ev := range maxs.Events {
		if ev.Attempt == 1 && ev.Kind == "start" {
			if math.Abs(ev.Speed-in.Speed.FMax) > 1e-12 {
				t.Fatalf("max-speed recovery ran at %v, want fmax %v", ev.Speed, in.Speed.FMax)
			}
			sawMax = true
		}
	}
	if !sawMax {
		t.Fatal("no recovery start event recorded")
	}
}

func TestCampaignBitIdenticalAcrossWorkers(t *testing.T) {
	in := triChain(t, 10, 0.03)
	res := solve(t, in)
	opts := CampaignOptions{Trials: 2000, Seed: 9}
	opts.Workers = 1
	one, err := RunCampaign(context.Background(), in, res.Schedule, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	eight, err := RunCampaign(context.Background(), in, res.Schedule, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The wall-clock profile is the one field allowed to differ across
	// worker counts (it is excluded from the Campaign's JSON for the
	// same reason); its trial split must still be deterministic.
	if one.Profile.FastPathTrials != eight.Profile.FastPathTrials ||
		one.Profile.HeapTrials != eight.Profile.HeapTrials {
		t.Fatalf("fast/sweep trial split differs across workers: %+v vs %+v",
			one.Profile, eight.Profile)
	}
	one.Profile, eight.Profile = CampaignProfile{}, CampaignProfile{}
	if !reflect.DeepEqual(one, eight) {
		t.Fatalf("campaign differs across workers:\n1: %+v\n8: %+v", one, eight)
	}
}

func TestCampaignContextCancellation(t *testing.T) {
	in := triChain(t, 10, 0.03)
	res := solve(t, in)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCampaign(ctx, in, res.Schedule, CampaignOptions{Trials: 100000, Seed: 1}); err == nil {
		t.Fatal("expected context error")
	}
}

func TestCampaignRejectsBadTrials(t *testing.T) {
	in := triChain(t, 4, 1e-5)
	res := solve(t, in)
	if _, err := RunCampaign(context.Background(), in, res.Schedule, CampaignOptions{Trials: 0}); err == nil {
		t.Fatal("expected trials error")
	}
}

// TestWorstCaseReplayEnergyConstant: in worst-case replay every
// scheduled execution runs in every trial, so the observed energy is
// the same constant — the solver's predicted worst-case energy — in
// all of them, faults or not.
func TestWorstCaseReplayEnergyConstant(t *testing.T) {
	in := triChain(t, 8, 0.03)
	res := solve(t, in)
	camp, err := RunCampaign(context.Background(), in, res.Schedule,
		CampaignOptions{Trials: 500, Seed: 4, WorstCase: true})
	if err != nil {
		t.Fatal(err)
	}
	if camp.Faults == 0 {
		t.Fatal("worst-case campaign saw no faults at λ0=0.03")
	}
	want := res.Energy
	for _, got := range []float64{camp.Energy.Min, camp.Energy.Mean, camp.Energy.Max} {
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("worst-case energy %v != predicted %v", got, want)
		}
	}
	if math.Abs(camp.Predicted.ExpectedEnergy-want) > 1e-9*math.Max(1, want) {
		t.Fatalf("worst-case expected energy %v != predicted %v", camp.Predicted.ExpectedEnergy, want)
	}
}

func TestSweepAllClasses(t *testing.T) {
	spec := SweepSpec{
		N:        12,
		Procs:    3,
		Seed:     7,
		TriCrit:  true,
		Campaign: CampaignOptions{Trials: 200},
	}
	results, err := Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(workload.AllClasses()) {
		t.Fatalf("got %d results for %d classes", len(results), len(workload.AllClasses()))
	}
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("class %s failed: %s", r.Class, r.Err)
		}
		if r.Campaign == nil || r.Campaign.Trials != 200 {
			t.Fatalf("class %s campaign missing or truncated: %+v", r.Class, r.Campaign)
		}
		if r.Campaign.SuccessRate <= 0 {
			t.Fatalf("class %s success rate %v", r.Class, r.Campaign.SuccessRate)
		}
	}
}

func TestSweepDeterministicSubset(t *testing.T) {
	spec := SweepSpec{
		Classes:  []workload.Class{workload.ClassChain, workload.ClassLayered},
		N:        10,
		Seed:     3,
		Campaign: CampaignOptions{Trials: 100},
	}
	a, err := Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	full := spec
	full.Classes = nil
	b, err := Sweep(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a[0], b[0]) {
		t.Fatal("chain class differs between subset and full sweep")
	}
	// The generation stream is offset by the class's canonical value,
	// so the layered result matches the full sweep's layered entry.
	if !reflect.DeepEqual(a[1], b[len(b)-1]) {
		t.Fatal("layered class differs between subset and full sweep")
	}
}

// TestSweepAbortsOnMidClassContextError: a deadline that strikes
// inside a class (not just at the loop top) must fail the sweep as a
// whole instead of landing in that class's result — otherwise a
// timeout-truncated sweep would be indistinguishable from (and, on
// the server, cacheable as) the deterministic result of its spec.
func TestSweepAbortsOnMidClassContextError(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	spec := SweepSpec{
		Classes: []workload.Class{workload.ClassChain},
		N:       20,
		Seed:    1,
		TriCrit: true,
		// Far more trial work than 10ms allows (≈300ms even on the
		// fast path), so the deadline expires mid-solve or
		// mid-campaign, never at the loop top.
		Campaign: CampaignOptions{Trials: 1_000_000},
	}
	results, err := Sweep(ctx, spec)
	if err == nil {
		t.Fatalf("expected a context error, got results %+v", results)
	}
	for _, r := range results {
		if strings.Contains(r.Err, "context") {
			t.Fatalf("context error embedded in class result: %+v", r)
		}
	}
}

// mustSchedule builds a hand-rolled schedule for engine edge cases.
func mustSchedule(t *testing.T, g *dag.Graph, mp *platform.Mapping, speeds []float64) *schedule.Schedule {
	t.Helper()
	s, err := schedule.FromSpeeds(g, mp, speeds)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFailedTaskBlocksSuccessors: under abort, a failed source must
// keep every downstream task from running, while independent branches
// still finish.
func TestFailedTaskBlocksSuccessors(t *testing.T) {
	// Two independent chains on two processors: A0→A1, B0→B1.
	g := dag.New()
	a0 := g.AddTask("A0", 1)
	a1 := g.AddTask("A1", 1)
	b0 := g.AddTask("B0", 1)
	b1 := g.AddTask("B1", 1)
	g.MustEdge(a0, a1)
	g.MustEdge(b0, b1)
	mp := platform.NewMapping(2, 4)
	mp.MustAssign(a0, 0)
	mp.MustAssign(a1, 0)
	mp.MustAssign(b0, 1)
	mp.MustAssign(b1, 1)
	sm, _ := model.NewContinuous(0.1, 1.0)
	rel := model.Reliability{Lambda0: 10, Sensitivity: 0, FMin: sm.FMin, FMax: sm.FMax}
	in := &core.Instance{Graph: g, Mapping: mp, Speed: sm, Deadline: 100, Rel: &rel, FRel: sm.FMax}
	s := mustSchedule(t, g, mp, []float64{1, 1, 1, 1})

	// λ0 = 10 at full speed → p = min(1, 10·1/1) = 1: every attempt
	// fails deterministically, so under abort nothing downstream runs.
	tr, err := Simulate(in, s, Options{Policy: PolicyAbort, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Outcome.Succeeded {
		t.Fatal("run succeeded with certain faults")
	}
	ran := map[int]bool{}
	for _, ev := range tr.Events {
		if ev.Kind == "start" {
			ran[ev.Task] = true
		}
	}
	if !ran[a0] || !ran[b0] {
		t.Fatal("sources did not run")
	}
	if ran[a1] || ran[b1] {
		t.Fatal("successors of failed tasks ran")
	}
	if tr.Outcome.Faults != 2 {
		t.Fatalf("got %d faults, want 2", tr.Outcome.Faults)
	}
}

// TestRunAllocFree gates the per-trial allocation contract the
// BenchmarkSimulateChain64 baseline (0 allocs/op) encodes: with a
// warmed Runner and Trace, Run must not allocate.
func TestRunAllocFree(t *testing.T) {
	in := triChain(t, 32, 0.01)
	res := solve(t, in)
	r, err := NewRunner(in, res.Schedule, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var tr Trace
	r.Run(0, &tr) // warm the trace
	trial := 1
	if allocs := testing.AllocsPerRun(100, func() {
		r.Run(trial, &tr)
		trial++
	}); allocs > 0 {
		t.Fatalf("Run allocates %.1f objects per trial, want 0", allocs)
	}
}
