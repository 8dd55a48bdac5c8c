package sim

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"energysched/internal/core"
	"energysched/internal/dag"
	"energysched/internal/listsched"
	"energysched/internal/model"
	"energysched/internal/platform"
	"energysched/internal/rng"
	"energysched/internal/schedule"
	"energysched/internal/workload"
)

// drawTrial fills the runner's occurrence uniforms for trial in the
// order Run draws them: every u1, then every u2.
func drawTrial(r *Runner, trial int) {
	stream := rng.At(r.opts.Seed, trial)
	for i := range r.sc.u1 {
		r.sc.u1[i] = stream.Float64()
	}
	for i := range r.sc.u2 {
		r.sc.u2[i] = stream.Float64()
	}
}

// sameOutcome reports whether two outcomes agree bit for bit.
func sameOutcome(a, b Outcome) bool {
	return math.Float64bits(a.Energy) == math.Float64bits(b.Energy) &&
		math.Float64bits(a.Makespan) == math.Float64bits(b.Makespan) &&
		a.Succeeded == b.Succeeded && a.DeadlineMet == b.DeadlineMet &&
		a.Reexecutions == b.Reexecutions && a.Faults == b.Faults
}

// sweepEqInstance builds a solved instance of the class under the
// speed model with heavy fault pressure (λ0 = 0.02), so that trials
// with several faults are common. CONTINUOUS and VDD-HOPPING are solved
// as TRI-CRIT; DISCRETE, which has no TRI-CRIT solver, is solved as
// BI-CRIT and then simulated under the same fault law.
func sweepEqInstance(t *testing.T, cls workload.Class, sm model.SpeedModel, seed int64) (*core.Instance, *schedule.Schedule) {
	t.Helper()
	g := cls.Generate(rand.New(rand.NewSource(seed+int64(cls)*1_000_003)), 16, workload.UniformWeights)
	ls, err := listsched.CriticalPath(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	in := &core.Instance{Graph: g, Mapping: ls.Mapping, Speed: sm, Deadline: ls.Makespan / sm.FMax * 2.2}
	rel := model.Reliability{Lambda0: 0.02, Sensitivity: 3, FMin: sm.FMin, FMax: sm.FMax}
	if sm.Kind != model.Discrete {
		in.Rel, in.FRel = &rel, 0.8*sm.FMax
	}
	s := solve(t, in).Schedule
	in.Rel, in.FRel = &rel, 0.8*sm.FMax
	return in, s
}

// TestSweepMatchesHeap is the per-trial gate on the sweep: for every
// workload class, speed model, recovery mode and seed, each of 2000
// trials must produce the same trace, bit for bit, from Run, from the
// sweep itself (fault-free trials included) and from the event heap
// (refRun) on the same occurrence draws — with Record off and on, and
// with the injector off.
func TestSweepMatchesHeap(t *testing.T) {
	cont, err := model.NewContinuous(0.1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	vdd, err := model.NewVddHopping(model.XScaleLevels())
	if err != nil {
		t.Fatal(err)
	}
	disc, err := model.NewDiscrete(model.XScaleLevels())
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name      string
		policy    Policy
		worstCase bool
	}{
		{"same-speed", PolicySameSpeed, false},
		{"max-speed", PolicyMaxSpeed, false},
		{"abort", PolicyAbort, false},
		{"worst-case", PolicySameSpeed, true},
	}
	// Recording runs build the event log on both engines, so they run
	// on the first recTrials trials only.
	const trials, recTrials = 2000, 500
	multiFault := make([]int, len(modes))
	for _, cls := range workload.AllClasses() {
		for _, sm := range []model.SpeedModel{cont, vdd, disc} {
			for seed := int64(1); seed <= 3; seed++ {
				in, s := sweepEqInstance(t, cls, sm, seed)
				for mi, m := range modes {
					r, err := NewRunner(in, s, Options{Seed: seed, Policy: m.policy, WorstCase: m.worstCase})
					if err != nil {
						t.Fatal(err)
					}
					h := newRefHeap(r)
					var got, want Trace
					check := func(what string, record bool, trial int) {
						t.Helper()
						if d := traceDiff(&got, &want); d != "" {
							t.Fatalf("%s/%v/%s seed %d trial %d, %s, record=%t: %s",
								cls, sm.Kind, m.name, seed, trial, what, record, d)
						}
					}
					faulty := 0
					for _, record := range []bool{false, true} {
						r.opts.Record = record
						n := trials
						if record {
							n = recTrials
						}
						for trial := 0; trial < n; trial++ {
							r.Run(trial, &got)
							h.trial(trial, &want)
							check("Run", record, trial)
							r.runSweep(&got)
							check("sweep", record, trial)
							if record {
								continue
							}
							if want.Outcome.Faults > 0 {
								faulty++
							}
							if want.Outcome.Faults > 1 {
								multiFault[mi]++
							}
						}
						r.opts.DisableFaults = true
						r.Run(0, &got)
						h.trial(0, &want)
						check("injector off", record, 0)
						r.opts.DisableFaults = false
					}
					if faulty == 0 {
						t.Fatalf("%s/%v/%s seed %d: no trial drew a fault", cls, sm.Kind, m.name, seed)
					}
				}
			}
		}
	}
	for mi, m := range modes {
		if multiFault[mi] == 0 {
			t.Errorf("%s: no trial in the matrix drew more than one fault", m.name)
		}
	}
}

// absorbedInstance builds three tasks C < B < A where the event heap's
// pop order differs from the sorted finish order. A (proc 0) and B
// (proc 1) both end at T = 2^24; C follows A on proc 0 with weight
// U/2, U = ulp(T), so T+dur(C) == T. The heap pops the finishes as B,
// A, C — C's start is released by A's finish — while sorted order is
// C, B, A, and the two energy folds differ in the last bit. Worst-case
// replay keeps C running whatever the draws, and A's failure
// probability (≈ 0.17) sends a sixth of the trials off the fast path.
func absorbedInstance(t *testing.T) (*core.Instance, *schedule.Schedule) {
	t.Helper()
	T := math.Ldexp(1, 24)
	U := math.Ldexp(1, 24-52)
	g := dag.New()
	c := g.AddTask("C", U/2)
	b := g.AddTask("B", 0.75*U)
	a := g.AddTask("A", T)
	g.MustEdge(a, c)
	mp := platform.NewMapping(2, 3)
	mp.MustAssign(a, 0)
	mp.MustAssign(c, 0)
	mp.MustAssign(b, 1)
	sm, err := model.NewContinuous(0.1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rel := model.Reliability{Lambda0: 1e-8, Sensitivity: 3, FMin: sm.FMin, FMax: sm.FMax}
	in := &core.Instance{Graph: g, Mapping: mp, Speed: sm, Deadline: 2 * T, Rel: &rel, FRel: sm.FMax}
	s := &schedule.Schedule{G: g, Mapping: mp, Tasks: make([]schedule.TaskSchedule, 3)}
	s.Tasks[a].Execs = []schedule.Execution{schedule.Constant(0, T, 1)}
	s.Tasks[b].Execs = []schedule.Execution{schedule.Constant(T-U, 0.75*U, 1)}
	s.Tasks[c].Execs = []schedule.Execution{schedule.Constant(T, U/2, 1)}
	return in, s
}

// TestSweepFallsBackOnAbsorbedDuration: on trials whose heap pop
// order is not the sorted finish order, the sweep's tie rule must
// reproduce the heap's order, so Run matches refRun bit for bit with
// Record off and on — trials that draw a fault and the precomputed
// fault-free outcome alike.
func TestSweepFallsBackOnAbsorbedDuration(t *testing.T) {
	in, s := absorbedInstance(t)
	// The case is sharp: a sorted fold gives a different energy.
	eA, eB, eC := s.Tasks[2].Execs[0].Energy(), s.Tasks[1].Execs[0].Energy(), s.Tasks[0].Execs[0].Energy()
	if (eB+eA)+eC == (eC+eB)+eA {
		t.Fatal("heap and sorted energy folds agree; the instance does not separate them")
	}
	if T := s.Tasks[2].Execs[0].End(); T+s.Tasks[0].Execs[0].Duration() != T {
		t.Fatal("C's duration is not absorbed by its start")
	}
	for _, record := range []bool{false, true} {
		r, err := NewRunner(in, s, Options{Seed: 3, WorstCase: true, Record: record})
		if err != nil {
			t.Fatal(err)
		}
		if r.ff.Energy != (eB+eA)+eC {
			t.Fatalf("record=%t: fault-free energy %v, want the heap's fold %v", record, r.ff.Energy, (eB+eA)+eC)
		}
		var got, want Trace
		swept := 0
		for trial := 0; trial < 200; trial++ {
			fast := r.sc.fastServed
			r.Run(trial, &got)
			refTrial(r, trial, &want)
			if d := traceDiff(&got, &want); d != "" {
				t.Fatalf("record=%t trial %d: %s", record, trial, d)
			}
			if r.sc.fastServed == fast {
				swept++
			}
		}
		if swept == 0 || (record && swept != 200) {
			t.Fatalf("record=%t: %d of 200 trials ran on the sweep", record, swept)
		}
		if !record && swept == 200 {
			t.Fatal("no trial took the fast path")
		}
	}
}

// fuzzWeight maps any float x to the weight 10^((|x| mod 18) − 9) in
// [1e-9, 1e9], so extreme weight ratios are common.
func fuzzWeight(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		x = 0
	}
	return math.Pow(10, math.Mod(math.Abs(x), 18)-9)
}

// FuzzSweepMatchesHeap fuzzes weights, speeds, λ0, policy, seed and
// trial on a five-task fork-join over two processors, and checks that
// Run and the sweep both match the event heap bit for bit — outcome and
// event log — with Record off and on, and with the injector off.
func FuzzSweepMatchesHeap(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 4.0, 5.0, uint8(0), -2.0, uint8(0), int64(1), uint16(0))
	f.Add(0.0, 17.9, 17.9, 0.5, 0.0, uint8(0x1f), -1.0, uint8(3), int64(7), uint16(42))
	f.Add(12.3, 4.5, 6.7, 8.9, 0.1, uint8(0x0a), -6.0, uint8(1), int64(-3), uint16(999))
	f.Add(17.0, 0.0, 17.0, 0.0, 17.0, uint8(0x15), -9.0, uint8(2), int64(11), uint16(7))
	f.Fuzz(func(t *testing.T, w0, w1, w2, w3, w4 float64, speedBits uint8, logLambda float64,
		mode uint8, seed int64, trial uint16) {
		g := dag.New()
		for _, w := range []float64{w0, w1, w2, w3, w4} {
			g.AddTask("", fuzzWeight(w))
		}
		for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 4}, {3, 4}} {
			g.MustEdge(e[0], e[1])
		}
		ls, err := listsched.CriticalPath(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		speeds := make([]float64, 5)
		for i := range speeds {
			speeds[i] = 1
			if speedBits>>i&1 != 0 {
				speeds[i] = 0.1
			}
		}
		s, err := schedule.FromSpeeds(g, ls.Mapping, speeds)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(logLambda) || math.IsInf(logLambda, 0) {
			logLambda = 0
		}
		sm, err := model.NewContinuous(0.1, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		rel := model.Reliability{Lambda0: math.Pow(10, -math.Mod(math.Abs(logLambda), 12)),
			Sensitivity: 3, FMin: sm.FMin, FMax: sm.FMax}
		in := &core.Instance{Graph: g, Mapping: ls.Mapping, Speed: sm, Deadline: 2 * s.Makespan(), Rel: &rel, FRel: sm.FMax}
		opts := Options{Seed: seed, Policy: Policy(mode % 3), WorstCase: mode&4 != 0}
		r, err := NewRunner(in, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		var got, want Trace
		for _, c := range []struct{ record, noFaults bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			r.opts.Record, r.opts.DisableFaults = c.record, c.noFaults
			r.Run(int(trial), &got)
			refTrial(r, int(trial), &want)
			if d := traceDiff(&got, &want); d != "" {
				t.Fatalf("record=%t injector off=%t: Run %s", c.record, c.noFaults, d)
			}
			if c.noFaults {
				r.drawNoFaults()
			}
			r.runSweep(&got)
			if d := traceDiff(&got, &want); d != "" {
				t.Fatalf("record=%t injector off=%t: sweep %s", c.record, c.noFaults, d)
			}
		}
	})
}

// span is a byte range [lo, hi) of one worker's written memory.
type span struct{ lo, hi uintptr }

func sliceSpan[T any](s []T) span {
	s = s[:cap(s)]
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return span{lo, lo + uintptr(len(s))*unsafe.Sizeof(s[0])}
}

// TestWorkerScratchDisjointLines: in a fresh runner's 4-worker
// campaign scratch, the memory any two workers write on every trial —
// their scratch slices and the Runner's trial-scratch field — must not
// share a cache line.
func TestWorkerScratchDisjointLines(t *testing.T) {
	in := triChain(t, 24, 1e-3)
	r, err := NewRunner(in, solve(t, in).Schedule, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs := r.campaignScratchFor(4, 1024)
	if len(cs.runners) != 4 {
		t.Fatalf("%d worker runners, want 4", len(cs.runners))
	}
	written := make([][]span, len(cs.runners))
	for w, rn := range cs.runners {
		sc := &rn.sc
		lo := uintptr(unsafe.Pointer(sc))
		written[w] = []span{
			{lo, lo + unsafe.Sizeof(*sc)},
			sliceSpan(sc.u1), sliceSpan(sc.u2), sliceSpan(sc.release), sliceSpan(sc.recs),
		}
	}
	lines := func(s span) span { return span{s.lo &^ (cacheLine - 1), (s.hi + cacheLine - 1) &^ (cacheLine - 1)} }
	for a := range written {
		for b := a + 1; b < len(written); b++ {
			for _, sa := range written[a] {
				for _, sb := range written[b] {
					la, lb := lines(sa), lines(sb)
					if la.lo < lb.hi && lb.lo < la.hi {
						t.Fatalf("workers %d and %d share a cache line: %#x-%#x vs %#x-%#x",
							a, b, sa.lo, sa.hi, sb.lo, sb.hi)
					}
				}
			}
		}
	}
	// The campaign must still run on that scratch, and match the
	// reference fold over the event heap.
	c, err := r.RunCampaign(context.Background(), 1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(c)
	want, _ := json.Marshal(refCampaign(t, r, 1024))
	if string(got) != string(want) {
		t.Fatalf("campaign differs from the reference\ngot: %s\nref: %s", got, want)
	}
}
