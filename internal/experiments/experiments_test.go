package experiments

import (
	"math"
	"testing"

	"energysched/internal/model"
)

// Each test runs a claim driver and asserts the paper's claim on the
// resulting metrics — the machine-checkable half of EXPERIMENTS.md.

func TestE01ForkClosedForm(t *testing.T) {
	r := E01ForkClosedForm()
	if r.Metrics["worst_rel_err"] > 1e-3 {
		t.Errorf("closed form deviates from numeric solver: %v\n%s", r.Metrics["worst_rel_err"], r.Table)
	}
}

func TestE02SeriesParallel(t *testing.T) {
	r := E02SeriesParallel()
	if r.Metrics["worst_rel_err"] > 1e-3 {
		t.Errorf("SP/tree closed form deviates: %v\n%s", r.Metrics["worst_rel_err"], r.Table)
	}
}

func TestE03ContinuousDAG(t *testing.T) {
	r := E03ContinuousDAG()
	if r.Metrics["min_saved_pct"] < 30 {
		t.Errorf("expected substantial energy reclamation, got %v%%\n%s", r.Metrics["min_saved_pct"], r.Table)
	}
}

func TestE04ChainTriCrit(t *testing.T) {
	r := E04ChainTriCrit()
	if r.Metrics["worst_chainfirst_gap_pct"] > 5 {
		t.Errorf("ChainFirst gap %v%% too large on chains\n%s", r.Metrics["worst_chainfirst_gap_pct"], r.Table)
	}
}

func TestE05ForkTriCrit(t *testing.T) {
	r := E05ForkTriCrit()
	if r.Metrics["worst_rel_err"] > 0.01 {
		t.Errorf("fork poly algorithm deviates from exact: %v\n%s", r.Metrics["worst_rel_err"], r.Table)
	}
	if r.Metrics["branch_reexec_total"] == 0 {
		t.Errorf("branches never re-executed — contradicts the fork strategy\n%s", r.Table)
	}
}

func TestE06VddLP(t *testing.T) {
	r := E06VddLP()
	if r.Metrics["worst_hierarchy_violation_pct"] > 1e-6 {
		t.Errorf("model hierarchy violated by %v%%\n%s", r.Metrics["worst_hierarchy_violation_pct"], r.Table)
	}
}

func TestE07DiscreteHardness(t *testing.T) {
	r := E07DiscreteHardness()
	if r.Metrics["decisions_agree"] != 1 {
		t.Errorf("gadget decision diverged from SUBSET-SUM\n%s", r.Table)
	}
	if r.Metrics["last_growth"] <= 1 {
		t.Errorf("node counts not growing (last growth %v)\n%s", r.Metrics["last_growth"], r.Table)
	}
}

func TestE08IncrementalApprox(t *testing.T) {
	r := E08IncrementalApprox()
	if r.Metrics["all_within_bound"] != 1 {
		t.Errorf("approximation exceeded its guarantee\n%s", r.Table)
	}
}

func TestE09ModelHierarchy(t *testing.T) {
	r := E09ModelHierarchy()
	if r.Metrics["hierarchy_violated"] == 1 {
		t.Errorf("E_cont ≤ E_vdd ≤ E_incr violated\n%s", r.Table)
	}
	if r.Metrics["final_gap_pct"] > 2 {
		t.Errorf("INCREMENTAL did not converge to CONTINUOUS: gap %v%%\n%s", r.Metrics["final_gap_pct"], r.Table)
	}
}

func TestE10TwoSpeeds(t *testing.T) {
	r := E10TwoSpeeds()
	if r.Metrics["max_speeds_any_task"] > 2 {
		t.Errorf("a task used more than two speeds\n%s", r.Table)
	}
	if r.Metrics["all_adjacent"] != 1 {
		t.Errorf("non-adjacent speed mix observed\n%s", r.Table)
	}
}

func TestE11VddTriCrit(t *testing.T) {
	r := E11VddTriCrit()
	if r.Metrics["all_valid"] != 1 {
		t.Errorf("VDD adaptation produced an invalid schedule\n%s", r.Table)
	}
	if r.Metrics["worst_loss_pct"] < 0 {
		t.Errorf("adaptation cannot gain energy\n%s", r.Table)
	}
	// Total loss vs the continuous bound can be large when the water
	// level falls between coarse levels (intrinsic ladder cost), but
	// the adaptation itself must stay close to the exact VDD optimum.
	if r.Metrics["worst_adapt_overhead_pct"] > 20 {
		t.Errorf("adaptation overhead vs exact VDD too large: %v%%\n%s",
			r.Metrics["worst_adapt_overhead_pct"], r.Table)
	}
	if r.Metrics["worst_loss_pct"] > 300 {
		t.Errorf("total loss implausibly large: %v%%\n%s", r.Metrics["worst_loss_pct"], r.Table)
	}
}

func TestE12HeuristicSweep(t *testing.T) {
	r := E12HeuristicSweep()
	if r.Metrics["worst_bestof_gap"] > 0.10 {
		t.Errorf("BestOf strays %v from exact\n%s", r.Metrics["worst_bestof_gap"], r.Table)
	}
	if r.Metrics["cf_wins"] == 0 || r.Metrics["pf_wins"] == 0 {
		t.Logf("heuristic wins: cf=%v pf=%v\n%s", r.Metrics["cf_wins"], r.Metrics["pf_wins"], r.Table)
	}
}

func TestE13FaultSim(t *testing.T) {
	r := E13FaultSim()
	if r.Metrics["worst_abs_err"] > 0.01 {
		t.Errorf("Monte-Carlo deviates from Eq. (1): %v\n%s", r.Metrics["worst_abs_err"], r.Table)
	}
	if r.Metrics["fail_monotone_in_slowdown"] != 1 {
		t.Errorf("failure probability not monotone in slowdown\n%s", r.Table)
	}
}

// hotRel uses a high fault rate so effects are measurable with modest
// trial counts.
func hotRel() model.Reliability {
	return model.Reliability{Lambda0: 0.002, Sensitivity: 3, FMin: 0.1, FMax: 1}
}

func TestEmpiricalMatchesAnalytic(t *testing.T) {
	rel := hotRel()
	w, f := 4.0, 0.4
	want := rel.FailureProb(w, f)
	got := empiricalFailureRate(rel, w, f, 200000, 1)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("empirical %v vs analytic %v", got, want)
	}
}

func TestFaultRateBitesAtLowSpeed(t *testing.T) {
	// The motivation claim (C13): DVFS degrades reliability.
	rel := hotRel()
	slow := empiricalFailureRate(rel, 2, 0.2, 100000, 2)
	fast := empiricalFailureRate(rel, 2, 1.0, 100000, 3)
	if slow <= fast {
		t.Errorf("slow failure %v not above fast failure %v", slow, fast)
	}
}

func TestE14DeadlineSweep(t *testing.T) {
	r := E14DeadlineSweep()
	if r.Metrics["sandwich_holds"] != 1 {
		t.Errorf("VDD not sandwiched between continuous and discrete\n%s", r.Table)
	}
}

func TestE15ListSchedule(t *testing.T) {
	r := E15ListSchedule()
	if r.Metrics["makespan_monotone_in_p"] != 1 {
		t.Errorf("list-schedule makespan grew with more processors\n%s", r.Table)
	}
}

func TestE16ReplicationVsReexec(t *testing.T) {
	r := E16ReplicationVsReexec()
	if r.Metrics["both_never_worse"] != 1 {
		t.Errorf("allowing both techniques made things worse\n%s", r.Table)
	}
	if r.Metrics["tight_replication_advantage_pct"] <= 0 {
		t.Errorf("replication should win at tight deadlines, advantage %v%%\n%s",
			r.Metrics["tight_replication_advantage_pct"], r.Table)
	}
	if r.Metrics["loose_tie_gap_pct"] > 0.1 {
		t.Errorf("techniques should tie at loose deadlines, gap %v%%\n%s",
			r.Metrics["loose_tie_gap_pct"], r.Table)
	}
}

func TestE17DPvsBranchAndBound(t *testing.T) {
	r := E17DPvsBranchAndBound()
	if r.Metrics["worst_highres_gap_pct"] > 2 {
		t.Errorf("high-resolution DP gap %v%% too large\n%s", r.Metrics["worst_highres_gap_pct"], r.Table)
	}
}

func TestE18BatchSolve(t *testing.T) {
	r := E18BatchSolve()
	if r.Metrics["instances"] < 32 {
		t.Errorf("batch has %v instances, want ≥ 32\n%s", r.Metrics["instances"], r.Table)
	}
	if r.Metrics["worst_seq_par_energy_mismatch"] > 1e-9 {
		t.Errorf("sequential and parallel batches disagree by %v\n%s",
			r.Metrics["worst_seq_par_energy_mismatch"], r.Table)
	}
}

func TestAllRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("registry has %d drivers, want 18", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Errorf("%s has nil driver", e.ID)
		}
	}
}
