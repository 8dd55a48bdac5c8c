package experiments

import (
	"testing"
)

// TestDriversByteIdentical is the determinism invariant (SNIPPETS
// H13): every driver is seeded, so running one twice must render
// byte-identical tables — worker scheduling, map iteration or float
// accumulation order must never leak into the output. Two drivers are
// enough to cover the two risky substrates: E12 sweeps six random DAG
// classes through all TRI-CRIT heuristics, E13 is the Monte-Carlo
// fault injector.
func TestDriversByteIdentical(t *testing.T) {
	drivers := map[string]func() *Report{
		"E12HeuristicSweep": E12HeuristicSweep,
		"E13FaultSim":       E13FaultSim,
	}
	for name, fn := range drivers {
		t.Run(name, func(t *testing.T) {
			first := fn()
			second := fn()
			a, b := first.Table.String(), second.Table.String()
			if a != b {
				t.Errorf("two seeded runs rendered different tables:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
			}
			if len(a) == 0 {
				t.Fatal("driver rendered an empty table")
			}
			// The scalar metrics must be bit-identical too.
			if len(first.Metrics) != len(second.Metrics) {
				t.Fatalf("metric sets differ: %v vs %v", first.Metrics, second.Metrics)
			}
			for k, v := range first.Metrics {
				if w, ok := second.Metrics[k]; !ok || w != v {
					t.Errorf("metric %q: %v vs %v", k, v, w)
				}
			}
		})
	}
}

// e13GoldenTable is E13FaultSim's rendered table as a literal, so a
// change to the failure-rate estimator or to the rng streams it draws
// from shows up as a diff.
const e13GoldenTable = "E13 (C13) — fault injection vs Eq. (1)\n" +
	"speed   analytic_fail  empirical_fail  abs_err    reexec_fail\n" +
	"-------------------------------------------------------------\n" +
	"1.0000  0.0060         0.0062          1.750e-04  3.600e-05  \n" +
	"0.8000  0.0146         0.0146          4.199e-05  2.134e-04  \n" +
	"0.6000  0.0379         0.0376          3.267e-04  0.0014     \n" +
	"0.4000  0.1108         0.1101          7.358e-04  0.0123     \n" +
	"0.2000  0.4318         0.4319          1.825e-04  0.1864     \n" +
	"note: failure probability grows as speed drops; re-execution squares it back down\n"

// TestE13Golden pins E13's table and metrics to literal values, so the
// seeded Monte-Carlo estimate is compared across trees, not only
// between two runs of the same tree (TestDriversByteIdentical).
func TestE13Golden(t *testing.T) {
	r := E13FaultSim()
	if got := r.Table.String(); got != e13GoldenTable {
		t.Errorf("E13 table drifted:\n--- got ---\n%s--- want ---\n%s", got, e13GoldenTable)
	}
	want := map[string]float64{
		"worst_abs_err":             0.0007358414839597205,
		"fail_monotone_in_slowdown": 1,
	}
	if len(r.Metrics) != len(want) {
		t.Fatalf("metric set %v, want %v", r.Metrics, want)
	}
	for k, w := range want {
		if got, ok := r.Metrics[k]; !ok || got != w {
			t.Errorf("metric %q = %v, want %v", k, got, w)
		}
	}
}
