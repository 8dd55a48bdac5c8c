package main

import (
	"math"
	"testing"
)

func TestPercentileIsExactOrderStatistic(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{
		{0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// 1000 samples: p99 is the 990th, with ten samples beyond it.
	var many []float64
	for i := 1; i <= 1000; i++ {
		many = append(many, float64(i)/1000)
	}
	if got := percentile(many, 0.99); got != 0.99 {
		t.Errorf("p99 of 1000 samples = %v, want 0.99", got)
	}
	if got := percentile([]float64{42}, 0.99); got != 42 {
		t.Errorf("p99 of one sample = %v, want 42", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestCoveredCountsOverlapsOnce(t *testing.T) {
	parent := span{start: 0, end: 100}
	kids := []span{{start: 10, end: 30}, {start: 20, end: 40}, {start: 90, end: 150}, {start: -5, end: 5}}
	// [10,40) + [90,100) + [0,5) = 30 + 10 + 5.
	if got := covered(parent, kids); got != 45 {
		t.Errorf("covered = %d, want 45", got)
	}
}
