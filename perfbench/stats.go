package main

import (
	"math"
	"sort"
)

// percentile returns the exact q-quantile (0 < q ≤ 1) of samples that
// are already sorted ascending, by the nearest-rank rule: the smallest
// sample with at least q·n samples at or below it. It is an order
// statistic of the raw samples, never a bucket edge, so a 20% shift in
// the samples moves it by 20%. It returns NaN for no samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

// median returns the nearest-rank median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// mean returns the arithmetic mean of xs, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, 0 when den is 0 (a layer the workload never
// reached reports 0, not NaN, so the result stays valid JSON).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
