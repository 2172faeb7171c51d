package main

import (
	"cmp"
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it.  An empty input yields the zero value.
func percentile[T cmp.Ordered](sorted []T, p float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	return sorted[percentileRank(len(sorted), p)-1]
}

// percentileRank is the 1-based nearest rank of the p-th percentile of n
// samples.
func percentileRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// tailSupported reports whether the p-th percentile of n samples has at
// least ten samples beyond it, the rule for the highest percentile worth
// reporting.
func tailSupported(n int, p float64) bool {
	return n > 0 && n-percentileRank(n, p) >= 10
}

// median is the nearest-rank median (the lower middle sample for an even
// count, so it is always a measured value).
func median[T cmp.Ordered](v []T) T {
	s := slices.Clone(v)
	slices.Sort(s)
	return percentile(s, 50)
}
