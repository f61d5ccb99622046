package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q <= 1) of xs by the
// nearest-rank rule: the smallest value with at least q of the samples at
// or below it. xs need not be sorted; it is not modified. NaN when empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// supported reports whether the q-quantile of n samples has at least ten
// samples beyond it — the rule for the highest percentile worth quoting.
func supported(n int, q float64) bool {
	rank := int(math.Ceil(q * float64(n)))
	return n > 0 && n-rank >= 10
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }
