package main

import (
	"math"
	"slices"
	"time"
)

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the nearest-rank percentile of xs closest to want that
// still has at least ten samples above it, together with the percentile
// it chose. Ten samples beyond the rank-th smallest need rank ≤ n-10.
// When even the median lacks ten samples beyond it (n < 20), no tail is
// resolved and tail returns the median, at p = 50.
func tail(xs []float64, want float64) (v, p float64) {
	n := len(xs)
	if n < 20 {
		return median(xs), 50
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	// The epsilon keeps 99% of 1000 at rank 990, not 991.
	rank := int(math.Ceil(want*float64(n)/100 - 1e-9))
	rank = min(rank, n-10)
	return s[rank-1], 100 * float64(rank) / float64(n)
}

// mean returns the mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
