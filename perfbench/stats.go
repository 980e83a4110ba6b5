package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported tail
// percentile for it to count as measured rather than as the maximum.
const minBeyond = 10

// rank returns the 1-based nearest rank of the p-th percentile of n
// samples: ceil(p/100*n), tolerant of the rounding in p/100*n.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// beyond returns how many of n samples lie strictly above the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentiles are the candidate tails, highest first.
var tailPercentiles = []float64{99.999, 99.99, 99.9, 99, 90, 75, 50}

// highestTail returns the highest candidate percentile that leaves at
// least minBeyond samples beyond it, or 0 when n is too small for any.
func highestTail(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// latencySummary is a latency distribution as the benchmark reports it:
// the median, p90, p99, the highest percentile with minBeyond samples
// beyond it, and the sample count. Unfinished samples are +Inf.
type latencySummary struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	TailP float64 `json:"tail_p"`
	Tail  float64 `json:"tail"`
}

// summarize sorts xs in place and summarizes it.
func summarize(xs []float64) latencySummary {
	sort.Float64s(xs)
	s := latencySummary{N: len(xs), P50: percentile(xs, 50), P90: percentile(xs, 90), P99: percentile(xs, 99)}
	if s.TailP = highestTail(len(xs)); s.TailP > 0 {
		s.Tail = percentile(xs, s.TailP)
	}
	return s
}

// median returns the median of xs (the mean of the middle pair for an even
// count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartileSpread returns (Q3-Q1)/median with the quartiles of Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method), the
// spread the benchmark's stability contract is stated in.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	// statistics.quantiles, method="exclusive", n=4: for cut i the
	// position j = i*(ld+1)//4 is clamped to [1, ld-1] and the cut
	// interpolates (or extrapolates) between data[j-1] and data[j].
	ld := len(s)
	q := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}

// sortedCopy returns xs sorted, leaving xs as it was.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
