package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond the tail percentile for it
// to be reported: fewer than that and the value is one scheduling hiccup,
// not a property of the system.
const tailBeyond = 10

// median returns the median of sorted (ascending, non-empty).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tailCap is the highest percentile ever reported as the tail. Beyond p99 a
// microsecond op on a shared 2-core sandbox measures the host's scheduler,
// which no change to this repository moves.
const tailCap = 0.99

// tail returns the highest percentile of sorted (ascending, non-empty), up
// to tailCap, that still has at least tailBeyond samples beyond it, and
// which percentile that is. With too few samples for any such percentile
// above the median it falls back to the median itself (pct = 50): a run of
// twenty slow ops has no tail worth a name.
func tail(sorted []float64) (value, pct float64) {
	n := len(sorted)
	k := n - 1 - tailBeyond // index with exactly tailBeyond samples after it
	if c := int(tailCap*float64(n)) - 1; k > c {
		k = c
	}
	if k <= (n-1)/2 {
		return median(sorted), 50
	}
	return sorted[k], 100 * float64(k+1) / float64(n)
}

// sortedCopy returns xs sorted ascending without disturbing xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// spread is the interquartile distance of xs as a share of their median —
// the run-to-run steadiness statistic the regression bounds are set
// against. Quartiles follow Python's statistics.quantiles(xs, n=4)
// (exclusive method), so the number matches what the PR driver computes.
func spread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(p float64) float64 {
		pos := p * float64(n+1)
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(m)
}
