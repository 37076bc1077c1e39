package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of an ascending slice by the nearest-rank
// rule (no interpolation: a reported latency is one that was measured).
func quantile[T int64 | uint32 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(0, min(rank(len(sorted), q)-1, len(sorted)-1))]
}

// rank is the 1-based nearest rank of the q-quantile among n samples. The
// epsilon keeps 0.9*100 (90.00000000000001 in floating point) at rank 90.
func rank(n int, q float64) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// median sorts xs in place and returns its median.
func median[T int64 | uint32 | float64](xs []T) T {
	slices.Sort(xs)
	return quantile(xs, 0.5)
}

// quietQuantile is the share of a cost's repetitions the reported value
// leaves below it. This box is a small VM on a shared host whose neighbours
// slow it by up to 1.7x for milliseconds to minutes at a time (README,
// "Quiet-machine numbers"): repetitions of one piece of work fall in two
// modes, and a median jumps from one to the other as the busy share of the
// run crosses one half. The 2nd percentile stays inside the quiet mode as
// long as the machine is quiet for a fiftieth of the run, and is the cost a
// change to the code moves. (With fewer than fifty repetitions it is their
// minimum.)
const quietQuantile = 0.02

// quiet sorts xs in place and returns their quiet quantile.
func quiet[T int64 | uint32 | float64](xs []T) T {
	slices.Sort(xs)
	return quantile(xs, quietQuantile)
}

// quietBySlot groups repetitions of a lap of work by their position in the
// lap — xs[i] is a repetition of position (slot0+i) % slots — and returns the
// quiet quantile of every position that has a sample, in position order.
// NaNs are skipped. Summed or averaged over the positions this is the cost of
// one whole lap, each piece of it taken when the machine was quiet; positions
// differ in the work they do, repetitions of one position do not.
func quietBySlot(xs []float64, slot0, slots int) []float64 {
	bySlot := make([][]float64, slots)
	for i, x := range xs {
		if !math.IsNaN(x) {
			bySlot[(slot0+i)%slots] = append(bySlot[(slot0+i)%slots], x)
		}
	}
	var out []float64
	for _, s := range bySlot {
		if len(s) > 0 {
			out = append(out, quiet(s))
		}
	}
	return out
}

// mean returns the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

// tailQuantiles are the percentiles a timing may be reported at, ascending.
var tailQuantiles = []float64{0.90, 0.95, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the "percentile" is a handful of outliers.
const minBeyond = 10

// supported reports whether n samples leave at least minBeyond of them
// beyond the q-quantile.
func supported(n int, q float64) bool {
	return n-rank(n, q) >= minBeyond
}

// highestTail picks the highest percentile of tailQuantiles that n samples
// support; ok is false when even the lowest has too few samples beyond it.
func highestTail(n int) (q float64, ok bool) {
	for _, c := range tailQuantiles {
		if supported(n, c) {
			q, ok = c, true
		}
	}
	return q, ok
}

// quartileSpread is the interquartile distance of xs as a share of their
// median, with the quartiles of Python's statistics.quantiles(xs, n=4)
// (exclusive method) so the figure matches the one the PR gate computes.
func quartileSpread(xs []float64) (q1, med, q3, spread float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := max(0, min(int(math.Floor(pos)), len(s)-1))
		hi := min(lo+1, len(s)-1)
		frac := max(0, min(pos-float64(lo), 1))
		return s[lo] + (s[hi]-s[lo])*frac
	}
	if len(s) == 0 {
		return 0, 0, 0, 0
	}
	q1, med, q3 = at(0.25), at(0.5), at(0.75)
	if med != 0 {
		spread = (q3 - q1) / math.Abs(med)
	}
	return q1, med, q3, spread
}
