package obs

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the fixed bucket count: bucket i (i ≥ 1) holds values v
// with bits.Len64(v) == i, i.e. v ∈ [2^(i-1), 2^i − 1]; bucket 0 holds 0.
// Log2 bucketing covers the full uint64 range (1 ns … ~584 years, 1 B …
// 16 EiB) with constant memory and a branch-free index computation.
const histBuckets = 65

// Histogram is a lock-free fixed-bucket log-scale histogram for latencies
// (nanoseconds) and sizes (bytes). The zero value is NOT ready; use
// NewHistogram or Registry.Histogram.
type Histogram struct {
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one value: two atomic adds, the sum and the value's bucket.
func (h *Histogram) Observe(v uint64) {
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// Count returns the number of observations: the sum of the bucket counts, as
// Snapshot derives it.
func (h *Histogram) Count() uint64 { return h.Snapshot().Count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// bucketUpper is the inclusive upper bound of bucket i.
func bucketUpper(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << i) - 1
}

// Quantile returns the upper bound of the bucket containing the q-quantile
// (0 ≤ q ≤ 1), so the estimate is within one log2 bucket of the true value.
// Returns 0 for an empty histogram. It reads a snapshot, whose total is its
// own bucket sum, so a concurrent Observe cannot put the rank past the end.
func (h *Histogram) Quantile(q float64) uint64 { return h.Snapshot().Quantile(q) }

// HistogramSnapshot is a consistent-enough copy for rendering.
type HistogramSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [histBuckets]uint64
}

// Snapshot copies the current bucket counts. Count/Sum are recomputed from
// the bucket snapshot so the cumulative series is internally consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = h.sum.Load()
	return s
}

// Merge returns the bucket-wise sum of s and o: the histogram that would
// result from observing both underlying series into one histogram. Count is
// recomputed from the merged buckets (so a merged snapshot always
// reconciles, even if an input was hand-built) and Sum is the sum of sums.
// Fleet rollups use it to aggregate per-host latency reports without
// re-binning.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	var out HistogramSnapshot
	for i := range out.Buckets {
		out.Buckets[i] = s.Buckets[i] + o.Buckets[i]
		out.Count += out.Buckets[i]
	}
	out.Sum = s.Sum + o.Sum
	return out
}

// Quantile returns the upper bound of the bucket containing the q-quantile
// (0 ≤ q ≤ 1) of the frozen snapshot, so exported perf records are
// internally consistent. Returns 0 for an empty snapshot (not NaN).
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the target observation.
	rank := uint64(q*float64(s.Count-1)) + 1
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}
