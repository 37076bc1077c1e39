package obs

import (
	"math"
	"testing"
)

// TestSnapshotQuantileBucketBoundaries pins the snapshot quantile estimate
// at exact log2 bucket boundaries: a value v = 2^k lands in bucket k+1
// (bits.Len64), whose upper bound is 2^(k+1)−1, and a value 2^k−1 lands in
// bucket k with upper bound 2^k−1 (i.e. boundary values are reported
// exactly). Perf records export these numbers, so they must be pinned.
func TestSnapshotQuantileBucketBoundaries(t *testing.T) {
	cases := []struct {
		value uint64
		want  uint64 // Quantile(0.5) of a single-observation histogram
	}{
		{0, 0},                      // bucket 0 holds exactly zero
		{1, 1},                      // [1,1]
		{2, 3},                      // [2,3]
		{3, 3},                      // exact at the bucket's upper boundary
		{4, 7},                      // [4,7]
		{7, 7},                      // upper boundary again
		{1023, 1023},                // 2^10 − 1
		{1024, 2047},                // 2^10
		{1 << 62, 1<<63 - 1},        // top finite bucket below the last
		{math.MaxUint64, 1<<64 - 1}, /* ^uint64(0) */
	}
	for _, c := range cases {
		h := NewHistogram()
		h.Observe(c.value)
		s := h.Snapshot()
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := s.Quantile(q); got != c.want {
				t.Errorf("Observe(%d): snapshot q%.2f = %d, want %d", c.value, q, got, c.want)
			}
		}
		// The snapshot must agree with the live histogram's estimator.
		if live, snap := h.Quantile(0.99), s.Quantile(0.99); live != snap {
			t.Errorf("Observe(%d): live %d vs snapshot %d", c.value, live, snap)
		}
	}
}

// TestSnapshotQuantileEmpty: an empty histogram reports 0 (not NaN, not a
// panic) for every quantile, and mean 0.
func TestSnapshotQuantileEmpty(t *testing.T) {
	s := NewHistogram().Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Errorf("empty snapshot q%.2f = %d, want 0", q, got)
		}
	}
	if m := s.Mean(); m != 0 || math.IsNaN(m) {
		t.Errorf("empty snapshot mean = %v, want 0", m)
	}
}

// TestSnapshotQuantileRanks checks rank selection across buckets: with 99
// observations of 1 and one of 1024, p50 must sit in the low bucket and
// p100 in the high one; p99 picks the 100th-ranked observation per the
// rank = floor(q·(n−1))+1 convention.
func TestSnapshotQuantileRanks(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 99; i++ {
		h.Observe(1)
	}
	h.Observe(1024)
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %d, want 1", got)
	}
	if got := s.Quantile(1); got != 2047 {
		t.Errorf("p100 = %d, want 2047 (bucket upper of 1024)", got)
	}
	// rank(0.99) = floor(0.99·99)+1 = 99 → still the low bucket.
	if got := s.Quantile(0.99); got != 1 {
		t.Errorf("p99 = %d, want 1", got)
	}
	// Out-of-range q clamps instead of misbehaving.
	if s.Quantile(-1) != s.Quantile(0) || s.Quantile(2) != s.Quantile(1) {
		t.Error("out-of-range q did not clamp")
	}
	if m := s.Mean(); math.Abs(m-(99+1024)/100.0) > 1e-9 {
		t.Errorf("mean = %v, want %v", m, (99+1024)/100.0)
	}
}

// TestSnapshotMatchesLiveUnderLoad: the snapshot is a frozen copy — its
// quantiles must be stable while the live histogram keeps moving.
func TestSnapshotMatchesLiveUnderLoad(t *testing.T) {
	h := NewHistogram()
	for i := uint64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	p99 := s.Quantile(0.99)
	for i := 0; i < 10000; i++ {
		h.Observe(1 << 40) // shove the live p99 far right
	}
	if got := s.Quantile(0.99); got != p99 {
		t.Errorf("frozen snapshot p99 moved: %d → %d", p99, got)
	}
	if live := h.Quantile(0.99); live <= p99 {
		t.Errorf("live p99 = %d, want > %d after heavy right tail", live, p99)
	}
}

// TestSnapshotMerge: merging two snapshots equals observing both series
// into one histogram — bucket-wise, and Count/Sum reconcile.
func TestSnapshotMerge(t *testing.T) {
	a, b, both := NewHistogram(), NewHistogram(), NewHistogram()
	for i := uint64(1); i <= 500; i++ {
		a.Observe(i)
		both.Observe(i)
	}
	for i := uint64(1000); i <= 1100; i++ {
		b.Observe(i)
		both.Observe(i)
	}
	m := a.Snapshot().Merge(b.Snapshot())
	want := both.Snapshot()
	if m != want {
		t.Fatalf("merge mismatch:\n got  %+v\n want %+v", m, want)
	}
	if m.Count != a.Snapshot().Count+b.Snapshot().Count {
		t.Errorf("merged count %d, want %d", m.Count, a.Snapshot().Count+b.Snapshot().Count)
	}
	if m.Sum != a.Snapshot().Sum+b.Snapshot().Sum {
		t.Errorf("merged sum %d, want %d", m.Sum, a.Snapshot().Sum+b.Snapshot().Sum)
	}
	// Quantiles of the merge match the combined histogram exactly (same
	// buckets, same ranks).
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if m.Quantile(q) != want.Quantile(q) {
			t.Errorf("q%.2f: merged %d, combined %d", q, m.Quantile(q), want.Quantile(q))
		}
	}
}

// TestSnapshotMergeReconciles: Count is recomputed from the merged buckets,
// so a hand-built (lying) input cannot produce an inconsistent merge — the
// property fleet rollups rely on when aggregating untrusted host reports.
func TestSnapshotMergeReconciles(t *testing.T) {
	var lying HistogramSnapshot
	lying.Buckets[3] = 7
	lying.Count = 9999 // inconsistent with the buckets
	lying.Sum = 42
	m := lying.Merge(HistogramSnapshot{})
	if m.Count != 7 {
		t.Errorf("merged count %d, want 7 (recomputed from buckets)", m.Count)
	}
	if m.Sum != 42 {
		t.Errorf("merged sum %d, want 42", m.Sum)
	}
	// Merging empties is the identity on an honest snapshot.
	h := NewHistogram()
	h.Observe(5)
	h.Observe(300)
	s := h.Snapshot()
	if got := s.Merge(HistogramSnapshot{}); got != s {
		t.Errorf("identity merge changed the snapshot: %+v vs %+v", got, s)
	}
}

// Mean returns the arithmetic mean of the snapshot (0 when empty, never
// NaN).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
