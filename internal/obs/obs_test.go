package obs

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestCounterConcurrentExact(t *testing.T) {
	var c Counter
	const goroutines = 8
	const perG = 50000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestCounterPadding(t *testing.T) {
	if sz := unsafe.Sizeof(Counter{}); sz != cacheLine {
		t.Errorf("Counter size = %d, want one cache line (%d)", sz, cacheLine)
	}
	if sz := unsafe.Sizeof(Gauge{}); sz != cacheLine {
		t.Errorf("Gauge size = %d, want one cache line (%d)", sz, cacheLine)
	}
}

func TestGaugeHighWater(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Set(12)
	g.Set(3)
	if g.Load() != 3 || g.Max() != 12 {
		t.Errorf("gauge = %d max %d, want 3 max 12", g.Load(), g.Max())
	}
	g.Add(20)
	if g.Load() != 23 || g.Max() != 23 {
		t.Errorf("gauge = %d max %d, want 23 max 23", g.Load(), g.Max())
	}
	g.Add(-10)
	if g.Load() != 13 || g.Max() != 23 {
		t.Errorf("gauge = %d max %d, want 13 max 23", g.Load(), g.Max())
	}
}

// quantileTruth returns the exact q-quantile of sorted vals using the same
// rank convention as Histogram.Quantile.
func quantileTruth(sorted []uint64, q float64) uint64 {
	rank := int(q*float64(len(sorted)-1)) + 1
	return sorted[rank-1]
}

func TestHistogramPercentilesWithinOneBucket(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(42))
	vals := make([]uint64, 0, 10000)
	for i := 0; i < 10000; i++ {
		// Log-uniform values spanning ns … tens of ms.
		v := uint64(1) << uint(rng.Intn(25))
		v += uint64(rng.Int63n(int64(v)))
		vals = append(vals, v)
		h.Observe(v)
	}
	// Sort a copy for ground truth.
	sorted := append([]uint64(nil), vals...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j-1] > sorted[j]; j-- {
			sorted[j-1], sorted[j] = sorted[j], sorted[j-1]
		}
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		truth := quantileTruth(sorted, q)
		got := h.Quantile(q)
		// The estimate must be the upper bound of the bucket holding the
		// truth: truth ≤ got < 2·truth+2 (one log2 bucket).
		if got < truth || got > 2*truth+1 {
			t.Errorf("q=%.2f: quantile = %d, truth %d (bucket bound violated)", q, got, truth)
		}
	}
	if h.Count() != 10000 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Error("empty histogram should report zeros")
	}
	h.Observe(0)
	if h.Quantile(0.5) != 0 {
		t.Errorf("zero-only quantile = %d", h.Quantile(0.5))
	}
	h.Observe(^uint64(0))
	if got := h.Quantile(1); got != ^uint64(0) {
		t.Errorf("max quantile = %d", got)
	}
	if h.Count() != 2 {
		t.Errorf("count = %d", h.Count())
	}
}

// TestHistogramCountIsBucketSum: Count sums the buckets, so once concurrent
// observers stop it equals Snapshot's count and the number observed.
func TestHistogramCountIsBucketSum(t *testing.T) {
	h := NewHistogram()
	const goroutines, perG = 4, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(uint64(g*perG + i))
			}
		}(g)
	}
	wg.Wait()
	if n, s := h.Count(), h.Snapshot().Count; n != goroutines*perG || s != n {
		t.Errorf("Count() = %d, Snapshot().Count = %d, want both %d", n, s, goroutines*perG)
	}
}

func TestRegistryIdempotentAndConcurrent(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "help", L("a", "1"))
	c2 := r.Counter("x_total", "other help", L("a", "1"))
	if c1 != c2 {
		t.Error("same series must return the same counter")
	}
	c3 := r.Counter("x_total", "help", L("a", "2"))
	if c1 == c3 {
		t.Error("different labels must create a new series")
	}
	// Concurrent registration + scrape must not race (run with -race).
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Counter("y_total", "h", L("g", string(rune('a'+g)))).Inc()
				_ = r.Table()
			}
		}(g)
	}
	wg.Wait()
}

func TestTraceReport(t *testing.T) {
	tr := NewTrace("compile demo")
	for _, stage := range []string{"parse", "sema", "cfg", "paths", "select", "codegen"} {
		sp := tr.Start(stage)
		sp.Annotate("k", 7)
		sp.End()
	}
	rep := tr.Report()
	for _, stage := range []string{"parse", "sema", "cfg", "paths", "select", "codegen"} {
		if !strings.Contains(rep, stage) {
			t.Errorf("report missing stage %q:\n%s", stage, rep)
		}
	}
	if !strings.Contains(rep, "k=7") {
		t.Errorf("report missing annotation:\n%s", rep)
	}
	if tr.Span("cfg") == nil || tr.Span("nope") != nil {
		t.Error("Span lookup broken")
	}
	if len(tr.Spans()) != 6 {
		t.Errorf("spans = %d", len(tr.Spans()))
	}
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}
