package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"opendesc/internal/semantics"
)

// TestCacheSingleflight: many goroutines requesting one key of a Memo run
// its compute exactly once and share one result pointer; a second key
// computes on its own. Run under -race this is also the memo's data-race
// test.
func TestCacheSingleflight(t *testing.T) {
	var m Memo[CacheKey, *Result]
	rows := []struct {
		key  CacheKey
		want *Result
	}{
		{CacheKey{Digest: "d1", Intent: "i1"}, &Result{NIC: "fake"}},
		{CacheKey{Digest: "d1", Intent: "i2"}, &Result{NIC: "other"}},
	}
	for n, row := range rows {
		checkOneCompute(t, &m, row.key, row.want, nil)
		if m.Len() != n+1 {
			t.Fatalf("after %d keys Len = %d", n+1, m.Len())
		}
	}
}

// TestCacheErrorMemoized: a failed compute is kept like a value (a compile
// is a pure function of its key, so it would fail again): every concurrent
// caller gets the error, and a later Get returns it without recomputing.
func TestCacheErrorMemoized(t *testing.T) {
	var m Memo[CacheKey, *Result]
	checkOneCompute(t, &m, CacheKey{Digest: "bad", Intent: "i1"}, nil, errors.New("unsatisfiable"))
	if m.Len() != 1 {
		t.Fatalf("Len = %d after one failed key, want 1", m.Len())
	}
}

// checkOneCompute has 32 goroutines Get key from m at once, with a compute
// held open so they pile up on it, and checks the compute ran exactly once,
// every caller got (want, wantErr), and a later Get is a plain hit.
func checkOneCompute(t *testing.T, m *Memo[CacheKey, *Result], key CacheKey, want *Result, wantErr error) {
	t.Helper()
	const callers = 32
	var computes atomic.Uint64
	gate := make(chan struct{})
	compute := func() (*Result, error) {
		computes.Add(1)
		<-gate // hold the compute open so arrivals pile up on it
		return want, wantErr
	}
	var wg sync.WaitGroup
	results := make([]*Result, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = m.Get(key, compute)
		}(i)
	}
	close(gate)
	wg.Wait()

	if c := computes.Load(); c != 1 {
		t.Fatalf("%+v: compute ran %d times for one key, want exactly 1", key, c)
	}
	for i := range results {
		if results[i] != want || errs[i] != wantErr {
			t.Fatalf("%+v: caller %d got (%v, %v), want (%v, %v)", key, i, results[i], errs[i], want, wantErr)
		}
	}
	// A later Get is a plain hit, the error included.
	if res, err := m.Get(key, func() (*Result, error) {
		t.Fatalf("%+v: a computed key must not recompute", key)
		return nil, nil
	}); res != want || err != wantErr {
		t.Fatalf("%+v: later Get = (%v, %v)", key, res, err)
	}
}

// TestSourceDigestAndIntentKey: the content address separates sources, and
// the intent key is canonical under field order.
func TestSourceDigestAndIntentKey(t *testing.T) {
	if SourceDigest("a") == SourceDigest("b") {
		t.Fatal("distinct sources must have distinct digests")
	}
	if len(SourceDigest("a")) != 64 {
		t.Fatalf("digest length = %d, want 64 hex chars", len(SourceDigest("a")))
	}

	i1, err := IntentFromSemantics("x", semantics.Default, semantics.RSS, semantics.PktLen)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := IntentFromSemantics("x", semantics.Default, semantics.PktLen, semantics.RSS)
	if err != nil {
		t.Fatal(err)
	}
	if IntentKey(i1) != IntentKey(i2) {
		t.Fatal("intent key must be canonical under field order")
	}
	k := CompileKey(SourceDigest("src"), i1)
	if k.Digest != SourceDigest("src") || k.Intent == "" {
		t.Fatalf("CompileKey = %+v", k)
	}
}
