package retry

import (
	"errors"
	"testing"
)

// TestDefaultAttemptCount pins the zero-value policy to the legacy ×4
// ApplyConfig loops it replaced in evolve, tenant, and harden: exactly 4
// attempts, one OnError per failure, last error returned verbatim.
func TestDefaultAttemptCount(t *testing.T) {
	sentinel := errors.New("nak")
	calls, failures := 0, 0
	err := Policy{OnError: func(attempt int, err error) {
		failures++
		if attempt != failures {
			t.Fatalf("OnError attempt = %d, want %d", attempt, failures)
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("OnError err = %v, want sentinel", err)
		}
	}}.Do(func() error {
		calls++
		return sentinel
	})
	if calls != Attempts || failures != Attempts {
		t.Fatalf("calls = %d, failures = %d, want %d each (legacy ×4 parity)",
			calls, failures, Attempts)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("Do returned %v, want the last error unwrapped", err)
	}
}

func TestDoStopsOnSuccess(t *testing.T) {
	calls := 0
	err := Policy{}.Do(func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err = %v, calls = %d, want success on attempt 3", err, calls)
	}
}

// TestBackoffSequence pins the deterministic schedule to the harden
// watchdog's historical one: 1, 2, 4, …, capped, repeating at the cap.
func TestBackoffSequence(t *testing.T) {
	b := Policy{BaseDelay: 1, MaxDelay: 8}.NewBackoff()
	want := []uint64{1, 2, 4, 8, 8, 8}
	for i, w := range want {
		if got := b.Next(); got != w {
			t.Fatalf("delay %d = %d, want %d", i, got, w)
		}
	}
	b.Reset()
	if got := b.Next(); got != 1 {
		t.Fatalf("post-reset delay = %d, want 1", got)
	}
}

// TestJitterDeterministicAndBounded: same seed ⇒ same delays; every
// jittered delay stays within [d/2, d] of the exact schedule.
func TestJitterDeterministicAndBounded(t *testing.T) {
	p := Policy{BaseDelay: 16, MaxDelay: 1024, JitterSeed: 7}
	a, b := p.NewBackoff(), p.NewBackoff()
	exact := Policy{BaseDelay: 16, MaxDelay: 1024}.NewBackoff()
	for i := 0; i < 12; i++ {
		da, db, de := a.Next(), b.Next(), exact.Next()
		if da != db {
			t.Fatalf("delay %d: seeds diverged (%d vs %d)", i, da, db)
		}
		if da < de/2 || da > de {
			t.Fatalf("delay %d = %d outside [%d, %d]", i, da, de/2, de)
		}
	}
	other := Policy{BaseDelay: 16, MaxDelay: 1024, JitterSeed: 8}.NewBackoff()
	same := true
	for i := 0; i < 12; i++ {
		if a.Next() != other.Next() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

func TestSleepReceivesSchedule(t *testing.T) {
	var delays []uint64
	Policy{
		BaseDelay: 2,
		MaxDelay:  1024,
		Sleep:     func(d uint64) { delays = append(delays, d) },
	}.Do(func() error { return errors.New("x") })
	want := []uint64{2, 4, 8} // 3 backoffs between 4 attempts
	if len(delays) != len(want) {
		t.Fatalf("delays = %v, want %v", delays, want)
	}
	for i := range want {
		if delays[i] != want[i] {
			t.Fatalf("delays = %v, want %v", delays, want)
		}
	}
}
