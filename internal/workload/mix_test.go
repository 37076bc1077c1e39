package workload

import (
	"strings"
	"testing"
)

func TestMixScheduleValidation(t *testing.T) {
	if _, err := NewMixSchedule(); err == nil {
		t.Error("zero-phase schedule accepted, want error")
	}
	_, err := NewMixSchedule(Mix{"rss", "no_such_semantic"})
	if err == nil {
		t.Fatal("unknown semantic accepted, want error")
	}
	if !strings.Contains(err.Error(), "no_such_semantic") || !strings.Contains(err.Error(), "phase 0") {
		t.Errorf("error %q does not name the bad semantic and phase", err)
	}
	if _, err := NewMixSchedule(Mix{"rss"}, Mix{"vlan", "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "phase 1") {
		t.Errorf("second-phase error not positional: %v", err)
	}
}

// TestMixScheduleEmptyMix: the empty mix is a legal phase — an application
// that reads no metadata at all is the degenerate end of a shifting read-mix.
func TestMixScheduleEmptyMix(t *testing.T) {
	s, err := NewMixSchedule(Mix{})
	if err != nil {
		t.Fatalf("empty mix rejected: %v", err)
	}
	if got := s.Phase(0); len(got) != 0 {
		t.Errorf("Phase(0) = %v, want empty", got)
	}
	if len(s.Phases) != 1 {
		t.Errorf("len(Phases) = %d, want 1", len(s.Phases))
	}
}

// TestMixScheduleSingleField: a one-field mix phase (the target of an abrupt
// 100%-flip) round-trips through Phase.
func TestMixScheduleSingleField(t *testing.T) {
	s := MustMixSchedule(Mix{"rss"})
	for i := 0; i < 5; i++ {
		if got := s.Phase(i); len(got) != 1 || got[0] != "rss" {
			t.Fatalf("Phase(%d) = %v, want [rss]", i, got)
		}
	}
}

// TestMixScheduleAbruptFlip models the Fig. 1 scenario as two disjoint
// single-field phases: 100% of reads flip from one semantic to another
// between consecutive phases, with no overlap.
func TestMixScheduleAbruptFlip(t *testing.T) {
	s := MustMixSchedule(Mix{"ip_checksum"}, Mix{"rss"})
	a, b := s.Phase(0), s.Phase(1)
	if len(a) != 1 || len(b) != 1 || a[0] == b[0] {
		t.Fatalf("flip phases not disjoint singletons: %v vs %v", a, b)
	}
	// Walking past the end wraps — the shifting workload cycles.
	if got := s.Phase(2); got[0] != a[0] {
		t.Errorf("Phase(2) = %v, want wrap to %v", got, a)
	}
	if got := s.Phase(3); got[0] != b[0] {
		t.Errorf("Phase(3) = %v, want wrap to %v", got, b)
	}
}

func TestMixSchedulePhaseWrapping(t *testing.T) {
	var zero MixSchedule
	if got := zero.Phase(7); got != nil {
		t.Errorf("zero schedule Phase(7) = %v, want nil", got)
	}
	if len(zero.Phases) != 0 {
		t.Errorf("zero schedule len(Phases) = %d, want 0", len(zero.Phases))
	}
	s := MustMixSchedule(Mix{"rss"}, Mix{"vlan"}, Mix{})
	if got := s.Phase(4); len(got) != 1 || got[0] != "vlan" {
		t.Errorf("Phase(4) = %v, want [vlan]", got)
	}
	// Negative indices must not panic (defensive for scripted schedules):
	// they map onto their absolute value, so -2 is phase 2, the empty mix.
	if got := s.Phase(-2); len(got) != 0 {
		t.Errorf("Phase(-2) = %v, want the empty mix", got)
	}
}

func TestMustMixSchedulePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustMixSchedule with unknown semantic did not panic")
		}
	}()
	MustMixSchedule(Mix{"banana"})
}
