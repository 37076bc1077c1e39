package semantics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestCanonicalRegistry(t *testing.T) {
	r := NewRegistry()
	if r.Len() < 20 {
		t.Errorf("canonical universe has %d semantics", r.Len())
	}
	d := r.Lookup(RSS)
	if d == nil || d.DefaultBits != 32 || d.SoftCost <= 0 {
		t.Errorf("rss descriptor = %+v", d)
	}
	if r.Lookup("nope") != nil {
		t.Error("unknown lookup should be nil")
	}
}

func TestInemulableSemantics(t *testing.T) {
	r := NewRegistry()
	for _, n := range []Name{Timestamp, Mark, CryptoCtx, LROSegs} {
		if !math.IsInf(r.Lookup(n).SoftCost, 1) {
			t.Errorf("%s should have infinite software cost", n)
		}
	}
}

func TestRegisterNewSemantic(t *testing.T) {
	r := NewRegistry()
	err := r.Register(Descriptor{
		Name: "my_accel_result", Doc: "custom accelerator",
		DefaultBits: 48, SoftCost: 250,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := r.Lookup("my_accel_result"); d == nil || d.DefaultBits != 48 {
		t.Errorf("registered = %+v", d)
	}
	// Evolvability: replacing an existing one is allowed.
	if err := r.Register(Descriptor{Name: RSS, DefaultBits: 32, SoftCost: 5}); err != nil {
		t.Fatal(err)
	}
	if r.Lookup(RSS).SoftCost != 5 {
		t.Error("replacement not applied")
	}
}

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry()
	for _, d := range []Descriptor{
		{Name: "", DefaultBits: 8},
		{Name: "x", DefaultBits: 0},
		{Name: "x", DefaultBits: 5000},
		{Name: "x", DefaultBits: 8, SoftCost: -1},
		{Name: "x", DefaultBits: 8, Stages: -1},
	} {
		if err := r.Register(d); err == nil {
			t.Errorf("Register(%+v) should fail", d)
		}
	}
}

func TestRegistryCostsUnknownIsInfinite(t *testing.T) {
	cm := RegistryCosts(NewRegistry())
	if !math.IsInf(cm("never_heard_of_it"), 1) {
		t.Error("unknown semantics must cost ∞")
	}
	if cm(VLAN) != 4 {
		t.Errorf("vlan cost = %v", cm(VLAN))
	}
}

func TestCostOverrides(t *testing.T) {
	cm := RegistryCosts(NewRegistry()).WithOverrides(map[Name]float64{RSS: 99})
	if cm(RSS) != 99 || cm(VLAN) != 4 {
		t.Errorf("override model: rss=%v vlan=%v", cm(RSS), cm(VLAN))
	}
}

func TestSetOperations(t *testing.T) {
	a := NewSet(RSS, VLAN, Timestamp)
	b := NewSet(VLAN, PktLen)
	if !a.Has(RSS) || a.Has(PktLen) {
		t.Error("membership broken")
	}
	if u := a.Union(b); len(u) != 4 {
		t.Errorf("union = %v", u)
	}
	if m := a.Minus(b); len(m) != 2 || m.Has(VLAN) {
		t.Errorf("minus = %v", m)
	}
	if i := a.Intersect(b); len(i) != 1 || !i.Has(VLAN) {
		t.Errorf("intersect = %v", i)
	}
	if a.Equal(b) || !a.Equal(NewSet(Timestamp, VLAN, RSS)) {
		t.Error("equality broken")
	}
	if s := NewSet(VLAN, RSS).String(); s != "{rss, vlan}" {
		t.Errorf("string = %q", s)
	}
}

func TestSetSortedDeterministic(t *testing.T) {
	s := NewSet(VLAN, RSS, PktLen, Timestamp)
	first := s.Sorted()
	for i := 0; i < 10; i++ {
		again := s.Sorted()
		for j := range first {
			if first[j] != again[j] {
				t.Fatal("sorted order unstable")
			}
		}
	}
}

// Property: set algebra laws hold for arbitrary name sets.
func TestQuickSetLaws(t *testing.T) {
	mk := func(xs []uint8) Set {
		s := make(Set)
		for _, x := range xs {
			s.Add(Name(rune('a' + x%16)))
		}
		return s
	}
	f := func(xs, ys []uint8) bool {
		a, b := mk(xs), mk(ys)
		u := a.Union(b)
		// a ⊆ a∪b and b ⊆ a∪b.
		for n := range a {
			if !u.Has(n) {
				return false
			}
		}
		for n := range b {
			if !u.Has(n) {
				return false
			}
		}
		// (a\b) ∩ b = ∅ and (a\b) ∪ (a∩b) = a.
		d := a.Minus(b)
		if len(d.Intersect(b)) != 0 {
			return false
		}
		return d.Union(a.Intersect(b)).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if i%2 == 0 {
					r.Register(Descriptor{Name: Name(rune('a' + i)), DefaultBits: 8, SoftCost: 1})
				} else {
					r.Lookup(RSS)
					r.Names()
				}
			}
		}(i)
	}
	wg.Wait()
}

// Union returns s ∪ o as a new set.
func (s Set) Union(o Set) Set {
	out := make(Set, len(s)+len(o))
	for n := range s {
		out[n] = struct{}{}
	}
	for n := range o {
		out[n] = struct{}{}
	}
	return out
}

// Minus returns s \ o as a new set.
func (s Set) Minus(o Set) Set {
	out := make(Set)
	for n := range s {
		if !o.Has(n) {
			out[n] = struct{}{}
		}
	}
	return out
}
