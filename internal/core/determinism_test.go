package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"opendesc/internal/semantics"
)

// TestCompileDeterministic pins that compilation is a pure function of its
// inputs: repeated compiles yield identical path IDs, accessor tables and
// configurations (drivers and firmware rely on stable negotiation results).
func TestCompileDeterministic(t *testing.T) {
	info := e1000Info(t)
	intent := intentOf(t, semantics.RSS, semantics.IPChecksum, semantics.VLAN)
	first, err := Compile("e1000e", info, intent, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := Compile("e1000e", info, intent, CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if again.Selected.Path.ID != first.Selected.Path.ID {
			t.Fatalf("run %d selected path %d, first run %d", i, again.Selected.Path.ID, first.Selected.Path.ID)
		}
		if len(again.Accessors) != len(first.Accessors) {
			t.Fatalf("accessor count drifted")
		}
		for j := range again.Accessors {
			if again.Accessors[j] != first.Accessors[j] {
				t.Fatalf("accessor %d drifted: %+v vs %+v", j, again.Accessors[j], first.Accessors[j])
			}
		}
		d, err := DiffResults(first, again)
		if err != nil {
			t.Fatal(err)
		}
		if d.Breaking() {
			t.Fatalf("self-recompile produced a breaking diff:\n%s", d)
		}
	}
}

// TestQuickSelectionInvariants checks Eq. 1 selection properties on random
// requests over the e1000e paths:
//   - the winner's objective is minimal among all scored paths;
//   - every hardware accessor points inside the selected completion;
//   - Req is partitioned exactly into hardware ∪ software.
func TestQuickSelectionInvariants(t *testing.T) {
	info := e1000Info(t)
	universe := []semantics.Name{
		semantics.RSS, semantics.IPChecksum, semantics.IPID, semantics.PktLen,
		semantics.VLAN, semantics.ErrorFlags, semantics.KVKey, semantics.FlowID,
	}
	f := func(mask uint8, alphaRaw uint8) bool {
		if mask == 0 {
			return true
		}
		var sems []semantics.Name
		for i, s := range universe {
			if mask>>i&1 == 1 {
				sems = append(sems, s)
			}
		}
		intent, err := IntentFromSemantics("q", semantics.Default, sems...)
		if err != nil {
			return false
		}
		alpha := float64(alphaRaw%16) + 0.5
		res, err := Compile("e1000e", info, intent, CompileOptions{
			Select: SelectOptions{Alpha: alpha},
		})
		if err != nil {
			return false
		}
		// Optimality.
		for _, s := range res.Scored {
			if s.Total < res.Selected.Total {
				return false
			}
		}
		// Accessor partition and bounds.
		req := intent.Req()
		seen := make(semantics.Set)
		limit := res.CompletionBytes() * 8
		for _, a := range res.Accessors {
			if seen.Has(a.Semantic) || !req.Has(a.Semantic) {
				return false
			}
			seen.Add(a.Semantic)
			if a.Hardware && a.OffsetBits+a.WidthBits > limit {
				return false
			}
		}
		return seen.Equal(req)
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickPathLayoutContiguity: enumerated layouts are gap-free and ordered
// (fields tile the completion from bit 0 upward).
func TestQuickPathLayoutContiguity(t *testing.T) {
	for _, src := range []string{e1000Desc, correlatedDesc, switchDesc} {
		info := infoFromSource(t, src)
		g, err := BuildDeparserGraph(info)
		if err != nil {
			t.Fatal(err)
		}
		paths, err := EnumeratePaths(g, EnumerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			off := 0
			for _, f := range p.Fields {
				if f.OffsetBits != off {
					t.Fatalf("path %d: field %s at %d, expected %d", p.ID, f.Name, f.OffsetBits, off)
				}
				off += f.WidthBits
			}
			if off != p.SizeBits() {
				t.Fatalf("path %d: size %d != last offset %d", p.ID, p.SizeBits(), off)
			}
		}
	}
}
