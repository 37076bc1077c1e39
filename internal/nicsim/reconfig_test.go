package nicsim

import (
	"strings"
	"testing"

	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/p4/sema"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
)

func u64(v uint64) sema.Value { return sema.UintValue(v, 64) }

// compileForPath compiles the e1000e test intent with cost overrides chosen
// so path selection lands on the requested branch: hot == the semantic whose
// software fallback is made prohibitively expensive.
func compileForPath(t *testing.T, hot, cold semantics.Name) *core.Result {
	t.Helper()
	intent, err := core.IntentFromSemantics("reconfig", semantics.Default,
		semantics.RSS, semantics.IPChecksum, semantics.VLAN, semantics.PktLen)
	if err != nil {
		t.Fatal(err)
	}
	costs := semantics.RegistryCosts(semantics.Default).WithOverrides(map[semantics.Name]float64{
		hot: 1000, cold: 1,
	})
	res, err := nic.MustLoad("e1000e").Compile(intent, core.CompileOptions{
		Select: core.SelectOptions{Costs: costs},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HardwareSet().Has(hot) {
		t.Fatalf("cost override did not select the %s path: hardware = %s", hot, res.HardwareSet())
	}
	return res
}

func TestApplyConfigConflictingEquality(t *testing.T) {
	dev := MustNew(nic.MustLoad("e1000e"), Config{})
	err := dev.ApplyConfig([]core.Constraint{
		{Var: "ctx.use_rss", Val: u64(1), Equal: true},
		{Var: "ctx.use_rss", Val: u64(0), Equal: true},
	})
	if err == nil || !strings.Contains(err.Error(), "conflicting") {
		t.Fatalf("err = %v, want conflicting-config error", err)
	}
	// Equal duplicates are not a conflict.
	if err := dev.ApplyConfig([]core.Constraint{
		{Var: "ctx.use_rss", Val: u64(1), Equal: true},
		{Var: "ctx.use_rss", Val: u64(1), Equal: true},
	}); err != nil {
		t.Fatalf("duplicate equality: %v", err)
	}
	if got := dev.ReadReg("ctx.use_rss"); got != 1 {
		t.Fatalf("ctx.use_rss = %d, want 1", got)
	}
}

func TestApplyConfigDisequalityPicksSmallestExcluded(t *testing.T) {
	dev := MustNew(nic.MustLoad("e1000e"), Config{})
	if err := dev.ApplyConfig([]core.Constraint{
		{Var: "ctx.a", Val: u64(0), Equal: false},
		{Var: "ctx.a", Val: u64(1), Equal: false},
		{Var: "ctx.a", Val: u64(2), Equal: false},
		{Var: "ctx.b", Val: u64(1), Equal: false},
	}); err != nil {
		t.Fatal(err)
	}
	if got := dev.ReadReg("ctx.a"); got != 3 {
		t.Errorf("ctx.a = %d, want 3 (smallest value not excluded)", got)
	}
	if got := dev.ReadReg("ctx.b"); got != 0 {
		t.Errorf("ctx.b = %d, want 0", got)
	}
	// An equality on the same variable wins over disequalities that don't
	// contradict it.
	if err := dev.ApplyConfig([]core.Constraint{
		{Var: "ctx.c", Val: u64(0), Equal: false},
		{Var: "ctx.c", Val: u64(7), Equal: true},
	}); err != nil {
		t.Fatal(err)
	}
	if got := dev.ReadReg("ctx.c"); got != 7 {
		t.Errorf("ctx.c = %d, want 7 (equality wins)", got)
	}
}

// TestReconfigureWithPendingCompletions reprograms the context while the
// completion ring still holds records serialized under the old layout: the
// pending records must stay readable through the old accessors, and records
// produced after the switch must follow the new layout.
func TestReconfigureWithPendingCompletions(t *testing.T) {
	oldRes := compileForPath(t, semantics.IPChecksum, semantics.RSS)
	newRes := compileForPath(t, semantics.RSS, semantics.IPChecksum)

	dev := MustNew(nic.MustLoad("e1000e"), Config{})
	if err := dev.ApplyConfig(oldRes.Config); err != nil {
		t.Fatal(err)
	}
	golden := softnic.Funcs()
	oldRT := codegen.NewRuntime(oldRes, golden)
	newRT := codegen.NewRuntime(newRes, golden)
	p := testPacket()

	const pending = 5
	for i := 0; i < pending; i++ {
		if !dev.RxPacket(p) {
			t.Fatalf("rx %d failed", i)
		}
	}

	// Reconfigure while the ring is non-empty (completions not consumed).
	if err := dev.ApplyConfig(newRes.Config); err != nil {
		t.Fatal(err)
	}
	if ap, err := dev.ActivePath(); err != nil || !ap.Prov().Has(semantics.RSS) {
		t.Fatalf("active path after reconfig = %v (err %v), want rss branch", ap, err)
	}
	for i := 0; i < pending; i++ {
		if !dev.RxPacket(p) {
			t.Fatalf("rx %d (new layout) failed", i)
		}
	}

	wantCsum := uint64(golden[semantics.IPChecksum](p)) & 0xFFFF
	wantRSS := uint64(golden[semantics.RSS](p)) & 0xFFFFFFFF
	drained := 0
	for dev.CmptRing.Consume(func(cmpt []byte) {
		if drained < pending {
			got, err := oldRT.Read(semantics.IPChecksum, cmpt, p)
			if err != nil {
				t.Fatalf("old completion %d: %v", drained, err)
			}
			if got != wantCsum {
				t.Errorf("old completion %d: ip_checksum = %#x, want %#x", drained, got, wantCsum)
			}
		} else {
			got, err := newRT.Read(semantics.RSS, cmpt, p)
			if err != nil {
				t.Fatalf("new completion %d: %v", drained, err)
			}
			if got != wantRSS {
				t.Errorf("new completion %d: rss = %#x, want %#x", drained, got, wantRSS)
			}
		}
		drained++
	}) {
	}
	if drained != 2*pending {
		t.Fatalf("drained %d completions, want %d", drained, 2*pending)
	}
	if st := dev.Stats(); st.Drops != 0 {
		t.Fatalf("drops = %d, want 0", st.Drops)
	}
}

// TestReconfigureAcrossRingWrap forces the drain to straddle the ring's
// wrap-around point: a small ring is cycled past its capacity, left partly
// full across a reconfiguration, and every surviving completion must still
// decode under the layout that produced it.
func TestReconfigureAcrossRingWrap(t *testing.T) {
	oldRes := compileForPath(t, semantics.IPChecksum, semantics.RSS)
	newRes := compileForPath(t, semantics.RSS, semantics.IPChecksum)

	const cap = 8
	dev := MustNew(nic.MustLoad("e1000e"), Config{RingEntries: cap})
	if err := dev.ApplyConfig(oldRes.Config); err != nil {
		t.Fatal(err)
	}
	golden := softnic.Funcs()
	oldRT := codegen.NewRuntime(oldRes, golden)
	newRT := codegen.NewRuntime(newRes, golden)
	p := testPacket()
	wantCsum := uint64(golden[semantics.IPChecksum](p)) & 0xFFFF
	wantRSS := uint64(golden[semantics.RSS](p)) & 0xFFFFFFFF

	// Advance the producer/consumer cursors most of the way around so the
	// next fill wraps: produce 6, consume 6, then fill the ring.
	for i := 0; i < 6; i++ {
		if !dev.RxPacket(p) {
			t.Fatalf("warmup rx %d failed", i)
		}
		if !dev.CmptRing.Pop() {
			t.Fatalf("warmup pop %d failed", i)
		}
	}
	for i := 0; i < cap; i++ {
		if !dev.RxPacket(p) {
			t.Fatalf("fill rx %d failed (occupancy %d)", i, dev.CmptRing.Occupancy())
		}
	}
	// Ring full: the device drops like hardware would.
	if dev.RxPacket(p) {
		t.Fatal("rx on a full ring should fail")
	}
	if st := dev.Stats(); st.Drops != 1 || st.Ring.FullStalls != 1 {
		t.Fatalf("drops = %d fullstalls = %d, want 1/1", st.Drops, st.Ring.FullStalls)
	}

	// Drain half under the old layout, reconfigure, refill past the wrap
	// point, then drain everything.
	for i := 0; i < cap/2; i++ {
		if !dev.CmptRing.Consume(func(cmpt []byte) {
			got, err := oldRT.Read(semantics.IPChecksum, cmpt, p)
			if err != nil || got != wantCsum {
				t.Fatalf("pre-switch drain %d: ip_checksum = %#x err %v, want %#x", i, got, err, wantCsum)
			}
		}) {
			t.Fatalf("pre-switch consume %d failed", i)
		}
	}
	if err := dev.ApplyConfig(newRes.Config); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cap/2; i++ {
		if !dev.RxPacket(p) {
			t.Fatalf("post-switch rx %d failed", i)
		}
	}
	if occ := dev.CmptRing.Occupancy(); occ != cap {
		t.Fatalf("occupancy = %d, want %d", occ, cap)
	}
	drained := 0
	for dev.CmptRing.Consume(func(cmpt []byte) {
		if drained < cap/2 {
			got, err := oldRT.Read(semantics.IPChecksum, cmpt, p)
			if err != nil || got != wantCsum {
				t.Errorf("old completion %d: ip_checksum = %#x err %v, want %#x", drained, got, err, wantCsum)
			}
		} else {
			got, err := newRT.Read(semantics.RSS, cmpt, p)
			if err != nil || got != wantRSS {
				t.Errorf("new completion %d: rss = %#x err %v, want %#x", drained, got, err, wantRSS)
			}
		}
		drained++
	}) {
	}
	if drained != cap {
		t.Fatalf("drained %d, want %d", drained, cap)
	}
	st := dev.CmptRing.Stats()
	if st.Produced != 6+cap+cap/2 || st.Consumed != st.Produced {
		t.Fatalf("ring produced/consumed = %d/%d, want %d/%d", st.Produced, st.Consumed, 6+cap+cap/2, 6+cap+cap/2)
	}
}

// ReadReg returns a context register value (0 when never written).
func (d *Device) ReadReg(path string) uint64 { return d.ctx[path].Uint }
