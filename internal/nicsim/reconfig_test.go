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

// threeRegs is a description with three registers of different widths that
// no decision reads: what ApplyConfig writes is all there is to see.
const threeRegs = `
struct tr_ctx_t { bit<2> a; bit<1> b; bit<3> c; bit<2> rsvd; }
struct tr_meta_t { @semantic("pkt_len") bit<16> len; }
@bind("CTX_T", "tr_ctx_t")
@bind("META_T", "tr_meta_t")
control CmptDeparser<CTX_T, META_T>(cmpt_out cmpt_out, in CTX_T ctx, in META_T pipe_meta) {
    apply { cmpt_out.emit(pipe_meta.len); }
}
`

func TestApplyConfigDisequalityPicksSmallestExcluded(t *testing.T) {
	m, err := nic.Parse("threeregs.p4", threeRegs)
	if err != nil {
		t.Fatal(err)
	}
	dev := MustNew(m, Config{})
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
	// Every value of the two-bit register excluded: the assignment's 4 does
	// not fit, the error names the register, and the burst writes nothing.
	err = dev.ApplyConfig([]core.Constraint{
		{Var: "ctx.c", Val: u64(1), Equal: true},
		{Var: "ctx.a", Val: u64(0), Equal: false},
		{Var: "ctx.a", Val: u64(1), Equal: false},
		{Var: "ctx.a", Val: u64(2), Equal: false},
		{Var: "ctx.a", Val: u64(3), Equal: false},
	})
	if err == nil || !strings.Contains(err.Error(), "ctx.a") {
		t.Errorf("ApplyConfig of a = 4 into bit<2>: %v, want an error naming ctx.a", err)
	}
	if a, c := dev.ReadReg("ctx.a"), dev.ReadReg("ctx.c"); a != 3 || c != 7 {
		t.Errorf("after a refused burst: ctx.a = %d, ctx.c = %d, want 3, 7", a, c)
	}
	// A direct write keeps the register's width of the value.
	dev.WriteReg("ctx.c", 0x1F)
	if got := dev.ReadReg("ctx.c"); got != 7 {
		t.Errorf("WriteReg(ctx.c, 0x1f) reads back %#x, want 0x7", got)
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

// register is the leaf index of the context register path names, -1 when
// it names none.
func (d *Device) register(path string) int {
	if i := d.graph.Leaf(path); i >= 0 && d.graph.Leaves[i].Context {
		return i
	}
	return -1
}

// ReadReg returns a context register's value (0 when never written, or when
// path names no register).
func (d *Device) ReadReg(path string) uint64 {
	if i := d.register(path); i >= 0 {
		return d.vals[d.slots[i]]
	}
	return 0
}

// TestActivePathNeedsWrittenRegisters: ActivePath names the path RxPacket
// serializes, so on a device nobody programmed it errs exactly when a valid
// frame is refused (an unwritten register satisfies no constraint, == 0 and
// != v included), and once a path's constraints are applied it returns that
// path.
func TestActivePathNeedsWrittenRegisters(t *testing.T) {
	for _, m := range nic.All() {
		t.Run(m.Name, func(t *testing.T) {
			fresh := MustNew(m, Config{})
			ap, err := fresh.ActivePath()
			if accepted := fresh.RxPacket(testPacket()); accepted != (err == nil) {
				t.Errorf("fresh device: ActivePath = %v, %v but RxPacket accepted = %v", ap, err, accepted)
			}
			for _, p := range fresh.paths {
				dev := MustNew(m, Config{})
				if err := dev.ApplyConfig(p.Constraints); err != nil {
					t.Fatalf("path %d: %v", p.ID, err)
				}
				got, err := dev.ActivePath()
				if err != nil || got != p {
					t.Errorf("after ApplyConfig(path %d): ActivePath = %v, %v", p.ID, got, err)
				}
				if !dev.RxPacket(testPacket()) {
					t.Errorf("path %d: RxPacket refused a valid frame", p.ID)
				}
			}
		})
	}
}
