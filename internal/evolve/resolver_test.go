package evolve

import (
	"errors"
	"math"
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/semantics"
)

// The MixTracker, WeightedMixCosts and JointPolicy tests keep the names they
// had when the plane's read mix, cost model and schedule were types of their
// own; each checks the same behaviour where it lives now, on the Resolver.

// newTestResolver arms a resolver with no instrumented shims (the static cost
// model, as a serving plane has it) over one intent per semantic list.
func newTestResolver(t *testing.T, nicName string, opts Options, intents ...[]semantics.Name) *Resolver {
	t.Helper()
	tenants := make([]core.TenantIntent, len(intents))
	for i, sems := range intents {
		it, err := core.IntentFromSemantics("resolver_test", semantics.Default, sems...)
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = core.TenantIntent{Tenant: string(rune('a' + i)), Intent: it}
	}
	r, err := NewResolver(nic.MustLoad(nicName), core.CompileOptions{}, opts, nil, tenants)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// window closes a tenant's observation window and returns the mix by name,
// as the map-based window did.
func window(r *Resolver, tenant int) map[semantics.Name]float64 {
	t := r.tenants[tenant]
	t.closeWindow()
	mix := make(map[semantics.Name]float64, len(t.mix))
	for i, f := range t.intent.Fields {
		if t.field(f.Semantic) == i {
			mix[f.Semantic] = t.mix[i]
		}
	}
	return mix
}

// noteRead counts one read the way a bound delivery view does, by name.
func noteRead(r *Resolver, tenant int, s semantics.Name) {
	if t := r.tenants[tenant]; t.field(s) >= 0 {
		t.reads[t.field(s)].Inc()
	}
}

// open is the number of packets in a tenant's open observation window.
func open(r *Resolver, tenant int) uint64 {
	return r.Delivered(tenant) - r.tenants[tenant].lastDeliv
}

func TestMixTrackerWindowAndWeights(t *testing.T) {
	r := newTestResolver(t, "mlx5", Options{},
		[]semantics.Name{semantics.RSS, semantics.VLAN},
		[]semantics.Name{semantics.PktLen})
	for i := 0; i < 100; i++ {
		r.NoteDelivered(0, 1)
		noteRead(r, 0, semantics.RSS)
		if i%2 == 0 {
			noteRead(r, 0, semantics.VLAN)
		}
	}
	for i := 0; i < 300; i++ {
		r.NoteDelivered(1, 1)
		noteRead(r, 1, semantics.PktLen)
	}
	// Reads outside the tenant's intent must be ignored, not tracked.
	noteRead(r, 0, semantics.KVKey)

	if n := open(r, 0); n != 100 {
		t.Fatalf("window packets = %d, want 100", n)
	}
	mix := window(r, 0)
	if mix[semantics.RSS] != 1.0 || mix[semantics.VLAN] != 0.5 {
		t.Errorf("mix = %v, want rss=1.0 vlan=0.5", mix)
	}
	if _, ok := mix[semantics.KVKey]; ok {
		t.Error("untracked semantic leaked into the window")
	}
	// The window resets: an immediate second close sees zero packets.
	if n := open(r, 0); n != 0 {
		t.Errorf("second window saw %d packets, want 0", n)
	}
	if mix := window(r, 0); mix[semantics.RSS] != 0 || mix[semantics.VLAN] != 0 {
		t.Errorf("empty window reads %v, want zeros", mix)
	}

	total := r.totalDelivered()
	if total != 400 {
		t.Errorf("total delivered = %d, want 400", total)
	}
	if w0, w1 := r.tenants[0].weight(total), r.tenants[1].weight(total); math.Abs(w0-0.25) > 1e-9 || math.Abs(w1-0.75) > 1e-9 {
		t.Errorf("weights = %v %v, want 0.25 0.75", w0, w1)
	}
}

func TestMixTrackerEqualWeightsBeforeTraffic(t *testing.T) {
	r := newTestResolver(t, "mlx5", Options{}, []semantics.Name{semantics.RSS}, []semantics.Name{semantics.VLAN})
	if w0, w1 := r.tenants[0].weight(r.totalDelivered()), r.tenants[1].weight(r.totalDelivered()); w0 != 1 || w1 != 1 {
		t.Errorf("pre-traffic weights = %v %v, want all 1", w0, w1)
	}
	// One tenant weighs exactly 1 once it has traffic too.
	one := newTestResolver(t, "mlx5", Options{}, []semantics.Name{semantics.RSS})
	one.NoteDelivered(0, 7)
	if w := one.tenants[0].weight(one.totalDelivered()); w != 1 {
		t.Errorf("single-tenant weight = %v, want 1", w)
	}
}

func TestMixTrackerRetarget(t *testing.T) {
	r := newTestResolver(t, "mlx5", Options{}, []semantics.Name{semantics.RSS})
	r.NoteDelivered(0, 10)
	noteRead(r, 0, semantics.RSS)
	it, err := core.IntentFromSemantics("retargeted", semantics.Default, semantics.VLAN)
	if err != nil {
		t.Fatal(err)
	}
	r.Retarget(0, it)
	if r.Delivered(0) != 10 {
		t.Errorf("retarget lost the delivery count: %d", r.Delivered(0))
	}
	noteRead(r, 0, semantics.VLAN)
	r.NoteDelivered(0, 2)
	if n := open(r, 0); n != 2 {
		t.Errorf("post-retarget window = %d packets, want 2", n)
	}
	mix := window(r, 0)
	if _, ok := mix[semantics.RSS]; ok {
		t.Error("old semantic survived the retarget")
	}
	if mix[semantics.VLAN] != 0.5 {
		t.Errorf("vlan freq = %v, want 0.5", mix[semantics.VLAN])
	}
	if r.tenants[0].name != "a" || r.tenants[0].intent != it {
		t.Errorf("retargeted record is %q/%s, want a/retargeted", r.tenants[0].name, r.tenants[0].intent.Name)
	}
}

// TestMixTrackerBind: the view Bind hands the delivery path addresses the
// tenant's counters by the runtime's reader index, and is nil where the
// runtime has a semantic the tenant's mix does not track.
func TestMixTrackerBind(t *testing.T) {
	e := newTestEngine(t, staticOptions()) // rss, ip_checksum, vlan, pkt_len
	rt := e.Queue().Lane(0).RT
	r := newTestResolver(t, "e1000e", Options{}, []semantics.Name{semantics.VLAN, semantics.PktLen, semantics.KVKey})
	view := r.Bind(0, rt)
	if len(view) != len(rt.Readers) {
		t.Fatalf("view has %d elements for %d readers", len(view), len(rt.Readers))
	}
	for i, rd := range rt.Readers {
		tracked := rd.Semantic == semantics.VLAN || rd.Semantic == semantics.PktLen
		if (view[i] != nil) != tracked {
			t.Errorf("view[%d] (%s) bound = %v, want %v", i, rd.Semantic, view[i] != nil, tracked)
		}
		if view[i] != nil && rd.Semantic == semantics.VLAN {
			view[i].Inc()
		}
	}
	r.NoteDelivered(0, 2)
	if mix := window(r, 0); mix[semantics.VLAN] != 0.5 || mix[semantics.PktLen] != 0 {
		t.Errorf("mix through the bound view = %v, want vlan 0.5, pkt_len 0", mix)
	}
}

// TestWeightedMixCosts: without measured shims the live model is frequency × the
// static registry cost; semantics outside the window keep the static cost
// and infinite costs are never scaled.
func TestWeightedMixCosts(t *testing.T) {
	r := newTestResolver(t, "mlx5", Options{}, []semantics.Name{semantics.RSS, semantics.VLAN, semantics.Timestamp})
	base := semantics.RegistryCosts(semantics.Default)
	if math.IsInf(base(semantics.RSS), 1) || base(semantics.RSS) == 0 || !math.IsInf(base(semantics.Timestamp), 1) {
		t.Fatalf("premise: registry rss %v must be finite and timestamp %v infinite", base(semantics.RSS), base(semantics.Timestamp))
	}
	r.tenants[0].mix = []float64{0.5, 0, 0.001}
	costs := r.tenants[0].live
	if got := costs(semantics.RSS); got != 0.5*base(semantics.RSS) {
		t.Errorf("rss cost = %v, want 0.5 × %v", got, base(semantics.RSS))
	}
	if got := costs(semantics.VLAN); got != 0 {
		t.Errorf("unread vlan cost = %v, want 0", got)
	}
	if got := costs(semantics.PktLen); got != base(semantics.PktLen) {
		t.Errorf("out-of-window cost = %v, want base %v", got, base(semantics.PktLen))
	}
	if !math.IsInf(costs(semantics.Timestamp), 1) {
		t.Error("infinite cost was scaled")
	}
}

// TestJointPolicy drives Resolve on e1000e's two 11-byte
// paths with a pinned cost model: path 1 (active, the static optimum) strands
// rss, path 0 strands ip_checksum, so the candidate's total is w(ip_checksum)
// + 11 against w(rss) + 11 = 100.
func TestJointPolicy(t *testing.T) {
	def := Options{}.withDefaults()
	if def.Interval != 2048 || def.MinWindow != 256 || def.Hysteresis != 0.10 || def.MinShimSamples != 64 {
		t.Fatalf("defaults = %+v", def)
	}
	const active = 1
	resolve := func(hysteresis, candidate float64) *core.JointResult {
		t.Helper()
		r := newTestResolver(t, "e1000e", Options{
			Interval: 4096, MinWindow: 64, Hysteresis: hysteresis,
			Costs: func(semantics.CostModel) semantics.CostModel {
				return func(s semantics.Name) float64 {
					if s == semantics.RSS {
						return 89
					}
					return candidate - 11
				}
			},
		}, []semantics.Name{semantics.RSS, semantics.IPChecksum, semantics.VLAN, semantics.PktLen})
		if r.Due() {
			t.Fatal("due before any delivery")
		}
		r.NoteDelivered(0, 4095)
		if r.Due() {
			t.Fatal("due before the interval elapsed")
		}
		r.NoteDelivered(0, 1)
		if !r.Due() {
			t.Fatal("not due after the interval elapsed")
		}
		next, err := r.Resolve(active)
		if err != nil {
			t.Fatal(err)
		}
		if r.Due() || r.evaluations.Load() != 1 {
			t.Fatalf("after Resolve: due %v, %d evaluations", r.Due(), r.evaluations.Load())
		}
		// The window closed: a second tick has nothing to evaluate and says
		// stay, whatever the costs.
		r.NoteDelivered(0, 63)
		if again, err := r.Resolve(active); again != nil || err != nil || r.evaluations.Load() != 1 {
			t.Fatalf("a 63-packet window was evaluated: %v, %v", again, err)
		}
		return next
	}
	if next := resolve(0, 91); next != nil {
		t.Errorf("9%% improvement cleared a 10%% hysteresis: %+v", next.Selected)
	}
	next := resolve(0, 89)
	if next == nil {
		t.Fatal("11% improvement did not clear a 10% hysteresis")
	}
	if next.Selected.Path.ID == active || next.Selected.Total != 89 || len(next.PerTenant) != 1 {
		t.Errorf("candidate = path %d total %v for %d tenants, want the other path at 89 for 1",
			next.Selected.Path.ID, next.Selected.Total, len(next.PerTenant))
	}
	if resolve(-1, 99.9) == nil {
		t.Error("negative hysteresis should disable the margin")
	}
	if resolve(-1, 100) != nil {
		t.Error("a candidate no better than the active path won")
	}
}

// TestResolverActivePathAbsent: an active path the new scoring does not list
// scores +Inf, so any satisfiable candidate replaces it (path IDs are
// deterministic, so this is a rule, not an occurrence).
func TestResolverActivePathAbsent(t *testing.T) {
	r := newTestResolver(t, "e1000e", Options{MinWindow: 1}, []semantics.Name{semantics.RSS})
	r.NoteDelivered(0, 1)
	next, err := r.Resolve(99)
	if err != nil || next == nil {
		t.Fatalf("resolve against an unknown active path: %v, %v", next, err)
	}
}

// TestResolverUnsat: a re-solve no path can serve is counted, returned and
// leaves the answer at stay.
func TestResolverUnsat(t *testing.T) {
	r := newTestResolver(t, "e1000e", Options{
		MinWindow: 1,
		Costs: func(semantics.CostModel) semantics.CostModel {
			return func(semantics.Name) float64 { return math.Inf(1) }
		},
	}, []semantics.Name{semantics.RSS, semantics.IPChecksum})
	r.NoteDelivered(0, 1)
	next, err := r.Resolve(1)
	var ue *core.UnsatisfiableError
	if next != nil || err == nil || !errors.As(err, &ue) {
		t.Fatalf("resolve = %v, %v; want an UnsatisfiableError", next, err)
	}
	if r.evaluations.Load() != 1 || r.unsat.Load() != 1 {
		t.Errorf("evaluations %d, unsat %d, want 1/1", r.evaluations.Load(), r.unsat.Load())
	}
}

// TestResolverDuplicateFieldCountsOnce: IntentFromSemantics refuses a
// semantic requested twice, but an Intent is a struct anyone can fill. Both
// fields then share the first one's counter, window and bound-request entry:
// 100 deliveries that each read rss close a window pricing rss at its full
// cost, not at the never-incremented second counter's zero.
func TestResolverDuplicateFieldCountsOnce(t *testing.T) {
	if _, err := core.IntentFromSemantics("dup", semantics.Default, semantics.RSS, semantics.IPChecksum, semantics.RSS); err == nil {
		t.Fatal("IntentFromSemantics accepted rss twice")
	}
	it, err := core.IntentFromSemantics("dup", semantics.Default, semantics.RSS, semantics.IPChecksum)
	if err != nil {
		t.Fatal(err)
	}
	it.Fields = append(it.Fields, it.Fields[0])
	r, err := NewResolver(nic.MustLoad("e1000e"), core.CompileOptions{}, Options{MinWindow: 1}, nil, []core.TenantIntent{{Intent: it}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		r.NoteDelivered(0, 1)
		noteRead(r, 0, semantics.RSS)
	}
	if mix := window(r, 0); mix[semantics.RSS] != 1 || mix[semantics.IPChecksum] != 0 || len(mix) != 2 {
		t.Errorf("mix = %v, want rss 1, ip_checksum 0", mix)
	}
	base := semantics.RegistryCosts(semantics.Default)
	if got := r.tenants[0].live(semantics.RSS); got != base(semantics.RSS) {
		t.Errorf("live rss cost = %v, want the registry's %v at one read per packet", got, base(semantics.RSS))
	}
	// The re-solve sees rss as hot: from the ip_checksum path (1) it moves to
	// the rss path, which a zero-priced rss never would.
	for i := 0; i < 100; i++ {
		r.NoteDelivered(0, 1)
		noteRead(r, 0, semantics.RSS)
	}
	next, err := r.Resolve(1)
	if err != nil || next == nil || !next.Selected.Path.Prov().Has(semantics.RSS) {
		t.Fatalf("re-solve under an rss-only mix: %v, %v", next, err)
	}
	if acc := next.PerTenant[0].Accessors; len(acc) != 3 || acc[0].Semantic != semantics.RSS || acc[1].Semantic != semantics.RSS {
		t.Errorf("accessors = %+v, want rss twice (one per field) then the ip_checksum shim", acc)
	}
}
