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
// had when the read mix, cost model and schedule were types of their own;
// each checks the same behaviour where it lives now, on the Resolver.

// newTestResolver arms a resolver with no instrumented shims (the static cost
// model) over an intent of sems.
func newTestResolver(t *testing.T, nicName string, opts Options, sems ...semantics.Name) *Resolver {
	t.Helper()
	it, err := core.IntentFromSemantics("resolver_test", semantics.Default, sems...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewResolver(nic.MustLoad(nicName), core.CompileOptions{}, opts, nil, it)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// window closes the observation window and returns the mix by name, as the
// map-based window did.
func window(r *Resolver) map[semantics.Name]float64 {
	r.closeWindow()
	mix := make(map[semantics.Name]float64, len(r.mix))
	for i, f := range r.intent.Fields {
		if r.field(f.Semantic) == i {
			mix[f.Semantic] = r.mix[i]
		}
	}
	return mix
}

// noteRead counts one read the way a bound delivery view does, by name.
func noteRead(r *Resolver, s semantics.Name) {
	if i := r.field(s); i >= 0 {
		r.reads[i].Inc()
	}
}

// open is the number of packets in the open observation window.
func open(r *Resolver) uint64 {
	return r.delivered.Load() - r.lastDeliv
}

// TestMixTrackerWindowAndWeights: the window is reads per delivered packet
// over the packets since the baseline, and the intent weighs 1 in the solve.
func TestMixTrackerWindowAndWeights(t *testing.T) {
	r := newTestResolver(t, "mlx5", Options{}, semantics.RSS, semantics.VLAN)
	for i := 0; i < 100; i++ {
		r.NoteDelivered(1)
		noteRead(r, semantics.RSS)
		if i%2 == 0 {
			noteRead(r, semantics.VLAN)
		}
	}
	// Reads outside the intent must be ignored, not tracked.
	noteRead(r, semantics.KVKey)

	if n := open(r); n != 100 {
		t.Fatalf("window packets = %d, want 100", n)
	}
	mix := window(r)
	if mix[semantics.RSS] != 1.0 || mix[semantics.VLAN] != 0.5 {
		t.Errorf("mix = %v, want rss=1.0 vlan=0.5", mix)
	}
	if _, ok := mix[semantics.KVKey]; ok {
		t.Error("untracked semantic leaked into the window")
	}
	// The window resets: an immediate second close sees zero packets.
	if n := open(r); n != 0 {
		t.Errorf("second window saw %d packets, want 0", n)
	}
	if mix := window(r); mix[semantics.RSS] != 0 || mix[semantics.VLAN] != 0 {
		t.Errorf("empty window reads %v, want zeros", mix)
	}
	if len(r.solve) != 1 || r.solve[0].Weight != 1 {
		t.Errorf("solve = %+v, want the one intent at weight 1", r.solve)
	}
}

// TestMixTrackerBind: the view Bind hands the delivery path addresses the
// intent's counters by the runtime's reader index, and is nil where the
// runtime has a semantic the intent does not track.
func TestMixTrackerBind(t *testing.T) {
	e := newTestEngine(t, staticOptions()) // rss, ip_checksum, vlan, pkt_len
	rt := e.Queue().Lane(0).RT
	r := newTestResolver(t, "e1000e", Options{}, semantics.VLAN, semantics.PktLen, semantics.KVKey)
	view := r.Bind(rt)
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
	r.NoteDelivered(2)
	if mix := window(r); mix[semantics.VLAN] != 0.5 || mix[semantics.PktLen] != 0 {
		t.Errorf("mix through the bound view = %v, want vlan 0.5, pkt_len 0", mix)
	}
}

// TestWeightedMixCosts: without measured shims the live model is frequency × the
// static registry cost; semantics outside the window keep the static cost
// and infinite costs are never scaled.
func TestWeightedMixCosts(t *testing.T) {
	r := newTestResolver(t, "mlx5", Options{}, semantics.RSS, semantics.VLAN, semantics.Timestamp)
	base := semantics.RegistryCosts(semantics.Default)
	if math.IsInf(base(semantics.RSS), 1) || base(semantics.RSS) == 0 || !math.IsInf(base(semantics.Timestamp), 1) {
		t.Fatalf("premise: registry rss %v must be finite and timestamp %v infinite", base(semantics.RSS), base(semantics.Timestamp))
	}
	r.mix = []float64{0.5, 0, 0.001}
	costs := r.live
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
	if def.Interval != 2048 || def.MinWindow != 256 || def.MinShimSamples != 64 {
		t.Fatalf("defaults = %+v", def)
	}
	const active = 1
	resolve := func(candidate float64) *core.JointResult {
		t.Helper()
		r := newTestResolver(t, "e1000e", Options{
			Interval: 4096, MinWindow: 64,
			Costs: func(semantics.CostModel) semantics.CostModel {
				return func(s semantics.Name) float64 {
					if s == semantics.RSS {
						return 89
					}
					return candidate - 11
				}
			},
		}, semantics.RSS, semantics.IPChecksum, semantics.VLAN, semantics.PktLen)
		if r.Due() {
			t.Fatal("due before any delivery")
		}
		r.NoteDelivered(4095)
		if r.Due() {
			t.Fatal("due before the interval elapsed")
		}
		r.NoteDelivered(1)
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
		r.NoteDelivered(63)
		if again, err := r.Resolve(active); again != nil || err != nil || r.evaluations.Load() != 1 {
			t.Fatalf("a 63-packet window was evaluated: %v, %v", again, err)
		}
		return next
	}
	if next := resolve(91); next != nil {
		t.Errorf("9%% improvement cleared a 10%% hysteresis: %+v", next.Selected)
	}
	next := resolve(89)
	if next == nil {
		t.Fatal("11% improvement did not clear a 10% hysteresis")
	}
	if next.Selected.Path.ID == active || next.Selected.Total != 89 || len(next.PerTenant) != 1 {
		t.Errorf("candidate = path %d total %v for %d tenants, want the other path at 89 for 1",
			next.Selected.Path.ID, next.Selected.Total, len(next.PerTenant))
	}
	if resolve(100) != nil {
		t.Error("a candidate no better than the active path won")
	}
}

// TestResolverActivePathAbsent: an active path the new scoring does not list
// scores +Inf, so any satisfiable candidate replaces it (path IDs are
// deterministic, so this is a rule, not an occurrence).
func TestResolverActivePathAbsent(t *testing.T) {
	r := newTestResolver(t, "e1000e", Options{MinWindow: 1}, semantics.RSS)
	r.NoteDelivered(1)
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
	}, semantics.RSS, semantics.IPChecksum)
	r.NoteDelivered(1)
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
	r, err := NewResolver(nic.MustLoad("e1000e"), core.CompileOptions{}, Options{MinWindow: 1}, nil, it)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		r.NoteDelivered(1)
		noteRead(r, semantics.RSS)
	}
	if mix := window(r); mix[semantics.RSS] != 1 || mix[semantics.IPChecksum] != 0 || len(mix) != 2 {
		t.Errorf("mix = %v, want rss 1, ip_checksum 0", mix)
	}
	base := semantics.RegistryCosts(semantics.Default)
	if got := r.live(semantics.RSS); got != base(semantics.RSS) {
		t.Errorf("live rss cost = %v, want the registry's %v at one read per packet", got, base(semantics.RSS))
	}
	// The re-solve sees rss as hot: from the ip_checksum path (1) it moves to
	// the rss path, which a zero-priced rss never would.
	for i := 0; i < 100; i++ {
		r.NoteDelivered(1)
		noteRead(r, semantics.RSS)
	}
	next, err := r.Resolve(1)
	if err != nil || next == nil || !next.Selected.Path.Prov().Has(semantics.RSS) {
		t.Fatalf("re-solve under an rss-only mix: %v, %v", next, err)
	}
	if acc := next.PerTenant[0].Accessors; len(acc) != 3 || acc[0].Semantic != semantics.RSS || acc[1].Semantic != semantics.RSS {
		t.Errorf("accessors = %+v, want rss twice (one per field) then the ip_checksum shim", acc)
	}
}
