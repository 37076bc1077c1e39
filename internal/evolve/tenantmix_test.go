package evolve

import (
	"math"
	"testing"

	"opendesc/internal/semantics"
)

// noteRead counts one read the way a bound delivery view does, by name.
func noteRead(mt *MixTracker, tenant int, s semantics.Name) {
	if c := mt.tenants[tenant].counter(s); c != nil {
		c.Inc()
	}
}

func TestMixTrackerWindowAndWeights(t *testing.T) {
	mt := NewMixTracker([][]semantics.Name{
		{semantics.RSS, semantics.VLAN},
		{semantics.PktLen},
	})
	for i := 0; i < 100; i++ {
		mt.NoteDelivered(0, 1)
		noteRead(mt, 0, semantics.RSS)
		if i%2 == 0 {
			noteRead(mt, 0, semantics.VLAN)
		}
	}
	for i := 0; i < 300; i++ {
		mt.NoteDelivered(1, 1)
		noteRead(mt, 1, semantics.PktLen)
	}
	// Reads outside the tenant's intent must be ignored, not tracked.
	noteRead(mt, 0, semantics.KVKey)

	mix, n := mt.Window(0)
	if n != 100 {
		t.Fatalf("window packets = %d, want 100", n)
	}
	if mix[semantics.RSS] != 1.0 || mix[semantics.VLAN] != 0.5 {
		t.Errorf("mix = %v, want rss=1.0 vlan=0.5", mix)
	}
	if _, ok := mix[semantics.KVKey]; ok {
		t.Error("untracked semantic leaked into the window")
	}
	// The window resets: an immediate second close sees zero packets.
	if _, n = mt.Window(0); n != 0 {
		t.Errorf("second window saw %d packets, want 0", n)
	}

	w := mt.Weights()
	if math.Abs(w[0]-0.25) > 1e-9 || math.Abs(w[1]-0.75) > 1e-9 {
		t.Errorf("weights = %v, want [0.25 0.75]", w)
	}
	if mt.TotalDelivered() != 400 {
		t.Errorf("total delivered = %d, want 400", mt.TotalDelivered())
	}
}

func TestMixTrackerEqualWeightsBeforeTraffic(t *testing.T) {
	mt := NewMixTracker([][]semantics.Name{{semantics.RSS}, {semantics.VLAN}})
	w := mt.Weights()
	if w[0] != 1 || w[1] != 1 {
		t.Errorf("pre-traffic weights = %v, want all 1", w)
	}
}

func TestMixTrackerRetarget(t *testing.T) {
	mt := NewMixTracker([][]semantics.Name{{semantics.RSS}})
	mt.NoteDelivered(0, 10)
	noteRead(mt, 0, semantics.RSS)
	mt.Retarget(0, []semantics.Name{semantics.VLAN})
	if mt.Delivered(0) != 10 {
		t.Errorf("retarget lost the delivery count: %d", mt.Delivered(0))
	}
	noteRead(mt, 0, semantics.VLAN)
	mt.NoteDelivered(0, 2)
	mix, n := mt.Window(0)
	if n != 2 {
		t.Errorf("post-retarget window = %d packets, want 2", n)
	}
	if _, ok := mix[semantics.RSS]; ok {
		t.Error("old semantic survived the retarget")
	}
	if mix[semantics.VLAN] != 0.5 {
		t.Errorf("vlan freq = %v, want 0.5", mix[semantics.VLAN])
	}
}

// TestMixTrackerBind: the view Bind hands the delivery path addresses the
// tenant's counters by the runtime's reader index, and is nil where the
// runtime has a semantic the tenant's mix does not track.
func TestMixTrackerBind(t *testing.T) {
	e := newTestEngine(t, staticOptions()) // rss, ip_checksum, vlan, pkt_len
	rt := e.Queue().Lane(0).RT
	mt := NewMixTracker([][]semantics.Name{{semantics.VLAN, semantics.PktLen, semantics.KVKey}})
	view := mt.Bind(0, rt)
	if len(view) != len(rt.Readers) {
		t.Fatalf("view has %d elements for %d readers", len(view), len(rt.Readers))
	}
	for i, r := range rt.Readers {
		tracked := r.Semantic == semantics.VLAN || r.Semantic == semantics.PktLen
		if (view[i] != nil) != tracked {
			t.Errorf("view[%d] (%s) bound = %v, want %v", i, r.Semantic, view[i] != nil, tracked)
		}
		if view[i] != nil && r.Semantic == semantics.VLAN {
			view[i].Inc()
		}
	}
	mt.NoteDelivered(0, 2)
	if mix, _ := mt.Window(0); mix[semantics.VLAN] != 0.5 || mix[semantics.PktLen] != 0 {
		t.Errorf("mix through the bound view = %v, want vlan 0.5, pkt_len 0", mix)
	}
}

func TestWeightedMixCosts(t *testing.T) {
	base := func(s semantics.Name) float64 {
		switch s {
		case semantics.RSS:
			return 18
		case semantics.Timestamp:
			return math.Inf(1)
		default:
			return 4
		}
	}
	costs := WeightedMixCosts(base, map[semantics.Name]float64{
		semantics.RSS:  0.5,
		semantics.VLAN: 0,
	})
	if got := costs(semantics.RSS); got != 9 {
		t.Errorf("rss cost = %v, want 9 (0.5 × 18)", got)
	}
	if got := costs(semantics.VLAN); got != 0 {
		t.Errorf("unread vlan cost = %v, want 0", got)
	}
	// Outside the window: static model.
	if got := costs(semantics.PktLen); got != 4 {
		t.Errorf("out-of-window cost = %v, want base 4", got)
	}
	// Infinite costs are never scaled down.
	if !math.IsInf(costs(semantics.Timestamp), 1) {
		t.Error("infinite cost was scaled")
	}
}

func TestJointPolicy(t *testing.T) {
	p := JointPolicy{}.WithDefaults()
	if p.Interval != 4096 || p.MinWindow != 256 || p.Hysteresis != 0.10 {
		t.Fatalf("defaults = %+v", p)
	}
	if p.Due(4095, 0) {
		t.Error("due before the interval elapsed")
	}
	if !p.Due(4096, 0) || !p.Due(9000, 4096) {
		t.Error("not due after the interval elapsed")
	}
	if p.Improves(100, 91) {
		t.Error("9% improvement must not clear a 10% hysteresis")
	}
	if !p.Improves(100, 89) {
		t.Error("11% improvement must clear a 10% hysteresis")
	}
	if q := (JointPolicy{Hysteresis: -1}).WithDefaults(); !q.Improves(100, 99.9) {
		t.Error("negative hysteresis should disable the margin")
	}
}
