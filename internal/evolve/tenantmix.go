package evolve

import (
	"math"

	"opendesc/internal/codegen"
	"opendesc/internal/obs"
	"opendesc/internal/semantics"
)

// readMix counts application reads per semantic of one intent — the live
// feature mix. The counters never move, so the delivery path reaches them
// through bind's index-addressed view without a lookup or a lock; window
// closes an observation window from the control plane.
type readMix struct {
	sems  []semantics.Name
	reads []obs.Counter
	last  []uint64
}

func newReadMix(sems []semantics.Name) readMix {
	return readMix{sems: sems, reads: make([]obs.Counter, len(sems)), last: make([]uint64, len(sems))}
}

// counter returns the counter of a semantic, nil outside the intent.
func (m *readMix) counter(s semantics.Name) *obs.Counter {
	for i, name := range m.sems {
		if name == s {
			return &m.reads[i]
		}
	}
	return nil
}

// bind lays the counters out beside rt's reader table: element i counts
// reads through rt.Readers[i] (nil for a semantic this mix does not track).
func (m *readMix) bind(rt *codegen.Runtime) []*obs.Counter {
	out := make([]*obs.Counter, len(rt.Readers))
	for i, r := range rt.Readers {
		out[i] = m.counter(r.Semantic)
	}
	return out
}

// window returns the per-packet read frequency of every semantic over the
// dn packets delivered since the last call, and resets the baseline.
func (m *readMix) window(dn uint64) map[semantics.Name]float64 {
	mix := make(map[semantics.Name]float64, len(m.sems))
	for i, s := range m.sems {
		cur := m.reads[i].Load()
		mix[s] = 0
		if dn > 0 {
			mix[s] = float64(cur-m.last[i]) / float64(dn)
		}
		m.last[i] = cur
	}
	return mix
}

// MixTracker observes per-tenant live read mixes for the multi-tenant
// serving plane — the N-tenant generalization of the Engine's single-intent
// window. Bind hands the delivery path each tenant's counters; Window/Weights
// close observation windows from the control plane.
type MixTracker struct {
	tenants []*tenantMix
}

type tenantMix struct {
	readMix
	delivered obs.Counter
	lastDeliv uint64
}

// NewMixTracker builds a tracker for the given per-tenant intent semantics.
func NewMixTracker(intents [][]semantics.Name) *MixTracker {
	t := &MixTracker{tenants: make([]*tenantMix, len(intents))}
	for i, sems := range intents {
		t.tenants[i] = &tenantMix{readMix: newReadMix(sems)}
	}
	return t
}

// Retarget replaces tenant i's observed semantic set after a renegotiation
// (fresh counters, window baseline reset). Views Bind handed out before the
// call count into the old set.
func (t *MixTracker) Retarget(tenant int, sems []semantics.Name) {
	tm := &tenantMix{readMix: newReadMix(sems)}
	tm.delivered.Add(t.tenants[tenant].delivered.Load())
	tm.lastDeliv = tm.delivered.Load()
	t.tenants[tenant] = tm
}

// Bind returns tenant i's read counters index-addressed by rt's reader
// table; elements are nil for semantics outside the tenant's current intent.
func (t *MixTracker) Bind(tenant int, rt *codegen.Runtime) []*obs.Counter {
	return t.tenants[tenant].bind(rt)
}

// NoteDelivered records n delivered packets for a tenant.
func (t *MixTracker) NoteDelivered(tenant, n int) {
	t.tenants[tenant].delivered.Add(uint64(n))
}

// Delivered returns a tenant's cumulative delivery count.
func (t *MixTracker) Delivered(tenant int) uint64 {
	return t.tenants[tenant].delivered.Load()
}

// TotalDelivered sums deliveries across tenants.
func (t *MixTracker) TotalDelivered() uint64 {
	var n uint64
	for i := range t.tenants {
		n += t.tenants[i].delivered.Load()
	}
	return n
}

// Window closes tenant i's observation window: it returns the per-packet
// read frequency of every intent semantic since the last Window call and
// the number of packets observed, then resets the baseline.
func (t *MixTracker) Window(tenant int) (map[semantics.Name]float64, int) {
	tm := t.tenants[tenant]
	deliv := tm.delivered.Load()
	dn := deliv - tm.lastDeliv
	tm.lastDeliv = deliv
	return tm.window(dn), int(dn)
}

// Weights returns each tenant's share of cumulative deliveries — the
// traffic weights of the joint Eq. 1 objective. With no deliveries yet all
// tenants weigh equally.
func (t *MixTracker) Weights() []float64 {
	w := make([]float64, len(t.tenants))
	var total uint64
	for i := range t.tenants {
		w[i] = float64(t.tenants[i].delivered.Load())
		total += t.tenants[i].delivered.Load()
	}
	if total == 0 {
		for i := range w {
			w[i] = 1
		}
		return w
	}
	for i := range w {
		w[i] /= float64(total)
	}
	return w
}

// WeightedMixCosts turns an observed read-frequency window into a tenant's
// Eq. 1 cost model: the per-packet expected software cost of leaving s to a
// shim is freq(s) × w(s). Mirrors Engine.liveCosts for the joint case.
// Infinite costs are never scaled — a semantic with no software fallback
// stays unsatisfiable no matter how rarely it is read — and semantics
// outside the window keep the static model.
func WeightedMixCosts(base semantics.CostModel, mix map[semantics.Name]float64) semantics.CostModel {
	return func(s semantics.Name) float64 {
		w := base(s)
		if math.IsInf(w, 1) {
			return w
		}
		f, ok := mix[s]
		if !ok {
			return w
		}
		return f * w
	}
}

// JointPolicy schedules measured-mix re-solves for a multi-tenant plane and
// applies the switchover hysteresis — the plane-level analogue of the
// Engine's Interval/MinWindow/Hysteresis options.
type JointPolicy struct {
	// Interval is how many aggregate deliveries between re-solve
	// evaluations (default 4096).
	Interval int
	// MinWindow is the minimum aggregate deliveries an observation window
	// needs before its mix is trusted (default 256).
	MinWindow int
	// Hysteresis is the fractional joint-objective improvement a candidate
	// layout must show before a switchover is worth its disruption
	// (default 0.10; negative disables the margin).
	Hysteresis float64
}

// WithDefaults normalizes the policy.
func (p JointPolicy) WithDefaults() JointPolicy {
	if p.Interval <= 0 {
		p.Interval = 4096
	}
	if p.MinWindow <= 0 {
		p.MinWindow = 256
	}
	switch {
	case p.Hysteresis == 0:
		p.Hysteresis = 0.10
	case p.Hysteresis < 0:
		p.Hysteresis = 0
	}
	return p
}

// Due reports whether an evaluation window has accumulated: delivered is
// the aggregate delivery count, lastEval the count at the previous
// evaluation.
func (p JointPolicy) Due(delivered, lastEval uint64) bool {
	return delivered >= lastEval+uint64(p.Interval)
}

// Improves reports whether a candidate joint objective beats the active one
// by more than the hysteresis margin.
func (p JointPolicy) Improves(active, candidate float64) bool {
	return candidate < active*(1-p.Hysteresis)
}
