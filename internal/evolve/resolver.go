package evolve

import (
	"math"

	"slices"

	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/obs"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
)

// Resolver is the Eq. 1 re-solve loop: it watches what each tenant actually
// reads and how much traffic each tenant gets, and on request re-solves the
// joint layout optimization against that live picture — core's Solve on
// intents bound once and cost vectors it owns, so a tick that answers "stay"
// allocates nothing — materialising a compilation only when one beats the
// active path past the hysteresis. An Engine holds one with a single tenant,
// a tenant.Plane one with N; what differs between them is the switchover they
// run on the answer, not how the answer is reached.
//
// The delivery path touches a Resolver only through Bind's counters (one
// indexed atomic add per read) and NoteDelivered (once per poll); Due,
// Postpone, Resolve and Retarget belong to the control plane and are
// serialized by the holder's quiesce lock.
type Resolver struct {
	nic   string
	a     *core.Analysis // the model's, under the holder's enumeration options
	alpha float64
	opts  Options
	base  semantics.CostModel // the static registry model
	// shims, when non-nil, are the instrumented SoftNIC shims whose measured
	// ns/call replaces the static w(s); a holder linking plain
	// softnic.Funcs() has none and gets the static model.
	shims   *softnic.ShimStats
	tenants []*tenantRecord
	// solve[i] is tenants[i] as the solver sees it (bound intent, live weight,
	// cost vector), scored its per-path output; both reused tick to tick.
	solve  []core.BoundTenant
	scored []core.JointScored

	// lastCheck is the aggregate delivery count at the last Resolve or
	// Postpone: the schedule's baseline.
	lastCheck uint64

	evaluations obs.Counter // re-solves that had a window to evaluate
	unsat       obs.Counter // of those, rejected as unsatisfiable
}

// tenantRecord is one tenant under a Resolver: its intent, its live read mix
// and its delivery count, each with the baseline of the open observation
// window. The counters never move, so the delivery path reaches them through
// bind's index-addressed view without a lookup or a lock.
type tenantRecord struct {
	name   string
	intent *core.Intent

	reads []obs.Counter       // reads[i] counts intent.Fields[i].Semantic
	last  []uint64            // reads at the window baseline
	mix   []float64           // the last closed window: reads per delivered packet
	live  semantics.CostModel // Resolver.liveCost over mix, built once

	delivered obs.Counter
	lastDeliv uint64 // delivered at the window baseline
}

// NewResolver arms a resolver for the tenants' intents on one NIC model
// (Tenant and Intent are read; the weights and cost models of a re-solve are
// measured, not declared). copts are the options of the static compile the
// holder started from.
func NewResolver(m *nic.Model, copts core.CompileOptions, opts Options, shims *softnic.ShimStats, tenants []core.TenantIntent) (*Resolver, error) {
	a, err := m.Analysis(copts.Enumerate)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if opts.Alpha != 0 {
		copts.Select.Alpha = opts.Alpha
	}
	r := &Resolver{
		nic: m.Name, a: a, alpha: copts.Select.EffectiveAlpha(), opts: opts,
		base: semantics.RegistryCosts(semantics.Default), shims: shims,
		tenants: make([]*tenantRecord, len(tenants)), solve: make([]core.BoundTenant, len(tenants)),
		scored: make([]core.JointScored, len(a.Paths)),
	}
	for i, t := range tenants {
		r.bind(i, t.Tenant, t.Intent)
	}
	return r, nil
}

// bind installs a fresh record for a tenant's intent and binds the intent to
// the analysis.
func (r *Resolver) bind(tenant int, name string, intent *core.Intent) *tenantRecord {
	n := len(intent.Fields)
	t := &tenantRecord{name: name, intent: intent, reads: make([]obs.Counter, n), last: make([]uint64, n), mix: make([]float64, n)}
	t.live = func(s semantics.Name) float64 { return r.liveCost(t, s) }
	r.tenants[tenant] = t
	r.solve[tenant] = core.BoundTenant{Tenant: name, Bound: r.a.Bind(intent), Costs: make([]float64, 0, n)}
	return t
}

// field is the index of the first intent field carrying s, -1 outside it.
func (t *tenantRecord) field(s semantics.Name) int {
	return slices.IndexFunc(t.intent.Fields, func(f core.IntentField) bool { return f.Semantic == s })
}

// Bind returns a tenant's read counters laid out beside rt's reader table:
// element i counts reads through rt.Readers[i], nil for a semantic outside
// the tenant's current intent.
func (r *Resolver) Bind(tenant int, rt *codegen.Runtime) []*obs.Counter {
	t := r.tenants[tenant]
	out := make([]*obs.Counter, len(rt.Readers))
	for i, rd := range rt.Readers {
		if f := t.field(rd.Semantic); f >= 0 {
			out[i] = &t.reads[f]
		}
	}
	return out
}

// NoteDelivered records n packets delivered to a tenant.
func (r *Resolver) NoteDelivered(tenant, n int) {
	r.tenants[tenant].delivered.Add(uint64(n))
}

// Delivered returns a tenant's cumulative delivery count.
func (r *Resolver) Delivered(tenant int) uint64 {
	return r.tenants[tenant].delivered.Load()
}

// Retarget replaces a tenant's intent after the holder renegotiated it:
// fresh read counters, the delivery count kept, the window baseline reset.
// Views Bind handed out before the call count into the old intent.
func (r *Resolver) Retarget(tenant int, intent *core.Intent) {
	old := r.tenants[tenant]
	t := r.bind(tenant, old.name, intent)
	t.delivered.Add(old.delivered.Load())
	t.lastDeliv = t.delivered.Load()
}

func (r *Resolver) totalDelivered() uint64 {
	var n uint64
	for _, t := range r.tenants {
		n += t.delivered.Load()
	}
	return n
}

// Due reports whether Options.Interval packets have been delivered, all
// tenants together, since the last Resolve or Postpone.
func (r *Resolver) Due() bool {
	return r.totalDelivered()-r.lastCheck >= uint64(r.opts.Interval)
}

// Postpone restarts the schedule without evaluating: the holder cannot act
// on an answer now (its queue is degraded), so it looks again in an Interval.
func (r *Resolver) Postpone() { r.lastCheck = r.totalDelivered() }

// closeWindow closes a tenant's observation window into mix: the per-packet
// read frequency of every intent field over the packets delivered since the
// baseline, which it resets.
func (t *tenantRecord) closeWindow() {
	deliv := t.delivered.Load()
	dn := deliv - t.lastDeliv
	t.lastDeliv = deliv
	for i := range t.reads {
		cur := t.reads[i].Load()
		t.mix[i] = 0
		if dn > 0 {
			t.mix[i] = float64(cur-t.last[i]) / float64(dn)
		}
		t.last[i] = cur
	}
}

// weight is a tenant's share of the total cumulative deliveries — its
// traffic weight in the joint objective. One tenant weighs 1; with no
// deliveries yet all tenants weigh equally.
func (t *tenantRecord) weight(total uint64) float64 {
	if total == 0 {
		return 1
	}
	return float64(t.delivered.Load()) / float64(total)
}

// liveCost is a tenant's runtime cost model over its closed window:
// per-packet expected software cost of leaving s to a shim = (reads of s per
// delivered packet) × w(s), where w(s) is the measured mean ns/call when the
// shim has run often enough, the static registry cost otherwise. Infinite
// costs are never scaled: a semantic with no software fallback stays
// unsatisfiable in software no matter how rarely it is read. Semantics
// outside the intent keep the unscaled model.
func (r *Resolver) liveCost(t *tenantRecord, s semantics.Name) float64 {
	w := r.base(s)
	if math.IsInf(w, 1) {
		return w
	}
	if r.shims != nil {
		if sc := r.shims.Cost(s); sc.Calls > 0 && sc.Calls >= r.opts.MinShimSamples {
			w = float64(sc.Nanos) / float64(sc.Calls)
		}
	}
	if i := t.field(s); i >= 0 {
		return t.mix[i] * w
	}
	return w
}

// Resolve is one tick of the loop. It restarts the schedule; if fewer than
// Options.MinWindow packets were delivered since the window baseline it
// keeps accumulating into the same window and answers nil. Otherwise it
// closes every tenant's window, evaluates each live cost model (wrapped by
// Options.Costs, the intent's @cost overrides outermost) into the tenant's
// vector, solves the joint Eq. 1 objective under those and the live traffic
// weights, and materialises the new compilation when its path is not active
// (the path ID the device is programmed with; IDs are deterministic across
// compiles) and beats active's total under the same model by more than
// Options.Hysteresis. A nil result with a nil error means: stay. An error is
// an unsatisfiable re-solve — also stay.
func (r *Resolver) Resolve(active int) (*core.JointResult, error) {
	r.Postpone()
	var window uint64
	for _, t := range r.tenants {
		window += t.delivered.Load() - t.lastDeliv
	}
	if window < uint64(r.opts.MinWindow) {
		return nil, nil
	}
	r.evaluations.Inc()

	total := r.totalDelivered()
	for i, t := range r.tenants {
		t.closeWindow()
		costs := t.live
		if r.opts.Costs != nil {
			costs = r.opts.Costs(costs)
		}
		st := &r.solve[i]
		st.Weight = t.weight(total)
		st.Costs = st.Bound.Costs(st.Costs, costs)
	}
	best, err := r.a.Solve(r.solve, r.alpha, r.scored)
	if err != nil {
		r.unsat.Inc()
		return nil, err
	}
	if r.a.Paths[best].ID == active {
		return nil, nil
	}
	// The active path's total under the same live model, so the comparison
	// is apples-to-apples.
	activeTotal := math.Inf(1)
	for i, p := range r.a.Paths {
		if p.ID == active {
			activeTotal = r.scored[i].Total
			break
		}
	}
	if r.scored[best].Total >= activeTotal*(1-r.opts.Hysteresis) {
		return nil, nil
	}
	return r.a.Materialise(r.nic, r.solve, slices.Clone(r.scored), best), nil
}
