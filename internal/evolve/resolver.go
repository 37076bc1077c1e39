package evolve

import (
	"math"

	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/obs"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
)

// Resolver is the Eq. 1 re-solve loop: it watches what each tenant actually
// reads and how much traffic each tenant gets, and on request re-solves the
// joint layout optimization (core.CompileJoint) against that live picture,
// answering with a new compilation only when it beats the active path past
// the hysteresis. An Engine holds one with a single tenant, a tenant.Plane
// one with N; what differs between them is the switchover they run on the
// answer, not how the answer is reached.
//
// The delivery path touches a Resolver only through Bind's counters (one
// indexed atomic add per read) and NoteDelivered (once per poll); Due,
// Postpone, Resolve and Retarget belong to the control plane and are
// serialized by the holder's quiesce lock.
type Resolver struct {
	model *nic.Model
	copts core.CompileOptions
	opts  Options
	// shims, when non-nil, are the instrumented SoftNIC shims whose measured
	// ns/call replaces the static w(s); a holder linking plain
	// softnic.Funcs() has none and gets the static model.
	shims   *softnic.ShimStats
	tenants []*tenantRecord

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

	reads []obs.Counter // reads[i] counts intent.Fields[i].Semantic
	last  []uint64      // reads at the window baseline

	delivered obs.Counter
	lastDeliv uint64 // delivered at the window baseline
}

func newTenantRecord(name string, intent *core.Intent) *tenantRecord {
	n := len(intent.Fields)
	return &tenantRecord{name: name, intent: intent, reads: make([]obs.Counter, n), last: make([]uint64, n)}
}

// NewResolver arms a resolver for the tenants' intents on one NIC model
// (Tenant and Intent are read; the weights and cost models of a re-solve are
// measured, not declared). copts are the options of the static compile the
// holder started from.
func NewResolver(m *nic.Model, copts core.CompileOptions, opts Options, shims *softnic.ShimStats, tenants []core.TenantIntent) *Resolver {
	r := &Resolver{model: m, copts: copts, opts: opts.withDefaults(), shims: shims}
	for _, t := range tenants {
		r.tenants = append(r.tenants, newTenantRecord(t.Tenant, t.Intent))
	}
	return r
}

// counter returns the counter of a semantic, nil outside the intent.
func (t *tenantRecord) counter(s semantics.Name) *obs.Counter {
	for i, f := range t.intent.Fields {
		if f.Semantic == s {
			return &t.reads[i]
		}
	}
	return nil
}

// Bind returns a tenant's read counters laid out beside rt's reader table:
// element i counts reads through rt.Readers[i], nil for a semantic outside
// the tenant's current intent.
func (r *Resolver) Bind(tenant int, rt *codegen.Runtime) []*obs.Counter {
	t := r.tenants[tenant]
	out := make([]*obs.Counter, len(rt.Readers))
	for i, rd := range rt.Readers {
		out[i] = t.counter(rd.Semantic)
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
	t := newTenantRecord(old.name, intent)
	t.delivered.Add(old.delivered.Load())
	t.lastDeliv = t.delivered.Load()
	r.tenants[tenant] = t
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

// window closes a tenant's observation window: the per-packet read frequency
// of every intent semantic over the packets delivered since the baseline,
// which it resets.
func (t *tenantRecord) window() map[semantics.Name]float64 {
	deliv := t.delivered.Load()
	dn := deliv - t.lastDeliv
	t.lastDeliv = deliv
	mix := make(map[semantics.Name]float64, len(t.reads))
	for i, f := range t.intent.Fields {
		cur := t.reads[i].Load()
		mix[f.Semantic] = 0
		if dn > 0 {
			mix[f.Semantic] = float64(cur-t.last[i]) / float64(dn)
		}
		t.last[i] = cur
	}
	return mix
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

// mixCosts builds a tenant's runtime cost model from its read mix:
// per-packet expected software cost of leaving s to a shim = (reads of s per
// delivered packet) × w(s), where w(s) is the measured mean ns/call when the
// shim has run often enough, the static registry cost otherwise. Infinite
// costs are never scaled: a semantic with no software fallback stays
// unsatisfiable in software no matter how rarely it is read. Semantics
// outside the mix keep the unscaled model.
func (r *Resolver) mixCosts(mix map[semantics.Name]float64, shimCosts map[semantics.Name]softnic.ShimCost) semantics.CostModel {
	base := semantics.RegistryCosts(semantics.Default)
	return func(s semantics.Name) float64 {
		w := base(s)
		if math.IsInf(w, 1) {
			return w
		}
		if sc, ok := shimCosts[s]; ok && sc.Calls >= r.opts.MinShimSamples {
			w = float64(sc.Nanos) / float64(sc.Calls)
		}
		f, ok := mix[s]
		if !ok {
			return w
		}
		return f * w
	}
}

// Resolve is one tick of the loop. It restarts the schedule; if fewer than
// Options.MinWindow packets were delivered since the window baseline it
// keeps accumulating into the same window and answers nil. Otherwise it
// closes every tenant's window, re-solves the joint Eq. 1 objective under
// the live cost models and traffic weights, and answers with the new
// compilation when its path is not active (the path ID the device is
// programmed with; IDs are deterministic across compiles) and beats active's
// total under the same model by more than Options.Hysteresis. A nil result
// with a nil error means: stay. An error is an unsatisfiable re-solve (or a
// broken description) — also stay.
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

	var shimCosts map[semantics.Name]softnic.ShimCost
	if r.shims != nil {
		shimCosts = r.shims.Snapshot()
	}
	total := r.totalDelivered()
	tenants := make([]core.TenantIntent, len(r.tenants))
	for i, t := range r.tenants {
		costs := r.mixCosts(t.window(), shimCosts)
		if r.opts.Costs != nil {
			costs = r.opts.Costs(costs)
		}
		tenants[i] = core.TenantIntent{
			Tenant: t.name,
			Intent: t.intent,
			Weight: t.weight(total),
			Costs:  t.intent.CostModel(costs),
		}
	}
	copts := r.copts
	if r.opts.Alpha != 0 {
		copts.Select.Alpha = r.opts.Alpha
	}
	next, err := r.model.CompileJoint(tenants, copts)
	if err != nil {
		r.unsat.Inc()
		return nil, err
	}
	if next.Selected.Path.ID == active {
		return nil, nil
	}
	// Score the active path under the same live model so the comparison is
	// apples-to-apples.
	activeTotal := math.Inf(1)
	for _, s := range next.Scored {
		if s.Path.ID == active {
			activeTotal = s.Total
			break
		}
	}
	if next.Selected.Total >= activeTotal*(1-r.opts.Hysteresis) {
		return nil, nil
	}
	return next, nil
}
