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

// hysteresis is the fractional Eq. 1 improvement a candidate must show over
// the active path before a switchover is attempted.
const hysteresis = 0.10

// Resolver is the Eq. 1 re-solve loop of an Engine: it watches what the
// application actually reads and, on request, re-solves the layout
// optimization against that live picture — core's Solve on the intent bound
// once and a cost vector it owns, so a tick that answers "stay" allocates
// nothing — materialising a compilation only when one beats the active path
// past the hysteresis.
//
// The delivery path touches a Resolver only through Bind's counters (one
// indexed atomic add per read) and NoteDelivered (once per poll); Due,
// Postpone and Resolve belong to the control plane and are serialized by the
// engine's quiesce lock.
type Resolver struct {
	nic   string
	a     *core.Analysis // the model's, under the engine's enumeration options
	alpha float64
	opts  Options
	base  semantics.CostModel // the static registry model
	// shims, when non-nil, are the instrumented SoftNIC shims whose measured
	// ns/call replaces the static w(s); without them the static model holds.
	shims *softnic.ShimStats

	// The intent, its live read mix and its delivery count, each with the
	// baseline of the open observation window. The counters never move, so the
	// delivery path reaches them through Bind's index-addressed view without a
	// lookup or a lock.
	intent    *core.Intent
	reads     []obs.Counter       // reads[i] counts intent.Fields[i].Semantic
	last      []uint64            // reads at the window baseline
	mix       []float64           // the last closed window: reads per delivered packet
	live      semantics.CostModel // liveCost, built once
	delivered obs.Counter
	lastDeliv uint64 // delivered at the window baseline

	// solve is the intent as the solver sees it (bound intent, cost vector),
	// scored its per-path output; both reused tick to tick.
	solve  []core.BoundTenant
	scored []core.JointScored

	// lastCheck is the delivery count at the last Resolve or Postpone: the
	// schedule's baseline.
	lastCheck uint64

	evaluations obs.Counter // re-solves that had a window to evaluate
	unsat       obs.Counter // of those, rejected as unsatisfiable
}

// NewResolver arms a resolver for an intent on one NIC model; the cost model
// of a re-solve is measured, not declared. copts are the options of the
// static compile the engine started from.
func NewResolver(m *nic.Model, copts core.CompileOptions, opts Options, shims *softnic.ShimStats, intent *core.Intent) (*Resolver, error) {
	a, err := m.Analysis(copts.Enumerate)
	if err != nil {
		return nil, err
	}
	n := len(intent.Fields)
	r := &Resolver{
		nic: m.Name, a: a, alpha: copts.Select.EffectiveAlpha(), opts: opts.withDefaults(),
		base: semantics.RegistryCosts(semantics.Default), shims: shims,
		intent: intent, reads: make([]obs.Counter, n), last: make([]uint64, n), mix: make([]float64, n),
		solve:  []core.BoundTenant{{Bound: a.Bind(intent), Weight: 1, Costs: make([]float64, 0, n)}},
		scored: make([]core.JointScored, len(a.Paths)),
	}
	r.live = r.liveCost
	return r, nil
}

// field is the index of the first intent field carrying s, -1 outside it.
func (r *Resolver) field(s semantics.Name) int {
	return slices.IndexFunc(r.intent.Fields, func(f core.IntentField) bool { return f.Semantic == s })
}

// Bind returns the read counters laid out beside rt's reader table: element
// i counts reads through rt.Readers[i], nil for a semantic outside the
// intent.
func (r *Resolver) Bind(rt *codegen.Runtime) []*obs.Counter {
	out := make([]*obs.Counter, len(rt.Readers))
	for i, rd := range rt.Readers {
		if f := r.field(rd.Semantic); f >= 0 {
			out[i] = &r.reads[f]
		}
	}
	return out
}

// NoteDelivered records n delivered packets.
func (r *Resolver) NoteDelivered(n int) { r.delivered.Add(uint64(n)) }

// Due reports whether Options.Interval packets have been delivered since the
// last Resolve or Postpone.
func (r *Resolver) Due() bool {
	return r.delivered.Load()-r.lastCheck >= uint64(r.opts.Interval)
}

// Postpone restarts the schedule without evaluating: the engine cannot act
// on an answer now (its queue is degraded), so it looks again in an Interval.
func (r *Resolver) Postpone() { r.lastCheck = r.delivered.Load() }

// closeWindow closes the observation window into mix: the per-packet read
// frequency of every intent field over the packets delivered since the
// baseline, which it resets.
func (r *Resolver) closeWindow() {
	deliv := r.delivered.Load()
	dn := deliv - r.lastDeliv
	r.lastDeliv = deliv
	for i := range r.reads {
		cur := r.reads[i].Load()
		r.mix[i] = 0
		if dn > 0 {
			r.mix[i] = float64(cur-r.last[i]) / float64(dn)
		}
		r.last[i] = cur
	}
}

// liveCost is the runtime cost model over the closed window: per-packet
// expected software cost of leaving s to a shim = (reads of s per delivered
// packet) × w(s), where w(s) is the measured mean ns/call when the shim has
// run often enough, the static registry cost otherwise. Infinite costs are
// never scaled: a semantic with no software fallback stays unsatisfiable in
// software no matter how rarely it is read. Semantics outside the intent
// keep the unscaled model.
func (r *Resolver) liveCost(s semantics.Name) float64 {
	w := r.base(s)
	if math.IsInf(w, 1) {
		return w
	}
	if r.shims != nil {
		if sc := r.shims.Cost(s); sc.Calls > 0 && sc.Calls >= r.opts.MinShimSamples {
			w = float64(sc.Nanos) / float64(sc.Calls)
		}
	}
	if i := r.field(s); i >= 0 {
		return r.mix[i] * w
	}
	return w
}

// Resolve is one tick of the loop. It restarts the schedule; if fewer than
// Options.MinWindow packets were delivered since the window baseline it
// keeps accumulating into the same window and answers nil. Otherwise it
// closes the window, evaluates the live cost model (wrapped by
// Options.Costs, the intent's @cost overrides outermost) into the intent's
// vector, solves Eq. 1 under it, and materialises the new compilation when
// its path is not active (the path ID the device is programmed with; IDs are
// deterministic across compiles) and beats active's total under the same
// model by more than the hysteresis. A nil result with a nil error means:
// stay. An error is an unsatisfiable re-solve — also stay.
func (r *Resolver) Resolve(active int) (*core.JointResult, error) {
	r.Postpone()
	if r.delivered.Load()-r.lastDeliv < uint64(r.opts.MinWindow) {
		return nil, nil
	}
	r.evaluations.Inc()

	r.closeWindow()
	costs := r.live
	if r.opts.Costs != nil {
		costs = r.opts.Costs(costs)
	}
	st := &r.solve[0]
	st.Costs = st.Bound.Costs(st.Costs, costs)
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
	if r.scored[best].Total >= activeTotal*(1-hysteresis) {
		return nil, nil
	}
	return r.a.Materialise(r.nic, r.solve, slices.Clone(r.scored), best), nil
}
