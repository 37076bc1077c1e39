package core

import (
	"errors"
	"math"

	"opendesc/internal/semantics"
)

// TenantIntent is one tenant's declared intent inside a joint compilation.
type TenantIntent struct {
	// Tenant names the tenant (label material; need not be unique, but the
	// serving plane requires it to be).
	Tenant string
	Intent *Intent
	// Weight is the tenant's relative traffic share in the joint objective;
	// zero or negative means 1 (equal shares).
	Weight float64
	// Costs optionally overrides the soft-cost model for this tenant — e.g.
	// a measured read-frequency-weighted model from the renegotiation
	// control plane. When nil the compile options' model refined by the
	// intent's per-field @cost overrides is used.
	Costs semantics.CostModel
}

// JointScored couples one completion path with the joint Eq. 1 objective
//
//	Σ_t weight_t · ( Σ_{s ∈ Req_t \ Prov(p)} w_t(s) )  +  α·Size(p)
//
// i.e. the traffic-weighted sum of every tenant's software-emulation cost on
// that path, plus the shared DMA-footprint term (the completion layout is
// one per device, so the footprint is paid once regardless of tenant count).
type JointScored struct {
	Path *Path
	// SoftCost is the weighted sum over tenants of each tenant's own soft
	// cost on this path — JointResult.PerTenant[i].Scored holds those — and
	// +Inf when some tenant's semantic has no software fallback.
	SoftCost float64
	// DMACost is α·Size(p).
	DMACost float64
	// Total is the joint objective.
	Total float64
}

// JointResult is the output of one joint compilation: a single device
// configuration chosen for all tenants, and one per-tenant Result (accessor
// /shim split) pinned to the jointly selected path.
type JointResult struct {
	NIC     string
	Control string
	// Tenants as solved: name, intent, weight (cost models became vectors).
	Tenants []TenantIntent
	Graph   *Graph
	Paths   []*Path
	Scored  []JointScored
	// Selected is the jointly optimal path p*.
	Selected JointScored
	// Config is the context-register constraint set that makes the device
	// take p* (programmed once; shared by every queue and tenant).
	Config []Constraint
	// PerTenant[i] is tenant i's compilation result pinned to p*: its Scored
	// list is the tenant's own single-intent scoring of all paths, Selected
	// is p* under that scoring, and Accessors is the tenant's hardware/shim
	// split on p*.
	PerTenant []*Result
}

// CompileJoint is the one-shot form of the repo's one Eq. 1 solver: bind each
// tenant's intent, evaluate its cost model once into a vector (its own
// override, else the compile options' model refined by the intent's per-field
// @cost overrides), Solve, Materialise. A single intent is the one-tenant
// case: see (*Analysis).Compile.
func (a *Analysis) CompileJoint(nicName string, tenants []TenantIntent, opts CompileOptions) (*JointResult, error) {
	sel := opts.Select.withDefaults()
	bound := make([]BoundTenant, len(tenants))
	for i, t := range tenants {
		b := a.Bind(t.Intent)
		bound[i] = BoundTenant{Tenant: t.Tenant, Bound: b, Weight: t.Weight}
		if t.Costs != nil {
			bound[i].Costs = b.eval(nil, t.Costs)
		} else {
			bound[i].Costs = b.Costs(nil, sel.Costs)
		}
	}
	scored := make([]JointScored, len(a.Paths))
	best, err := a.Solve(bound, sel.Alpha, scored)
	if err != nil {
		return nil, err
	}
	return a.Materialise(nicName, bound, scored, best), nil
}

// BoundTenant is one tenant of a solve: its intent bound to the analysis, its
// relative traffic share (zero or negative means 1) and its software cost
// vector, Costs[i] = w_t(Bound.Req[i]) — what Bound.Costs evaluates.
type BoundTenant struct {
	Tenant string
	Bound  *Bound
	Weight float64
	Costs  []float64
}

// soft is Σ w_t(s) over Req_t \ Prov(p) for path pi, added in name order.
func (t *BoundTenant) soft(pi int) float64 {
	soft := 0.0
	for _, i := range t.Bound.miss(pi) {
		soft += t.Costs[i]
	}
	return soft
}

// Solve is the Eq. 1 kernel:
//
//	min over p ∈ Paths(G) of  Σ_t weight_t · Σ_{s ∈ Req_t\Prov(p)} w_t(s)  +  α·Size(p)
//
// over the analysed paths, for tenants bound to a (alpha is
// SelectOptions.EffectiveAlpha). It fills scored, one element per path, and
// returns the winner's index. Production NICs expose a handful of completion
// paths, so the optimization is enumerating a small finite set and picking the
// best element (ties go to the shorter completion). If the software term is
// infinite on every path for some tenant the program is rejected with an
// UnsatisfiableError, as the paper specifies. A solve that succeeds allocates
// nothing: only an answer someone acts on is worth a Materialise.
func (a *Analysis) Solve(tenants []BoundTenant, alpha float64, scored []JointScored) (int, error) {
	if len(tenants) == 0 {
		return -1, errors.New("core: joint compilation needs at least one tenant intent")
	}
	if len(a.Paths) == 0 {
		return -1, ErrNoPaths
	}
	best := -1
	for pi, p := range a.Paths {
		js := JointScored{Path: p, DMACost: alpha * float64(p.SizeBytes())}
		feasible := true
		for ti := range tenants {
			soft := tenants[ti].soft(pi)
			w := tenants[ti].Weight
			if w <= 0 {
				w = 1
			}
			js.SoftCost += w * soft
			if math.IsInf(soft, 1) {
				feasible = false
			}
		}
		js.Total = js.SoftCost + js.DMACost
		scored[pi] = js
		if feasible && (best < 0 || js.Total < scored[best].Total ||
			(js.Total == scored[best].Total && p.SizeBytes() < scored[best].Path.SizeBytes())) {
			best = pi
		}
	}
	if best >= 0 {
		return best, nil
	}
	fatal := make(map[int][]semantics.Name)
	for pi, p := range a.Paths {
		for ti := range tenants {
			t := &tenants[ti]
			for _, i := range t.Bound.miss(pi) {
				if math.IsInf(t.Costs[i], 1) {
					fatal[p.ID] = append(fatal[p.ID], t.Bound.Req[i])
				}
			}
		}
	}
	return -1, &UnsatisfiableError{Control: a.Graph.Control, MissingEverywhere: fatal}
}

// Materialise builds the compilation a solve stands for: per tenant its own
// single-intent scoring of every path, pinned to the winner, and the host
// accessor table synthesized against it. It keeps scored and copies out of
// the cost vectors.
func (a *Analysis) Materialise(nicName string, tenants []BoundTenant, scored []JointScored, best int) *JointResult {
	g, paths := a.Graph, a.Paths
	jr := &JointResult{
		NIC: nicName, Control: g.Control, Graph: g, Paths: paths,
		Scored: scored, Selected: scored[best], Config: paths[best].Constraints,
		Tenants: make([]TenantIntent, len(tenants)), PerTenant: make([]*Result, len(tenants)),
	}
	for ti := range tenants {
		t := &tenants[ti]
		b := t.Bound
		jr.Tenants[ti] = TenantIntent{Tenant: t.Tenant, Intent: b.Intent, Weight: t.Weight}
		names := make([]semantics.Name, 0, len(b.rows)-len(paths)-1)
		rows := make([]Scored, len(paths))
		for pi, p := range paths {
			at := len(names)
			for _, i := range b.miss(pi) {
				names = append(names, b.Req[i])
			}
			soft, dma := t.soft(pi), scored[pi].DMACost
			rows[pi] = Scored{Path: p, SoftCost: soft, DMACost: dma, Total: soft + dma, Missing: names[at:len(names):len(names)]}
		}
		jr.PerTenant[ti] = &Result{
			NIC: nicName, Control: g.Control, Graph: g, Paths: paths, Intent: b.Intent,
			Scored: rows, Selected: rows[best], Config: jr.Config,
			Accessors: synthesizeAccessors(paths[best], b, t.Costs),
		}
	}
	return jr
}
