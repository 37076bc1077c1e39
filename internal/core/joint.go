package core

import (
	"errors"
	"fmt"
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

// CompileJoint maps N tenant intents onto one NIC description at once, from
// cold: Analyze, then (*Analysis).CompileJoint.
func CompileJoint(nicName string, spec DeparserSpec, tenants []TenantIntent, opts CompileOptions) (*JointResult, error) {
	a, err := Analyze(spec, opts.Enumerate)
	if err != nil {
		return nil, fmt.Errorf("opendesc %s: %w", nicName, err)
	}
	return a.CompileJoint(nicName, tenants, opts)
}

// CompileJoint is the repo's one Eq. 1 solver:
//
//	min over p ∈ Paths(G) of  Σ_t weight_t · Σ_{s ∈ Req_t\Prov(p)} w_t(s)  +  α·Size(p)
//
// over the analysed paths, then per-tenant host accessor synthesis against
// the single winning path. Production NICs expose a handful of completion
// paths, so the optimization is enumerating a small finite set and picking
// the best element (ties go to the shorter completion). If the software term
// is infinite on every path for some tenant the program is rejected with an
// UnsatisfiableError, as the paper specifies. A single intent is the
// one-tenant case: see (*Analysis).Compile.
func (a *Analysis) CompileJoint(nicName string, tenants []TenantIntent, opts CompileOptions) (*JointResult, error) {
	if len(tenants) == 0 {
		return nil, errors.New("core: joint compilation needs at least one tenant intent")
	}
	g, paths := a.Graph, a.Paths
	if len(paths) == 0 {
		return nil, ErrNoPaths
	}

	// Score every path once per tenant under that tenant's own cost model;
	// each tenant's Result starts as that scoring and is pinned to the winner
	// below.
	sel := opts.Select.withDefaults()
	results := make([]*Result, len(tenants))
	for i := range tenants {
		t := &tenants[i]
		o := sel
		o.Costs = t.costs(sel.Costs)
		results[i] = &Result{
			NIC:     nicName,
			Control: g.Control,
			Graph:   g,
			Paths:   paths,
			Scored:  scorePaths(paths, t.Intent.Req(), o),
			Intent:  t.Intent,
		}
	}

	scored := make([]JointScored, len(paths))
	best := -1
	var fatal map[int][]semantics.Name
	for pi, p := range paths {
		js := JointScored{Path: p, DMACost: sel.Alpha * float64(p.SizeBytes())}
		feasible := true
		for ti := range tenants {
			s := &results[ti].Scored[pi]
			w := tenants[ti].Weight
			if w <= 0 {
				w = 1
			}
			js.SoftCost += w * s.SoftCost
			if math.IsInf(s.SoftCost, 1) {
				feasible = false
				if fatal == nil {
					fatal = make(map[int][]semantics.Name)
				}
				costs := tenants[ti].costs(sel.Costs)
				for _, m := range s.Missing {
					if math.IsInf(costs(m), 1) {
						fatal[p.ID] = append(fatal[p.ID], m)
					}
				}
			}
		}
		js.Total = js.SoftCost + js.DMACost
		scored[pi] = js
		if feasible && (best < 0 || js.Total < scored[best].Total ||
			(js.Total == scored[best].Total && p.SizeBytes() < scored[best].Path.SizeBytes())) {
			best = pi
		}
	}
	if best < 0 {
		return nil, &UnsatisfiableError{Control: g.Control, MissingEverywhere: fatal}
	}

	config := paths[best].Constraints
	for i, r := range results {
		r.Selected = r.Scored[best]
		r.Config = config
		r.Accessors = synthesizeAccessors(r.Selected, r.Intent, tenants[i].costs(sel.Costs))
	}
	return &JointResult{
		NIC:       nicName,
		Control:   g.Control,
		Tenants:   tenants,
		Graph:     g,
		Paths:     paths,
		Scored:    scored,
		Selected:  scored[best],
		Config:    config,
		PerTenant: results,
	}, nil
}

// costs is the tenant's software cost model: its own override, else the
// compile options' model refined by the intent's per-field @cost overrides.
// Derived at each use: kept in a per-tenant slice the closures would escape.
func (t *TenantIntent) costs(base semantics.CostModel) semantics.CostModel {
	if t.Costs != nil {
		return t.Costs
	}
	return t.Intent.CostModel(base)
}
