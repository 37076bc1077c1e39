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
	// PerTenantSoft[i] is tenant i's unweighted soft cost Σ w_i(s) on this
	// path (may be +Inf when a semantic has no software fallback).
	PerTenantSoft []float64
	// SoftCost is the weighted sum over tenants.
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

// TenantResult returns the pinned per-tenant result by tenant name, or nil.
func (jr *JointResult) TenantResult(name string) *Result {
	for i := range jr.Tenants {
		if jr.Tenants[i].Tenant == name {
			return jr.PerTenant[i]
		}
	}
	return nil
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

// CompileJoint is the intent-side half of a joint compilation: the joint
// Eq. 1 optimization above over the analysed paths, and per-tenant host
// accessor synthesis against the single winning path. The compilation is
// unsatisfiable only when every path leaves some tenant with an infinitely
// expensive missing semantic.
func (a *Analysis) CompileJoint(nicName string, tenants []TenantIntent, opts CompileOptions) (*JointResult, error) {
	if len(tenants) == 0 {
		return nil, errors.New("core: joint compilation needs at least one tenant intent")
	}
	g, paths := a.Graph, a.Paths
	if len(paths) == 0 {
		return nil, ErrNoPaths
	}

	// Score every path once per tenant under that tenant's own cost model.
	base := opts.Select.withDefaults()
	perOpts := make([]SelectOptions, len(tenants))
	perScored := make([][]Scored, len(tenants))
	for i, t := range tenants {
		o := base
		if t.Costs != nil {
			o.Costs = t.Costs
		} else {
			o.Costs = t.Intent.CostModel(o.Costs)
		}
		perOpts[i] = o
		perScored[i] = ScorePaths(paths, t.Intent.Req(), o)
	}

	scored := make([]JointScored, len(paths))
	best := -1
	fatal := make(map[int][]semantics.Name)
	for pi, p := range paths {
		js := JointScored{
			Path:          p,
			PerTenantSoft: make([]float64, len(tenants)),
			DMACost:       base.Alpha * float64(p.SizeBytes()),
		}
		feasible := true
		for ti := range tenants {
			s := perScored[ti][pi]
			js.PerTenantSoft[ti] = s.SoftCost
			w := tenants[ti].Weight
			if w <= 0 {
				w = 1
			}
			js.SoftCost += w * s.SoftCost
			if math.IsInf(s.SoftCost, 1) {
				feasible = false
				for _, m := range s.Missing {
					if math.IsInf(perOpts[ti].Costs(m), 1) {
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
	sel := scored[best]

	per := make([]*Result, len(tenants))
	for i, t := range tenants {
		ps := perScored[i][best]
		r := &Result{
			NIC:      nicName,
			Control:  g.Control,
			Graph:    g,
			Paths:    paths,
			Scored:   perScored[i],
			Selected: ps,
			Intent:   t.Intent,
			Config:   sel.Path.Constraints,
		}
		r.Accessors = synthesizeAccessors(ps, t.Intent, perOpts[i].Costs)
		per[i] = r
	}
	return &JointResult{
		NIC:       nicName,
		Control:   g.Control,
		Tenants:   tenants,
		Graph:     g,
		Paths:     paths,
		Scored:    scored,
		Selected:  sel,
		Config:    sel.Path.Constraints,
		PerTenant: per,
	}, nil
}
