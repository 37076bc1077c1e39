package core

import (
	"math"

	"opendesc/internal/semantics"
)

// SelectPath is the single-intent Eq. 1 solver (*Analysis).Compile ran on
// until the one-tenant case of CompileJoint replaced it:
//
//	min over p ∈ Paths(G) of  Σ_{s ∈ Req\Prov(p)} w(s)  +  α·Size(p)
//
// Its selection loop and its scorer (scorePaths, the set arithmetic the solver
// ran on until Solve replaced it with sums over precomputed rows) are kept
// unchanged as the independent oracle the solver is checked against
// (select_grid_test.go, solve_oracle_test.go).
func SelectPath(control string, paths []*Path, req semantics.Set, opts SelectOptions) (Scored, []Scored, error) {
	if len(paths) == 0 {
		return Scored{}, nil, ErrNoPaths
	}
	o := opts.withDefaults()
	scored := scorePaths(paths, req, o)
	best := -1
	allInf := true
	fatal := make(map[int][]semantics.Name)
	for i, s := range scored {
		if !math.IsInf(s.SoftCost, 1) {
			allInf = false
			if best < 0 || s.Total < scored[best].Total ||
				(s.Total == scored[best].Total && s.Path.SizeBytes() < scored[best].Path.SizeBytes()) {
				best = i
			}
		} else {
			var ms []semantics.Name
			for _, m := range s.Missing {
				if math.IsInf(o.Costs(m), 1) {
					ms = append(ms, m)
				}
			}
			fatal[s.Path.ID] = ms
		}
	}
	if allInf {
		return Scored{}, scored, &UnsatisfiableError{Control: control, MissingEverywhere: fatal}
	}
	return scored[best], scored, nil
}

// scorePaths evaluates the Eq. 1 objective for every path under the request.
// opts are already normalized (withDefaults).
func scorePaths(paths []*Path, req semantics.Set, opts SelectOptions) []Scored {
	out := make([]Scored, 0, len(paths))
	for _, p := range paths {
		var missing []semantics.Name
		for _, n := range req.Sorted() {
			if !p.Prov().Has(n) {
				missing = append(missing, n)
			}
		}
		soft := 0.0
		for _, m := range missing {
			soft += opts.Costs(m)
		}
		dma := opts.Alpha * float64(p.SizeBytes())
		out = append(out, Scored{
			Path:     p,
			SoftCost: soft,
			DMACost:  dma,
			Total:    soft + dma,
			Missing:  missing,
		})
	}
	return out
}

// JointOracle is the joint solver as (*Analysis).CompileJoint ran it until
// Solve took its place: every path scored once per tenant by scorePaths under
// the tenant's own cost model (its override, else base under the intent's
// @cost overrides, rebuilt as a map per use), the weighted sums, the
// feasibility test, the tie-break and the per-path fatal sets. It returns the
// winner's index, the joint scoring and each tenant's own.
func JointOracle(control string, paths []*Path, tenants []TenantIntent, opts SelectOptions) (int, []JointScored, [][]Scored, error) {
	sel := opts.withDefaults()
	costs := func(t *TenantIntent) semantics.CostModel {
		if t.Costs != nil {
			return t.Costs
		}
		over := map[semantics.Name]float64{}
		for _, f := range t.Intent.Fields {
			if f.CostOverride >= 0 {
				over[f.Semantic] = f.CostOverride
			}
		}
		return sel.Costs.WithOverrides(over)
	}
	per := make([][]Scored, len(tenants))
	for i := range tenants {
		o := sel
		o.Costs = costs(&tenants[i])
		per[i] = scorePaths(paths, tenants[i].Intent.Req(), o)
	}
	scored := make([]JointScored, len(paths))
	best := -1
	var fatal map[int][]semantics.Name
	for pi, p := range paths {
		js := JointScored{Path: p, DMACost: sel.Alpha * float64(p.SizeBytes())}
		feasible := true
		for ti := range tenants {
			s := &per[ti][pi]
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
				c := costs(&tenants[ti])
				for _, m := range s.Missing {
					if math.IsInf(c(m), 1) {
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
		return -1, scored, per, &UnsatisfiableError{Control: control, MissingEverywhere: fatal}
	}
	return best, scored, per, nil
}
