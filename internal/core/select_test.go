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
// Its selection loop is kept unchanged as the independent oracle the joint
// solver is checked against (select_grid_test.go).
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
