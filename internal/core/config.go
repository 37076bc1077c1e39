package core

import "fmt"

// ConfigAssignment resolves a configuration's constraint set to the concrete
// context-register values a conforming device will hold after programming:
// equality constraints pin the register outright, disequalities pick the
// smallest value not excluded. This is the single source of truth shared by
// the simulated device (nicsim.ApplyConfig programs exactly these values)
// and the host-side completion validator (which checks that discriminant
// fields a completion record carries match them).
func ConfigAssignment(cons []Constraint) (map[string]uint64, error) {
	type excl struct {
		vals  []uint64
		fixed *uint64
	}
	byVar := map[string]*excl{}
	for _, c := range cons {
		e := byVar[c.Var]
		if e == nil {
			e = &excl{}
			byVar[c.Var] = e
		}
		// A bool register holds 1 for true.
		v := c.Val.Uint
		if c.Val.IsBool && c.Val.Bool {
			v = 1
		}
		if c.Equal {
			if e.fixed != nil && *e.fixed != v {
				return nil, fmt.Errorf("core: conflicting config for %s: %d vs %d", c.Var, *e.fixed, v)
			}
			e.fixed = &v
		} else {
			e.vals = append(e.vals, v)
		}
	}
	out := make(map[string]uint64, len(byVar))
	for v, e := range byVar {
		if e.fixed != nil {
			out[v] = *e.fixed
			continue
		}
		val := uint64(0)
	search:
		for {
			for _, x := range e.vals {
				if x == val {
					val++
					continue search
				}
			}
			break
		}
		out[v] = val
	}
	return out, nil
}
