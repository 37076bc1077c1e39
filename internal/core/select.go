package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"opendesc/internal/semantics"
)

// SelectOptions tune the path-selection optimization (Eq. 1 of the paper).
type SelectOptions struct {
	// Alpha weights the DMA completion footprint term (cost units per byte).
	// Larger values favour shorter completions. Zero selects DefaultAlpha;
	// pass a negative value to ignore the footprint term entirely.
	Alpha float64
	// Costs is the software-emulation cost model w; defaults to the
	// canonical registry costs.
	Costs semantics.CostModel
}

// DefaultAlpha calibrates one byte of completion DMA footprint to one cost
// unit (≈1 ns/packet on the reference machine), matching the observation
// that descriptor DMA bandwidth costs roughly a cycle per byte at line rate.
const DefaultAlpha = 1.0

func (o SelectOptions) withDefaults() SelectOptions {
	switch {
	case o.Alpha == 0:
		o.Alpha = DefaultAlpha
	case o.Alpha < 0:
		o.Alpha = 0
	}
	if o.Costs == nil {
		o.Costs = semantics.RegistryCosts(semantics.Default)
	}
	return o
}

// UnsatisfiableError reports that every completion path leaves at least one
// requested semantic without hardware or software implementation.
type UnsatisfiableError struct {
	Control string
	// MissingEverywhere lists, per path ID, the fatal missing semantics.
	MissingEverywhere map[int][]semantics.Name
}

func (e *UnsatisfiableError) Error() string {
	var all []string
	seen := map[semantics.Name]bool{}
	for _, ms := range e.MissingEverywhere {
		for _, m := range ms {
			if !seen[m] {
				seen[m] = true
				all = append(all, string(m))
			}
		}
	}
	sort.Strings(all)
	return fmt.Sprintf("core: intent unsatisfiable on %s: no path or software fallback provides {%s}",
		e.Control, strings.Join(all, ", "))
}

// ErrNoPaths is returned when the deparser has no completion path at all.
var ErrNoPaths = errors.New("core: deparser has no completion paths")

// Scored couples a path with its objective value and breakdown.
type Scored struct {
	Path *Path
	// SoftCost is Σ w(s) over Req \ Prov(p) (may be +Inf).
	SoftCost float64
	// DMACost is Alpha · SizeBytes(p).
	DMACost float64
	// Total is the Eq. 1 objective.
	Total float64
	// Missing is Req \ Prov(p), sorted.
	Missing []semantics.Name
}

// scorePaths evaluates the Eq. 1 objective for every path under the request.
// opts are already normalized: withDefaults maps a negative Alpha to 0, and a
// second pass would map that 0 back to DefaultAlpha.
func scorePaths(paths []*Path, req semantics.Set, opts SelectOptions) []Scored {
	out := make([]Scored, 0, len(paths))
	for _, p := range paths {
		missing := req.Minus(p.Prov()).Sorted()
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
