package core

import (
	"errors"
	"fmt"
	"slices"
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

// EffectiveAlpha is the α a solve runs on: DefaultAlpha for zero, none for a
// negative value.
func (o SelectOptions) EffectiveAlpha() float64 { return o.withDefaults().Alpha }

// withDefaults normalizes once: a second pass would map the 0 a negative
// Alpha became back to DefaultAlpha.
func (o SelectOptions) withDefaults() SelectOptions {
	switch {
	case o.Alpha == 0:
		o.Alpha = DefaultAlpha
	case o.Alpha < 0:
		o.Alpha = 0
	}
	if o.Costs == nil {
		o.Costs = registryCosts
	}
	return o
}

var registryCosts = semantics.RegistryCosts(semantics.Default) // reads the live registry per call

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

// Bound is an intent bound to an analysis: what a solve needs of the pair
// that no cost model or weight can change, derived once. Immutable and safe
// to share, like the analysis.
type Bound struct {
	Intent *Intent
	// Req is the request sorted by name, each semantic once.
	Req []semantics.Name

	// rows starts with len(Paths)+1 bounds: rows[rows[pi]:rows[pi+1]] lists,
	// ascending, the entries of Req path pi does not provide — Req \ Prov(p)
	// in name order, so a sum over a row adds as a sorted set difference would.
	// An index list has no width limit (the registry is extensible).
	rows []int
}

// Bind derives an intent's bound request against the analysed paths.
func (a *Analysis) Bind(intent *Intent) *Bound {
	b := &Bound{Intent: intent, Req: make([]semantics.Name, len(intent.Fields))}
	for i, f := range intent.Fields {
		b.Req[i] = f.Semantic
	}
	slices.Sort(b.Req)
	b.Req = slices.Compact(b.Req)
	n := len(a.Paths) + 1
	b.rows = make([]int, n, n+len(a.Paths)*len(b.Req))
	for pi, p := range a.Paths {
		b.rows[pi] = len(b.rows)
		for i, s := range b.Req {
			if !p.prov.Has(s) {
				b.rows = append(b.rows, i)
			}
		}
	}
	b.rows[len(a.Paths)] = len(b.rows)
	return b
}

func (b *Bound) miss(pi int) []int { return b.rows[b.rows[pi]:b.rows[pi+1]] }

// entry is the index of a requested semantic in Req.
func (b *Bound) entry(s semantics.Name) int {
	i, _ := slices.BinarySearch(b.Req, s)
	return i
}

// eval appends w(Req[i]) for every entry to dst[:0].
func (b *Bound) eval(dst []float64, w semantics.CostModel) []float64 {
	dst = slices.Grow(dst[:0], len(b.Req))
	for _, s := range b.Req {
		dst = append(dst, w(s))
	}
	return dst
}

// Costs evaluates a cost model into the vector a solve runs on: base(Req[i])
// appended to dst[:0], the intent's per-field @cost overrides on top.
func (b *Bound) Costs(dst []float64, base semantics.CostModel) []float64 {
	dst = b.eval(dst, base)
	for _, f := range b.Intent.Fields {
		if f.CostOverride >= 0 {
			dst[b.entry(f.Semantic)] = f.CostOverride
		}
	}
	return dst
}
