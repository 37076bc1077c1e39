package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"opendesc/internal/obs"
	"opendesc/internal/p4/sema"
	"opendesc/internal/semantics"
)

// Accessor is one host-side metadata accessor synthesized for a compiled
// intent: either a constant-time read at a fixed bit offset of the completion
// record (Hardware=true) or a SoftNIC shim (Hardware=false).
type Accessor struct {
	Semantic  semantics.Name
	FieldName string // layout field (hardware) or intent field (software)
	// OffsetBits/WidthBits locate the bit slice inside the completion record
	// for hardware accessors.
	OffsetBits int
	WidthBits  int
	Hardware   bool
	// SoftCost is the modelled per-packet cost of the software shim.
	SoftCost float64
}

// Result is the output of one OpenDesc compilation: the chosen completion
// path, its layout, and the synthesized accessor table.
type Result struct {
	NIC     string
	Control string
	Graph   *Graph
	Paths   []*Path
	Scored  []Scored
	// Selected is the optimal path p*.
	Selected Scored
	Intent   *Intent
	// Accessors has one entry per intent field, hardware accessors first in
	// layout order, then software shims in intent order.
	Accessors []Accessor
	// Config lists the context-register constraints that make the NIC take
	// the selected path (programmed over the control channel).
	Config []Constraint
}

// Missing lists the semantics that must be computed in software.
func (r *Result) Missing() []semantics.Name { return r.Selected.Missing }

// HardwareSet returns the semantics served directly from the descriptor.
func (r *Result) HardwareSet() semantics.Set {
	s := make(semantics.Set)
	for _, a := range r.Accessors {
		if a.Hardware {
			s.Add(a.Semantic)
		}
	}
	return s
}

// Accessor returns the accessor for a semantic, or nil.
func (r *Result) Accessor(s semantics.Name) *Accessor {
	for i := range r.Accessors {
		if r.Accessors[i].Semantic == s {
			return &r.Accessors[i]
		}
	}
	return nil
}

// CompletionBytes is the DMA footprint of the selected completion layout.
func (r *Result) CompletionBytes() int { return r.Selected.Path.SizeBytes() }

// FindDeparser names the completion deparser of a checked NIC description:
// its one control whose name contains "CmptDeparser".
func FindDeparser(info *sema.Info) (string, error) {
	var found string
	for _, c := range info.Prog.Controls() {
		if strings.Contains(c.Name, "CmptDeparser") {
			if found != "" {
				return "", fmt.Errorf("multiple CmptDeparser controls (%s, %s)", found, c.Name)
			}
			found = c.Name
		}
	}
	if found == "" {
		return "", fmt.Errorf("no CmptDeparser control found")
	}
	return found, nil
}

// BuildDeparserGraph binds a description's completion deparser through its
// @bind annotations and extracts its CFG.
func BuildDeparserGraph(info *sema.Info) (*Graph, error) {
	name, err := FindDeparser(info)
	if err != nil {
		return nil, err
	}
	inst, err := info.BindControl(info.Prog.Control(name))
	if err != nil {
		return nil, err
	}
	return BuildGraph(info, inst)
}

// DescParser names the parser a description's TX direction is read from.
const DescParser = "DescParser"

// TxFormats lowers a description's DescParser into a CFG and enumerates the
// TX descriptor formats it accepts; nil, nil when there is no DescParser.
func TxFormats(info *sema.Info) ([]*Path, error) {
	pr := info.Prog.Parser(DescParser)
	if pr == nil {
		return nil, nil
	}
	inst, err := info.BindParser(pr)
	if err != nil {
		return nil, err
	}
	g, err := BuildGraph(info, inst)
	if err != nil {
		return nil, err
	}
	return EnumeratePaths(g, EnumerateOptions{})
}

// Analysis is the description-side half of a compilation: the completion
// deparser's CFG and its enumerated paths. It depends on the description and
// the enumeration options only — never on an intent or a cost model — so one
// Analysis serves every compile against that description (the P4 line between
// configure time and run time). It is immutable once built and safe to share
// across goroutines and hosts: the results of successive compiles carry the
// same *Graph and *Path pointers, so compare paths by ID and never write
// through them.
type Analysis struct {
	Graph *Graph
	Paths []*Path
}

// Analyze extracts the deparser CFG of a description and enumerates its
// completion paths, recording the cfg and paths stages as spans in tr when
// it is non-nil. nic.Model is the one owner that keeps the result.
func Analyze(info *sema.Info, opts EnumerateOptions, tr *obs.Trace) (*Analysis, error) {
	sp := startSpan(tr, "cfg")
	g, err := BuildDeparserGraph(info)
	if err != nil {
		return nil, fmt.Errorf("deparser graph: %w", err)
	}
	if sp != nil {
		sp.Annotate("nodes", len(g.Nodes)).Annotate("emits", g.EmitCount()).End()
	}
	sp = startSpan(tr, "paths")
	paths, err := EnumeratePaths(g, opts)
	if err != nil {
		return nil, fmt.Errorf("path enumeration: %w", err)
	}
	if sp != nil {
		sp.Annotate("paths", len(paths)).End()
	}
	return &Analysis{Graph: g, Paths: paths}, nil
}

func startSpan(tr *obs.Trace, stage string) *obs.Span {
	if tr == nil {
		return nil
	}
	return tr.Start(stage)
}

// Providable is the union of Prov(p) over all completion paths: everything
// the NIC can deliver in hardware under some configuration.
func (a *Analysis) Providable() semantics.Set {
	s := make(semantics.Set)
	for _, p := range a.Paths {
		for n := range p.Prov() {
			s.Add(n)
		}
	}
	return s
}

// CompletionSizes returns the distinct completion-record byte sizes across
// the paths, ascending.
func (a *Analysis) CompletionSizes() []int {
	seen := make(map[int]bool)
	var sizes []int
	for _, p := range a.Paths {
		if n := p.SizeBytes(); !seen[n] {
			seen[n] = true
			sizes = append(sizes, n)
		}
	}
	sort.Ints(sizes)
	return sizes
}

// CompileOptions bundle the tunables of a compilation.
type CompileOptions struct {
	Select SelectOptions
	// Enumerate is consumed by the analysis half (nic.Model keeps one
	// Analysis per value); (*Analysis).Compile does not read it.
	Enumerate EnumerateOptions
	// Trace, when non-nil, receives one timed span per pipeline stage: cfg
	// and paths when the compile builds the analysis, then select. The CLI
	// adds the frontend and codegen spans around them.
	Trace *obs.Trace
}

// Compile is the intent-side half for a single intent: the one-tenant case
// of CompileJoint (weight 1, the intent's own cost model), returning that
// tenant's result. It reads the analysis and never writes it.
func (a *Analysis) Compile(nicName string, intent *Intent, opts CompileOptions) (*Result, error) {
	sp := startSpan(opts.Trace, "select")
	jr, err := a.CompileJoint(nicName, []TenantIntent{{Intent: intent}}, opts)
	if err != nil {
		return nil, fmt.Errorf("opendesc %s: %w", nicName, err)
	}
	res := jr.PerTenant[0]
	if sp != nil {
		sp.Annotate("candidates", len(res.Scored)).
			Annotate("selected", res.Selected.Path.ID).
			Annotate("bytes", res.Selected.Path.SizeBytes()).
			Annotate("fields", len(intent.Fields)).
			Annotate("missing", len(res.Selected.Missing)).End()
	}
	return res, nil
}

// synthesizeAccessors builds a tenant's accessor table for the selected path:
// constant-time bit-slice readers for every s ∈ Prov(p*) ∩ Req in layout
// order, then SoftNIC shims for the rest in intent order, priced by costs.
func synthesizeAccessors(p *Path, b *Bound, costs []float64) []Accessor {
	acc := make([]Accessor, 0, len(b.Intent.Fields))
	for _, f := range b.Intent.Fields {
		if p.prov.Has(f.Semantic) {
			lf := p.Field(f.Semantic)
			acc = append(acc, Accessor{Semantic: f.Semantic, FieldName: lf.Name, OffsetBits: lf.OffsetBits, WidthBits: lf.WidthBits, Hardware: true})
		}
	}
	slices.SortFunc(acc, func(x, y Accessor) int { return x.OffsetBits - y.OffsetBits })
	for _, f := range b.Intent.Fields {
		if !p.prov.Has(f.Semantic) {
			acc = append(acc, Accessor{Semantic: f.Semantic, FieldName: f.FieldName, WidthBits: f.WidthBits, SoftCost: costs[b.entry(f.Semantic)]})
		}
	}
	return acc
}

// Report renders a human-readable compilation report (the prototype's
// primary output: "the user is informed of missing s").
func (r *Result) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "OpenDesc compilation: %s / %s\n", r.NIC, r.Control)
	fmt.Fprintf(&sb, "  intent %s requests %s\n", r.Intent.Name, r.Intent.Req())
	fmt.Fprintf(&sb, "  completion paths: %d\n", len(r.Paths))
	for _, s := range r.Scored {
		marker := "   "
		if s.Path.ID == r.Selected.Path.ID {
			marker = " * "
		}
		fmt.Fprintf(&sb, "  %s%s  soft=%.1f dma=%.1f total=%.1f\n",
			marker, s.Path, s.SoftCost, s.DMACost, s.Total)
	}
	fmt.Fprintf(&sb, "  selected path %d: %d-byte completion\n", r.Selected.Path.ID, r.CompletionBytes())
	if len(r.Config) > 0 {
		fmt.Fprintf(&sb, "  context config:")
		for _, c := range r.Config {
			fmt.Fprintf(&sb, " %s;", c)
		}
		sb.WriteString("\n")
	}
	for _, a := range r.Accessors {
		if a.Hardware {
			fmt.Fprintf(&sb, "  accessor %-14s hardware  bits[%d:%d) field %s\n",
				a.Semantic, a.OffsetBits, a.OffsetBits+a.WidthBits, a.FieldName)
		} else {
			fmt.Fprintf(&sb, "  accessor %-14s SOFTWARE  shim (cost %.1f) — provide implementation for %q\n",
				a.Semantic, a.SoftCost, a.Semantic)
		}
	}
	return sb.String()
}
