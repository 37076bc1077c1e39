package core

import (
	"fmt"
	"slices"

	"opendesc/internal/p4/sema"
	"opendesc/internal/semantics"
)

// IntentField is one metadata item an application requests, as declared by a
// @semantic-annotated field of its intent header (paper Fig. 5).
type IntentField struct {
	FieldName string
	Semantic  semantics.Name
	WidthBits int
	// CostOverride, when >= 0, replaces the registry's software-emulation
	// cost for this semantic (set by @cost on the intent field).
	CostOverride float64
	// Required marks fields that must be available in hardware; requesting a
	// required semantic with no hardware path and no software fallback makes
	// the program unsatisfiable (set by @required).
	Required bool
}

// Intent is an application's declared metadata intent.
type Intent struct {
	Name   string
	Fields []IntentField
}

// Req returns the requested semantic set (Req ⊆ Σ).
func (it *Intent) Req() semantics.Set {
	s := make(semantics.Set, len(it.Fields))
	for _, f := range it.Fields {
		s.Add(f.Semantic)
	}
	return s
}

// ParseIntent extracts the intent from a checked program. headerName selects
// the intent header; if empty, the single header carrying at least one
// @semantic field is used (ambiguity is an error).
func ParseIntent(info *sema.Info, headerName string) (*Intent, error) {
	var ct *sema.CompositeType
	if headerName != "" {
		ct = info.Composite(headerName)
		if ct == nil {
			return nil, fmt.Errorf("intent header %q not found", headerName)
		}
	} else {
		for _, h := range info.Headers() {
			if len(h.Semantics()) == 0 {
				continue
			}
			if ct != nil {
				return nil, fmt.Errorf("multiple intent candidates (%s, %s); name one explicitly", ct.Name, h.Name)
			}
			ct = h
		}
		if ct == nil {
			return nil, fmt.Errorf("no header with @semantic fields found")
		}
	}
	it := &Intent{Name: ct.Name}
	seen := make(map[semantics.Name]bool)
	for _, f := range ct.Fields {
		if f.Semantic == "" {
			continue
		}
		sn := semantics.Name(f.Semantic)
		if seen[sn] {
			return nil, fmt.Errorf("intent %s: semantic %q requested twice", ct.Name, sn)
		}
		seen[sn] = true
		fld := IntentField{
			FieldName:    f.Name,
			Semantic:     sn,
			WidthBits:    f.Type.BitWidth(),
			CostOverride: -1,
		}
		if a := f.Annots.Get("cost"); a != nil {
			if n, ok := a.IntArg(0); ok {
				fld.CostOverride = float64(n)
			}
		}
		if f.Annots.Has("required") {
			fld.Required = true
		}
		it.Fields = append(it.Fields, fld)
	}
	if len(it.Fields) == 0 {
		return nil, fmt.Errorf("intent header %s has no @semantic fields", ct.Name)
	}
	return it, nil
}

// IntentFromNames is IntentFromSemantics over the default registry, for
// callers that hold the requested semantics as strings: a command line, a
// tenant or fleet spec.
func IntentFromNames(name string, sems ...string) (*Intent, error) {
	names := make([]semantics.Name, len(sems))
	for i, s := range sems {
		names[i] = semantics.Name(s)
	}
	return IntentFromSemantics(name, semantics.Default, names...)
}

// IntentFromSemantics builds an intent programmatically (used by benchmarks
// and examples that sweep requested sets without writing P4 for each).
func IntentFromSemantics(name string, reg *semantics.Registry, names ...semantics.Name) (*Intent, error) {
	it := &Intent{Name: name}
	for i, n := range names {
		d := reg.Lookup(n)
		if d == nil {
			return nil, fmt.Errorf("unknown semantic %q", n)
		}
		if slices.Contains(names[:i], n) {
			return nil, fmt.Errorf("intent %s: semantic %q requested twice", name, n)
		}
		it.Fields = append(it.Fields, IntentField{
			FieldName:    string(n),
			Semantic:     n,
			WidthBits:    d.DefaultBits,
			CostOverride: -1,
		})
	}
	return it, nil
}
