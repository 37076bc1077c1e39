package core

import (
	"errors"
	"fmt"
	"strings"

	"opendesc/internal/p4/ast"
	"opendesc/internal/p4/sema"
	"opendesc/internal/p4/token"
	"opendesc/internal/semantics"
)

// Constraint records one context condition that must hold for a completion
// path to be taken, e.g. ctx.use_rss == 1 or ctx.fmt != 2.
type Constraint struct {
	Var   string // dotted path of the context variable
	Val   sema.Value
	Equal bool // true: Var == Val must hold; false: Var != Val
}

func (c Constraint) String() string {
	op := "=="
	if !c.Equal {
		op = "!="
	}
	return fmt.Sprintf("%s %s %s", c.Var, op, c.Val)
}

// LayoutField is one field of a completion layout with its resolved position.
type LayoutField struct {
	Name       string
	Semantic   semantics.Name
	OffsetBits int
	WidthBits  int
}

// Path is a completion path: a root-to-leaf walk of the deparser CFG, forming
// one concrete metadata layout the NIC may emit under a given context.
type Path struct {
	ID          int
	Constraints []Constraint
	Emits       []*Emit
	Fields      []LayoutField

	prov     semantics.Set
	sizeBits int
}

// Prov returns Prov(p) = ∪ sem(v) over the path's vertices.
func (p *Path) Prov() semantics.Set { return p.prov }

// SizeBits returns Size(p) in bits.
func (p *Path) SizeBits() int { return p.sizeBits }

// SizeBytes returns Size(p) rounded up to whole bytes (the DMA completion
// footprint of the paper's Eq. 1).
func (p *Path) SizeBytes() int { return (p.SizeBits() + 7) / 8 }

// Field returns the layout field carrying the given semantic, or nil.
func (p *Path) Field(s semantics.Name) *LayoutField {
	for i := range p.Fields {
		if p.Fields[i].Semantic == s {
			return &p.Fields[i]
		}
	}
	return nil
}

// String renders a compact one-line description.
func (p *Path) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "path %d [%dB]", p.ID, p.SizeBytes())
	if len(p.Constraints) > 0 {
		sb.WriteString(" when ")
		for i, c := range p.Constraints {
			if i > 0 {
				sb.WriteString(" && ")
			}
			sb.WriteString(c.String())
		}
	}
	sb.WriteString(" provides ")
	sb.WriteString(p.prov.String())
	return sb.String()
}

// EnumerateOptions tune path enumeration.
type EnumerateOptions struct {
	// DisablePruning turns off symbolic-consistency pruning of contradictory
	// branch combinations (ablation switch).
	DisablePruning bool
	// MaxPaths bounds enumeration; 0 means DefaultMaxPaths. Exceeding the
	// bound is an error: production NICs expose only a handful of completion
	// paths, so an explosion signals a malformed description.
	MaxPaths int
}

// DefaultMaxPaths bounds path enumeration.
const DefaultMaxPaths = 4096

// ErrTooManyPaths is returned when enumeration exceeds the configured bound.
var ErrTooManyPaths = errors.New("core: completion path explosion")

// pathEnv tracks the symbolic knowledge accumulated along a walk: exact
// values implied by taken equality branches and disequalities implied by
// refused ones.
type pathEnv struct {
	eq  map[string]sema.Value
	neq map[string][]sema.Value
}

func newPathEnv() *pathEnv {
	return &pathEnv{eq: make(map[string]sema.Value), neq: make(map[string][]sema.Value)}
}

func (e *pathEnv) clone() *pathEnv {
	c := newPathEnv()
	for k, v := range e.eq {
		c.eq[k] = v
	}
	for k, vs := range e.neq {
		c.neq[k] = append([]sema.Value(nil), vs...)
	}
	return c
}

// Lookup implements sema.Env over the equality knowledge.
func (e *pathEnv) Lookup(path string) (sema.Value, bool) {
	v, ok := e.eq[path]
	return v, ok
}

func (e *pathEnv) knownNotEqual(v string, val sema.Value) bool {
	for _, x := range e.neq[v] {
		if x.Equal(val) {
			return true
		}
	}
	return false
}

// EnumeratePaths walks the CFG from entry to exit, collecting every feasible
// completion path together with the context constraints that select it.
func EnumeratePaths(g *Graph, opts EnumerateOptions) ([]*Path, error) {
	maxPaths := opts.MaxPaths
	if maxPaths <= 0 {
		maxPaths = DefaultMaxPaths
	}
	var paths []*Path
	var walk func(n *Node, env *pathEnv, cons []Constraint, emits []*Emit) error
	walk = func(n *Node, env *pathEnv, cons []Constraint, emits []*Emit) error {
		switch n.Kind {
		case NodeExit:
			if len(paths) >= maxPaths {
				return fmt.Errorf("%w: more than %d paths in %s", ErrTooManyPaths, maxPaths, g.Control)
			}
			p := &Path{
				ID:          len(paths),
				Constraints: append([]Constraint(nil), cons...),
				Emits:       append([]*Emit(nil), emits...),
			}
			finalizePath(p)
			paths = append(paths, p)
			return nil
		case NodeEmit:
			emits = append(emits, n.Emit)
		}
		for _, e := range n.Succs {
			childEnv := env
			childCons := cons
			if e.Cond != nil || len(e.CaseVals) > 0 || e.IsDefault {
				feasible, newEnv, newCons := applyEdge(g, e, n, env, cons, opts.DisablePruning)
				if !feasible {
					continue
				}
				childEnv, childCons = newEnv, newCons
			}
			if err := walk(e.To, childEnv, childCons, emits); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(g.Entry, newPathEnv(), nil, nil); err != nil {
		return nil, err
	}
	return paths, nil
}

// applyEdge checks feasibility of taking edge e out of node n under env and
// returns the extended knowledge.
func applyEdge(g *Graph, e *Edge, n *Node, env *pathEnv, cons []Constraint, noPrune bool) (bool, *pathEnv, []Constraint) {
	info := g.info

	// Switch edges: tag must equal one of CaseVals (or none, for default).
	if n.Kind == NodeSwitch {
		tagVar, tagKnown := symbolicVar(info, n.Tag, env)
		if tagKnown != nil {
			// Tag folds to a constant: edge feasibility is decided outright.
			match := false
			for _, v := range e.CaseVals {
				if v.Equal(*tagKnown) {
					match = true
					break
				}
			}
			if e.IsDefault {
				match = !siblingMatches(n, *tagKnown)
			}
			if !match && !noPrune {
				return false, env, cons
			}
			return true, env, cons
		}
		if tagVar == "" {
			// Opaque tag: assume feasible, no knowledge gained.
			return true, env, cons
		}
		ne := env.clone()
		nc := cons
		if e.IsDefault {
			// Default edge: tag differs from every sibling case value.
			if !noPrune {
				if v, ok := env.eq[tagVar]; ok && siblingMatches(n, v) {
					return false, env, cons
				}
			}
			for _, sib := range n.Succs {
				for _, v := range sib.CaseVals {
					if !ne.knownNotEqual(tagVar, v) {
						ne.neq[tagVar] = append(ne.neq[tagVar], v)
						nc = append(nc[:len(nc):len(nc)], Constraint{Var: tagVar, Val: v, Equal: false})
					}
				}
			}
			return true, ne, nc
		}
		// Case edge: with a single value we learn tag == v; with several we
		// only know membership, which we record as the first value for
		// configuration purposes while keeping feasibility conservative.
		if len(e.CaseVals) == 0 {
			return true, env, cons
		}
		v := e.CaseVals[0]
		if !noPrune {
			if known, ok := env.eq[tagVar]; ok {
				any := false
				for _, cv := range e.CaseVals {
					if cv.Equal(known) {
						any = true
						break
					}
				}
				if !any {
					return false, env, cons
				}
				return true, env, cons
			}
			if len(e.CaseVals) == 1 && env.knownNotEqual(tagVar, v) {
				return false, env, cons
			}
		}
		if len(e.CaseVals) == 1 {
			ne.eq[tagVar] = v
			nc = append(nc[:len(nc):len(nc)], Constraint{Var: tagVar, Val: v, Equal: true})
			return true, ne, nc
		}
		return true, env, cons
	}

	// If-branch edges.
	cond := e.Cond
	v, err := info.Eval(cond, env)
	if err == nil {
		// Fully determined under current knowledge.
		holds := v.Truthy() != e.Negate
		if !holds && !noPrune {
			return false, env, cons
		}
		return true, env, cons
	}
	// Try to extract an atomic fact var==const / var!=const / bare bool.
	varName, val, isEq, ok := atomicCond(info, cond, env)
	if !ok {
		// Opaque condition: feasible both ways, record nothing.
		return true, env, cons
	}
	// Effective relation on this edge.
	eq := isEq != e.Negate
	if !noPrune {
		if known, has := env.eq[varName]; has {
			holds := known.Equal(val) == eq
			if !holds {
				return false, env, cons
			}
			return true, env, cons
		}
		if eq && env.knownNotEqual(varName, val) {
			return false, env, cons
		}
	}
	ne := env.clone()
	nc := cons
	if eq {
		ne.eq[varName] = val
	} else {
		ne.neq[varName] = append(ne.neq[varName], val)
	}
	nc = append(nc[:len(nc):len(nc)], Constraint{Var: varName, Val: val, Equal: eq})
	return true, ne, nc
}

// siblingMatches reports whether any non-default sibling edge of a switch
// node matches the value.
func siblingMatches(n *Node, v sema.Value) bool {
	for _, sib := range n.Succs {
		for _, cv := range sib.CaseVals {
			if cv.Equal(v) {
				return true
			}
		}
	}
	return false
}

// symbolicVar inspects a tag expression: if it folds to a constant the value
// is returned; if it is a bare context variable its dotted path is returned.
func symbolicVar(info *sema.Info, e ast.Expr, env sema.Env) (name string, known *sema.Value) {
	if v, err := info.Eval(e, env); err == nil {
		return "", &v
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name, nil
	case *ast.MemberExpr:
		return x.Path(), nil
	}
	return "", nil
}

// atomicCond decomposes a branch condition into (var, value, isEquality).
// Supported shapes: v == K, v != K, K == v, v (bare boolean), !v.
func atomicCond(info *sema.Info, cond ast.Expr, env sema.Env) (string, sema.Value, bool, bool) {
	cond = ast.Unparen(cond)
	switch c := cond.(type) {
	case *ast.BinaryExpr:
		if c.Op != token.EQ && c.Op != token.NEQ {
			return "", sema.Value{}, false, false
		}
		lName, lKnown := symbolicVar(info, c.X, env)
		rName, rKnown := symbolicVar(info, c.Y, env)
		var name string
		var val sema.Value
		switch {
		case lName != "" && rKnown != nil:
			name, val = lName, *rKnown
		case rName != "" && lKnown != nil:
			name, val = rName, *lKnown
		default:
			return "", sema.Value{}, false, false
		}
		return name, val, c.Op == token.EQ, true
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			if name, _ := symbolicVar(info, c.X, env); name != "" {
				return name, sema.BoolValue(true), false, true // !v ⇒ v != true
			}
		}
	case *ast.Ident, *ast.MemberExpr:
		if name, _ := symbolicVar(info, cond, env); name != "" {
			return name, sema.BoolValue(true), true, true // v ⇒ v == true
		}
	}
	return "", sema.Value{}, false, false
}

// finalizePath computes the path's layout fields, provided set and size.
func finalizePath(p *Path) {
	p.prov = make(semantics.Set)
	off := 0
	for _, e := range p.Emits {
		for _, f := range e.Fields {
			p.Fields = append(p.Fields, LayoutField{
				Name:       f.Name,
				Semantic:   f.Semantic,
				OffsetBits: off,
				WidthBits:  f.WidthBits,
			})
			if f.Semantic != "" {
				p.prov.Add(f.Semantic)
			}
			off += f.WidthBits
		}
	}
	p.sizeBits = off
}
