// Package core implements the OpenDesc compiler: it extracts the control-flow
// graph of a NIC's completion deparser (each emit statement becomes a vertex,
// each conditional two labeled edges), enumerates the root-to-leaf completion
// paths, characterizes them (Prov, Size), solves the path-selection
// optimization of the paper's Eq. 1, and computes the selected layout from
// which host accessors are synthesized.
package core

import (
	"fmt"

	"opendesc/internal/p4/ast"
	"opendesc/internal/p4/sema"
	"opendesc/internal/p4/token"
	"opendesc/internal/semantics"
)

// NodeKind classifies CFG nodes.
type NodeKind int

// CFG node kinds.
const (
	NodeEntry NodeKind = iota
	NodeEmit
	NodeBranch // two-way if
	NodeSwitch // n-way switch
	NodeExit
)

func (k NodeKind) String() string {
	switch k {
	case NodeEntry:
		return "entry"
	case NodeEmit:
		return "emit"
	case NodeBranch:
		return "branch"
	case NodeSwitch:
		return "switch"
	case NodeExit:
		return "exit"
	}
	return "?"
}

// EmitField is one field committed by an emit vertex: its qualified source
// name, width and semantic tag.
type EmitField struct {
	Name      string // e.g. "pipe_meta.rss" or "csum_cmpt_t.csum"
	Semantic  semantics.Name
	WidthBits int
}

// Emit carries the three static vertex properties of the paper
// (bits(v), sem(v), size(v)).
type Emit struct {
	Pos    token.Pos
	Source string // printed argument of the emit call
	Fields []EmitField
}

// SizeBits returns |bits(v)| in bits.
func (e *Emit) SizeBits() int {
	n := 0
	for _, f := range e.Fields {
		n += f.WidthBits
	}
	return n
}

// Edge is a directed CFG edge guarded by a branch predicate.
type Edge struct {
	To *Node
	// Cond is the branch predicate expression (nil for unconditional edges
	// and switch edges, which use CaseVals).
	Cond ast.Expr
	// Negate: the edge is taken when Cond is false (else edge).
	Negate bool
	// CaseVals are the matching tag values for a switch edge.
	CaseVals []sema.Value
	// IsDefault marks a switch default edge (taken when no CaseVals of any
	// sibling edge match).
	IsDefault bool
	// Label is the human-readable guard for reports and DOT output.
	Label string
}

// Node is a CFG node.
type Node struct {
	ID    int
	Kind  NodeKind
	Emit  *Emit    // for NodeEmit
	Cond  ast.Expr // for NodeBranch
	Tag   ast.Expr // for NodeSwitch
	Succs []*Edge
}

// Graph is the control-flow graph of a completion deparser's apply block.
type Graph struct {
	Control string // deparser control name
	Entry   *Node
	Exit    *Node
	Nodes   []*Node

	info *sema.Info
	inst *sema.Instance
}

// Info exposes the semantic info the graph was built against.
func (g *Graph) Info() *sema.Info { return g.info }

// Instance exposes the bound control instance.
func (g *Graph) Instance() *sema.Instance { return g.inst }

// EmitCount returns the number of emit vertices.
func (g *Graph) EmitCount() int {
	n := 0
	for _, v := range g.Nodes {
		if v.Kind == NodeEmit {
			n++
		}
	}
	return n
}

type graphBuilder struct {
	g        *Graph
	info     *sema.Info
	inst     *sema.Instance
	outParam string
	err      error
	fields   []EmitField // scratch: the emit being resolved, copied out at its length
}

func (b *graphBuilder) node(k NodeKind) *Node {
	n := &Node{ID: len(b.g.Nodes), Kind: k}
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

func (b *graphBuilder) errorf(pos token.Pos, format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))
	}
}

// BuildGraph extracts the CFG from a bound completion-deparser instance. Its
// completion channel is the first parameter whose type is the extern
// `cmpt_out`.
func BuildGraph(info *sema.Info, inst *sema.Instance) (*Graph, error) {
	ctl := inst.Control
	if ctl == nil {
		return nil, fmt.Errorf("instance is not a control")
	}
	if ctl.Apply == nil {
		return nil, fmt.Errorf("control %s has no apply block", ctl.Name)
	}
	var outParam string
	for _, p := range inst.Params {
		if et, ok := p.Type.(*sema.ExternType); ok && et.Name == "cmpt_out" {
			outParam = p.Name
			break
		}
	}
	if outParam == "" {
		return nil, fmt.Errorf("control %s: no cmpt_out parameter found", ctl.Name)
	}
	b := &graphBuilder{
		g:        &Graph{Control: ctl.Name, info: info, inst: inst},
		info:     info,
		inst:     inst,
		outParam: outParam,
	}
	b.g.Entry = b.node(NodeEntry)
	b.g.Exit = b.node(NodeExit)
	last := b.buildBlock(ctl.Apply, b.g.Entry)
	for _, n := range last {
		n.Succs = append(n.Succs, &Edge{To: b.g.Exit})
	}
	if b.err != nil {
		return nil, b.err
	}
	return b.g, nil
}

// buildBlock threads the statements of a block after the given predecessors
// and returns the dangling nodes whose successor is the block's continuation.
func (b *graphBuilder) buildBlock(blk *ast.BlockStmt, pred ...*Node) []*Node {
	cur := pred
	for _, s := range blk.Stmts {
		cur = b.buildStmt(s, cur)
	}
	return cur
}

func (b *graphBuilder) buildStmt(s ast.Stmt, pred []*Node) []*Node {
	switch s := s.(type) {
	case *ast.CallStmt:
		recv, name := s.Call.Callee()
		if name != "emit" {
			// Non-emit calls (logging externs, etc.) do not affect layout.
			return pred
		}
		if id, ok := ast.Unparen(recvOf(recv)).(*ast.Ident); !ok || id.Name != b.outParam {
			// emit on something else than the completion channel.
			return pred
		}
		if len(s.Call.Args) != 1 {
			b.errorf(s.Pos(), "emit takes exactly one argument")
			return pred
		}
		em := b.resolveEmit(s.Call.Args[0], s.Pos())
		if em == nil {
			return pred
		}
		n := b.node(NodeEmit)
		n.Emit = em
		link(pred, n, nil)
		return []*Node{n}

	case *ast.IfStmt:
		br := b.node(NodeBranch)
		br.Cond = s.Cond
		link(pred, br, nil)
		cond := ast.Sprint(s.Cond)
		thenEdge := &Edge{Cond: s.Cond, Label: cond}
		elseEdge := &Edge{Cond: s.Cond, Negate: true, Label: "!(" + cond + ")"}
		br.Succs = make([]*Edge, 0, 2)

		thenEntry := b.node(NodeEntry) // anchor so the edge has a target before the body exists
		thenEdge.To = thenEntry
		br.Succs = append(br.Succs, thenEdge)
		thenOut := b.buildBlock(s.Then, thenEntry)

		var elseOut []*Node
		switch e := s.Else.(type) {
		case nil:
			// Else falls through: the branch node itself continues.
			elseAnchor := b.node(NodeEntry)
			elseEdge.To = elseAnchor
			br.Succs = append(br.Succs, elseEdge)
			elseOut = []*Node{elseAnchor}
		case *ast.BlockStmt:
			elseEntry := b.node(NodeEntry)
			elseEdge.To = elseEntry
			br.Succs = append(br.Succs, elseEdge)
			elseOut = b.buildBlock(e, elseEntry)
		case *ast.IfStmt:
			elseEntry := b.node(NodeEntry)
			elseEdge.To = elseEntry
			br.Succs = append(br.Succs, elseEdge)
			elseOut = b.buildStmt(e, []*Node{elseEntry})
		}
		return append(thenOut, elseOut...)

	case *ast.SwitchStmt:
		sw := b.node(NodeSwitch)
		sw.Tag = s.Tag
		link(pred, sw, nil)
		var out []*Node
		hasDefault := false
		tag := ast.Sprint(s.Tag)
		sw.Succs = make([]*Edge, 0, len(s.Cases)+1) // +1: the implicit no-match edge
		for _, c := range s.Cases {
			entry := b.node(NodeEntry)
			e := &Edge{To: entry}
			if c.IsDefault {
				hasDefault = true
				e.IsDefault = true
				e.Label = tag + " = default"
			} else {
				e.CaseVals = make([]sema.Value, 0, len(c.Keys))
				for _, k := range c.Keys {
					v, err := b.info.Eval(k, nil)
					if err != nil {
						b.errorf(c.Pos(), "switch case key must be constant: %v", err)
						continue
					}
					e.CaseVals = append(e.CaseVals, v)
				}
				e.Label = tag + " = " + caseLabel(e.CaseVals)
			}
			sw.Succs = append(sw.Succs, e)
			out = append(out, b.buildBlock(c.Body, entry)...)
		}
		if !hasDefault {
			// Implicit fallthrough when no case matches.
			anchor := b.node(NodeEntry)
			sw.Succs = append(sw.Succs, &Edge{To: anchor, IsDefault: true, Label: "no match"})
			out = append(out, anchor)
		}
		return out

	case *ast.BlockStmt:
		return b.buildBlock(s, pred...)

	case *ast.ReturnStmt:
		link(pred, b.g.Exit, nil)
		return nil

	case *ast.AssignStmt, *ast.DeclStmt, *ast.EmptyStmt:
		// Local computation; no layout effect.
		return pred

	default:
		b.errorf(s.Pos(), "unsupported statement %T in deparser apply block", s)
		return pred
	}
}

func caseLabel(vals []sema.Value) string {
	out := ""
	for i, v := range vals {
		if i > 0 {
			out += "|"
		}
		out += v.String()
	}
	return out
}

func link(from []*Node, to *Node, e *Edge) {
	for _, f := range from {
		edge := &Edge{To: to}
		if e != nil {
			cp := *e
			cp.To = to
			edge = &cp
		}
		f.Succs = append(f.Succs, edge)
	}
}

func recvOf(e ast.Expr) ast.Expr {
	if e == nil {
		return &ast.Ident{Name: ""}
	}
	return e
}

// resolveEmit flattens the argument of an emit call into the fields it
// commits to the completion stream.
func (b *graphBuilder) resolveEmit(arg ast.Expr, pos token.Pos) *Emit {
	arg = ast.Unparen(arg)
	em := &Emit{Pos: pos}
	b.fields = b.fields[:0]
	switch a := arg.(type) {
	case *ast.Ident:
		// Whole parameter (header/struct).
		em.Source = a.Name
		bp := b.inst.Param(a.Name)
		if bp == nil {
			b.errorf(pos, "emit of unknown name %q", a.Name)
			return nil
		}
		ct, ok := bp.Type.(*sema.CompositeType)
		if !ok {
			b.errorf(pos, "emit of non-composite parameter %q (%s)", a.Name, bp.Type)
			return nil
		}
		b.flatten(em, a.Name, ct)
	case *ast.MemberExpr:
		// The dotted path names the argument and, for a leaf, its one field.
		if em.Source = a.Path(); em.Source == "" {
			b.errorf(pos, "emit argument %s is not rooted at a parameter", ast.Sprint(arg))
			return nil
		}
		fi, err := memberField(b.inst, a, "emit")
		if err != nil {
			b.errorf(pos, "%v", err)
			return nil
		}
		// Terminal: either a leaf field or a nested composite.
		if nested, ok := fi.Type.(*sema.CompositeType); ok {
			b.flatten(em, em.Source, nested)
		} else {
			w := fi.Type.BitWidth()
			if w <= 0 {
				b.errorf(pos, "field %s has no fixed width", em.Source)
				return nil
			}
			b.fields = append(b.fields, EmitField{
				Name:      em.Source,
				Semantic:  semantics.Name(fi.Semantic),
				WidthBits: w,
			})
		}
	default:
		b.errorf(pos, "unsupported emit argument %T", arg)
		return nil
	}
	if len(b.fields) == 0 {
		b.errorf(pos, "emit of %s commits no fields", em.Source)
		return nil
	}
	em.Fields = append(make([]EmitField, 0, len(b.fields)), b.fields...)
	return em
}

// memberField resolves a member chain rooted at a parameter (Path() != "") to
// the field its last member selects, checking every level on the way; what
// names the caller's operation ("emit", "extract") in the diagnostics.
func memberField(inst *sema.Instance, e *ast.MemberExpr, what string) (*sema.FieldInfo, error) {
	var t sema.Type
	switch x := e.X.(type) {
	case *ast.Ident:
		bp := inst.Param(x.Name)
		if bp == nil {
			return nil, fmt.Errorf("%s of unknown parameter %q", what, x.Name)
		}
		t = bp.Type
	case *ast.MemberExpr:
		fi, err := memberField(inst, x, what)
		if err != nil {
			return nil, err
		}
		t = fi.Type
	}
	ct, ok := t.(*sema.CompositeType)
	if !ok {
		return nil, fmt.Errorf("%s is not a composite (cannot select %q)", ast.Sprint(e.X), e.Member)
	}
	fi := ct.Field(e.Member)
	if fi == nil {
		return nil, fmt.Errorf("%s has no field %q", ct.Name, e.Member)
	}
	return fi, nil
}

// flatten appends all leaf fields of a composite (recursing into nested
// composites) to the fields of the emit being resolved.
func (b *graphBuilder) flatten(em *Emit, prefix string, ct *sema.CompositeType) {
	for _, f := range ct.Fields {
		name := prefix + "." + f.Name
		if nested, ok := f.Type.(*sema.CompositeType); ok {
			b.flatten(em, name, nested)
			continue
		}
		w := f.Type.BitWidth()
		if w <= 0 {
			b.errorf(em.Pos, "field %s has no fixed width", name)
			continue
		}
		b.fields = append(b.fields, EmitField{
			Name:      name,
			Semantic:  semantics.Name(f.Semantic),
			WidthBits: w,
		})
	}
}
