// Package core implements the OpenDesc compiler (DESIGN.md S10): it extracts
// the control-flow graph of a NIC's completion deparser (each emit statement
// becomes a vertex, each conditional two labeled edges) or of its TX
// DescParser (each extract a vertex, each select a switch), enumerates the
// root-to-leaf paths, characterizes them (Prov, Size), solves the
// path-selection optimization of the paper's Eq. 1, and computes the selected
// layout from which host accessors are synthesized. nic.Model owns what
// Analyze builds; Model.Compile is the only compile.
//
// The leaf table. Each graph is built with one (Graph.Leaves, looked up by
// Graph.Leaf): every leaf of at most 64 bits of the control's composite
// parameters, with its dotted name, the header or struct declaring it, its
// semantic, width and bool-ness, and whether it is a context register — a
// field of the parameter the control's first template type types, found by
// position as P4 binds an architecture's parameters. Each LayoutField
// carries its leaf's index. A dotted name is bound to its field here once;
// nicsim, diffverify and the mutator look names up in this table.
//
// Typing and pruning. Conditions are typed where the builder resolves them
// against the bound instance: an if on a bare number (or ! of one), and an
// ==, != or case key comparing a bool with a number, are refused at their
// position, so a bool equals no number (sema.Value.Equal). The enumerator
// evaluates the context symbolically and prunes an edge when its equality
// needs a value wider than its field's declared width, or when the values
// it excludes cover every value that width holds: a default past all of a
// narrow tag's cases, a chain of !=, a bool neither true nor false. A
// condition it cannot decompose, such as a range, stays feasible both ways.
// MaxPaths bounds every walk that ends, dead ends included, so shared states
// cannot hide an exponential search.
//
// One builder, both directions. BuildGraph also lowers the TX DescParser
// into the deparser's graph shape (a desc_in or packet_in channel, extract →
// vertex, one-expression select → switch, reject → sink), so its TX formats
// (TxFormats, printed by opendesc run, claimed as tx_parser by opendesc
// describe) come from the same enumerator. A TX format is what p4/interp
// accepts: a state loop, a tuple select and a non-constant select key are
// refused.
//
// Around the solver: unsatisfiability (UnsatisfiableError), intent matching
// (a semantic requested twice is refused by ParseIntent and
// IntentFromSemantics alike), drift diffing (DiffResults, opendesc -diff),
// offload placement as a cost model (PlanOffloads), and Memo, the one
// content-addressed memo (each key computed once, its error kept beside it,
// nothing evicted) behind the fleet's compile cache, diffverify's
// certificates and nic.Model's analyses.
package core

import (
	"fmt"
	"slices"
	"strings"

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
// name, width and semantic tag, and its leaf.
type EmitField struct {
	Name      string // e.g. "pipe_meta.rss" or "csum_cmpt_t.csum"
	Semantic  semantics.Name
	WidthBits int
	// Leaf indexes the field in Graph.Leaves; -1 for a field wider than 64
	// bits, which occupies layout bits but carries no value.
	Leaf int
}

// Leaf is one field of at most 64 bits under a composite parameter of the
// graph's control or parser: a value a device writes into a record and an
// environment holds. The graph's leaf table binds each dotted name to its
// field once; the device, the differential harness and the mutator look a
// name up in it instead of walking the parameters' types.
type Leaf struct {
	Name     string // dotted, e.g. "pipe_meta.rss" or "ctx.use_rss"
	Decl     string // the header or struct that declares the field
	Semantic semantics.Name
	Width    int
	Bool     bool
	// Context marks a field of the context parameter, a register the host
	// programs: the parameter the control's first template type types, as P4
	// binds an architecture's parameters by position.
	Context bool
}

// Mask keeps the bits of v the leaf holds: its low Width.
func (l *Leaf) Mask(v uint64) uint64 { return v & (^uint64(0) >> (64 - l.Width)) }

// Value is v as the leaf holds it: masked, and typed as the leaf is
// declared, so a bool reads as a truth value.
func (l *Leaf) Value(v uint64) sema.Value {
	if v = l.Mask(v); l.Bool {
		return sema.BoolValue(v != 0)
	}
	return sema.UintValue(v, l.Width)
}

// Emit carries the three static vertex properties of the paper
// (bits(v), sem(v), size(v)).
type Emit struct {
	Pos    token.Pos
	Source string // printed argument of the emit call
	Fields []EmitField
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

// Graph is the control-flow graph of a completion deparser's apply block or
// of a DescParser's state machine.
type Graph struct {
	Control string // deparser control or DescParser name
	Entry   *Node
	Exit    *Node
	Nodes   []*Node
	// Leaves is the leaf table: every composite parameter's leaves in
	// parameter order, each composite's fields in declaration order, nested
	// ones in place.
	Leaves []Leaf

	info   *sema.Info
	inst   *sema.Instance
	leafAt map[string]int // Leaf name → index into Leaves
}

// Info exposes the semantic info the graph was built against.
func (g *Graph) Info() *sema.Info { return g.info }

// Instance exposes the bound control or parser instance.
func (g *Graph) Instance() *sema.Instance { return g.inst }

// Leaf returns the index in Leaves of the leaf a dotted name names, -1 when
// it names none.
func (g *Graph) Leaf(name string) int {
	if i, ok := g.leafAt[name]; ok {
		return i
	}
	return -1
}

// holds reports whether the leaf name can hold v: no setting of a field
// takes a value wider than its declared width. A name that is no leaf may
// hold anything.
func (g *Graph) holds(name string, v sema.Value) bool {
	i := g.Leaf(name)
	return i < 0 || v.IsBool || v.Uint>>g.Leaves[i].Width == 0
}

// exhausted reports whether the values excluded for the leaf name cover all
// 2^Width values it can hold (a bool is one bit: true and false). A name
// that is no leaf is never exhausted.
func (g *Graph) exhausted(name string, excluded []sema.Value) bool {
	i := g.Leaf(name)
	if i < 0 || g.Leaves[i].Width >= 32 || len(excluded) < 1<<g.Leaves[i].Width {
		return false
	}
	distinct := 0
	for k, v := range excluded {
		if g.holds(name, v) && !slices.ContainsFunc(excluded[:k], v.Equal) {
			distinct++
		}
	}
	return distinct >= 1<<g.Leaves[i].Width
}

// indexLeaves builds the leaf table of the bound instance: a first walk
// sizes it, a second fills it. Every name is a substring of one string, so
// the table allocates the same few times whatever its size.
func (g *Graph) indexLeaves() {
	ctx := -1
	if ctl := g.inst.Control; ctl != nil && len(ctl.TypeParams) > 0 {
		for i, p := range ctl.Params {
			if nt, ok := p.Type.(*ast.NamedType); ok && nt.Name == ctl.TypeParams[0].Name {
				ctx = i
				break
			}
		}
	}
	n, size, path := 0, 0, make([]byte, 0, 64)
	g.walkParams(path, func(_ int, name []byte, f *sema.FieldInfo, _ *sema.CompositeType) {
		if w := f.Type.BitWidth(); w > 0 && w <= 64 {
			n, size = n+1, size+len(name)
		}
	})
	g.Leaves = make([]Leaf, 0, n)
	var names strings.Builder
	names.Grow(size)
	g.walkParams(path, func(param int, name []byte, f *sema.FieldInfo, decl *sema.CompositeType) {
		if w := f.Type.BitWidth(); w > 0 && w <= 64 {
			start := names.Len()
			names.Write(name)
			_, isBool := f.Type.(*sema.BoolType)
			g.Leaves = append(g.Leaves, Leaf{Name: names.String()[start:], Decl: decl.Name,
				Semantic: semantics.Name(f.Semantic), Width: w, Bool: isBool, Context: param == ctx})
		}
	})
	g.leafAt = make(map[string]int, n)
	for i, l := range g.Leaves {
		g.leafAt[l.Name] = i
	}
}

// walkParams walks every composite parameter's fields (walkFields), with
// the parameter's index, building names in path's storage.
func (g *Graph) walkParams(path []byte, fn func(param int, name []byte, f *sema.FieldInfo, decl *sema.CompositeType)) {
	for i, p := range g.inst.Params {
		if ct, ok := p.Type.(*sema.CompositeType); ok {
			walkFields(append(path[:0], p.Name...), ct, func(name []byte, f *sema.FieldInfo, decl *sema.CompositeType) { fn(i, name, f, decl) })
		}
	}
}

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
	g       *Graph
	info    *sema.Info
	inst    *sema.Instance
	channel string // the cmpt_out or desc_in parameter
	verb    string // "emit" or "extract": the call that commits fields on channel
	err     error
	fields  []EmitField // scratch: the emit being resolved, copied out at its length
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

// BuildGraph extracts the CFG from a bound completion-deparser instance, whose
// channel is its `cmpt_out` parameter, or from a bound DescParser instance,
// whose channel is its `desc_in` (or `packet_in`) parameter (see lowerParser).
func BuildGraph(info *sema.Info, inst *sema.Instance) (*Graph, error) {
	b := &graphBuilder{info: info, inst: inst, verb: "emit"}
	var kind, name, channel string
	switch {
	case inst.Control != nil:
		kind, name, channel = "control", inst.Control.Name, "cmpt_out"
		if inst.Control.Apply == nil {
			return nil, fmt.Errorf("control %s has no apply block", name)
		}
	case inst.Parser != nil:
		kind, name, channel, b.verb = "parser", inst.Parser.Name, "desc_in", "extract"
	default:
		return nil, fmt.Errorf("instance is neither a control nor a parser")
	}
	for _, p := range inst.Params {
		if et, ok := p.Type.(*sema.ExternType); ok && (et.Name == channel || b.verb == "extract" && et.Name == "packet_in") {
			b.channel = p.Name
			break
		}
	}
	if b.channel == "" {
		return nil, fmt.Errorf("%s %s: no %s parameter found", kind, name, channel)
	}
	b.g = &Graph{Control: name, info: info, inst: inst}
	b.g.indexLeaves()
	b.g.Entry = b.node(NodeEntry)
	b.g.Exit = b.node(NodeExit)
	if inst.Parser != nil {
		b.lowerParser(inst.Parser)
	} else {
		link(b.buildBlock(inst.Control.Apply, b.g.Entry), b.g.Exit, nil)
	}
	if b.err != nil {
		return nil, b.err
	}
	return b.g, nil
}

// lowerParser lowers a parser state machine into the graph from Entry: a
// state is an entry anchor followed by its statements, a one-expression
// select is a switch on constant keys, accept is Exit, and reject (or no
// transition) is a sink with no successor. A select has no implicit no-match
// edge, since a select that matches nothing rejects. A state loop is refused:
// a descriptor that loops has no finite set of layouts.
func (b *graphBuilder) lowerParser(pr *ast.ParserDecl) {
	reject := b.node(NodeEntry)
	anchors := make(map[string]*Node)
	var state func(name string, pos token.Pos) *Node
	state = func(name string, pos token.Pos) *Node {
		switch name {
		case "accept":
			return b.g.Exit
		case "reject":
			return reject
		}
		if n, ok := anchors[name]; ok {
			if n == nil {
				b.errorf(pos, "parser %s: state %q loops back to itself", pr.Name, name)
				return reject
			}
			return n
		}
		st := pr.State(name)
		if st == nil {
			b.errorf(pos, "parser %s: transition to unknown state %q", pr.Name, name)
			return reject
		}
		anchors[name] = nil // on the walk: reaching it again is a loop
		anchor := b.node(NodeEntry)
		last := []*Node{anchor}
		for _, s := range st.Stmts {
			last = b.buildStmt(s, last)
		}
		switch tr := st.Transition.(type) {
		case nil:
			link(last, reject, nil)
		case *ast.DirectTransition:
			link(last, state(tr.Target, tr.Pos()), nil)
		case *ast.SelectTransition:
			if len(tr.Exprs) != 1 {
				b.errorf(tr.Pos(), "parser %s: select on a tuple of %d expressions", pr.Name, len(tr.Exprs))
				break
			}
			sw := b.node(NodeSwitch)
			sw.Tag = tr.Exprs[0]
			link(last, sw, nil)
			tag, tagKind := ast.Sprint(sw.Tag), b.kindOf(sw.Tag)
			sw.Succs = make([]*Edge, 0, len(tr.Cases))
			for _, c := range tr.Cases {
				e := b.caseEdge(tag, tagKind, c.Keys, c.IsDefault, c.Pos(), "select")
				e.To = state(c.Target, c.Pos())
				sw.Succs = append(sw.Succs, e)
			}
		}
		anchors[name] = anchor
		return anchor
	}
	start := state("start", pr.Pos())
	b.g.Entry.Succs = append(b.g.Entry.Succs, &Edge{To: start})
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
		if name != b.verb {
			// Other calls (logging externs, etc.) do not affect layout.
			return pred
		}
		if id, ok := ast.Unparen(recvOf(recv)).(*ast.Ident); !ok || id.Name != b.channel {
			// A call on something else than the channel.
			return pred
		}
		if len(s.Call.Args) != 1 {
			b.errorf(s.Pos(), "%s takes exactly one argument", b.verb)
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
		b.checkCond(s.Cond)
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
		tag, tagKind := ast.Sprint(s.Tag), b.kindOf(s.Tag)
		sw.Succs = make([]*Edge, 0, len(s.Cases)+1) // +1: the implicit no-match edge
		for _, c := range s.Cases {
			entry := b.node(NodeEntry)
			e := b.caseEdge(tag, tagKind, c.Keys, c.IsDefault, c.Pos(), "switch")
			e.To = entry
			hasDefault = hasDefault || c.IsDefault
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
		b.errorf(s.Pos(), "unsupported statement %T in %s", s, b.g.Control)
		return pred
	}
}

// caseEdge builds the edge of one switch or select arm (what names which) with
// its label; a non-default arm's keys must fold to constants of the tag's
// kind.
func (b *graphBuilder) caseEdge(tag string, tagKind kind, keys []ast.Expr, isDefault bool, pos token.Pos, what string) *Edge {
	if isDefault {
		return &Edge{IsDefault: true, Label: tag + " = default"}
	}
	e := &Edge{CaseVals: make([]sema.Value, 0, len(keys))}
	for _, k := range keys {
		v, err := b.info.Eval(k, nil)
		if err != nil {
			b.errorf(pos, "%s case key must be constant: %v", what, err)
			continue
		}
		if tagKind != kindUnknown && (tagKind == kindBool) != v.IsBool {
			b.errorf(k.Pos(), "%s key %s compares a bool with a number (tag %s)", what, v, tag)
		}
		e.CaseVals = append(e.CaseVals, v)
	}
	e.Label = tag + " = " + caseLabel(e.CaseVals)
	return e
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

// resolveEmit flattens the argument of an emit (or extract) call into the
// fields it commits to (or takes from) the channel.
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
			b.errorf(pos, "%s of unknown name %q", b.verb, a.Name)
			return nil
		}
		ct, ok := bp.Type.(*sema.CompositeType)
		if !ok {
			b.errorf(pos, "%s of non-composite parameter %q (%s)", b.verb, a.Name, bp.Type)
			return nil
		}
		b.flatten(em, a.Name, ct)
	case *ast.MemberExpr:
		// The dotted path names the argument and, for a leaf, its one field.
		if em.Source = a.Path(); em.Source == "" {
			b.errorf(pos, "%s argument %s is not rooted at a parameter", b.verb, ast.Sprint(arg))
			return nil
		}
		fi, err := memberField(b.inst, a, b.verb)
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
			b.fields = append(b.fields, EmitField{Name: em.Source, Semantic: semantics.Name(fi.Semantic), WidthBits: w, Leaf: b.g.Leaf(em.Source)})
		}
	default:
		b.errorf(pos, "unsupported %s argument %T", b.verb, arg)
		return nil
	}
	if len(b.fields) == 0 {
		b.errorf(pos, "%s of %s commits no fields", b.verb, em.Source)
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

// kind is what a condition's operand evaluates to, as far as checkCond types
// it: a bool, a number (bit<W>, int<W>, an enum), or unknown.
type kind uint8

const (
	kindUnknown kind = iota
	kindBool
	kindNum
)

// kindOf types an operand from its literal, its constant, the field of the
// bound instance it names, or its operator; any other expression is unknown
// and goes unchecked.
func (b *graphBuilder) kindOf(e ast.Expr) kind {
	switch e := ast.Unparen(e).(type) {
	case *ast.BoolLit:
		return kindBool
	case *ast.IntLit:
		return kindNum
	case *ast.Ident:
		if v, ok := b.info.Consts[e.Name]; ok && v.IsBool {
			return kindBool
		} else if ok {
			return kindNum
		}
		if bp := b.inst.Param(e.Name); bp != nil {
			return typeKind(bp.Type)
		}
	case *ast.MemberExpr:
		if id, ok := e.X.(*ast.Ident); ok && b.info.Enum(id.Name) != nil {
			return kindNum
		}
		if fi, err := memberField(b.inst, e, "read"); err == nil {
			return typeKind(fi.Type)
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			return kindBool
		}
		return kindNum
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQ, token.NEQ, token.LANGLE, token.RANGLE, token.LE, token.GE, token.LAND, token.LOR:
			return kindBool
		}
		return kindNum
	}
	return kindUnknown
}

func typeKind(t sema.Type) kind {
	switch t.(type) {
	case *sema.BoolType:
		return kindBool
	case *sema.BitType, *sema.IntType, *sema.EnumType:
		return kindNum
	}
	return kindUnknown
}

// checkCond refuses an if condition that reads a number as a truth value or
// compares one with a bool, since a bool and a number are never equal
// (sema.Value.Equal): a bare field that is not a bool, alone or under `!`,
// and an `==` or `!=` between a bool and a number anywhere in it.
func (b *graphBuilder) checkCond(cond ast.Expr) {
	bare := ast.Unparen(cond)
	if u, ok := bare.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		bare = ast.Unparen(u.X)
	}
	switch bare.(type) {
	case *ast.Ident, *ast.MemberExpr:
		if b.kindOf(bare) == kindNum {
			b.errorf(bare.Pos(), "condition %s is a number, not a bool", ast.Sprint(bare))
		}
	}
	b.checkCompare(cond)
}

// checkCompare refuses each `==` or `!=` in e between a bool and a number.
func (b *graphBuilder) checkCompare(e ast.Expr) {
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		b.checkCompare(e.X)
	case *ast.BinaryExpr:
		if e.Op == token.EQ || e.Op == token.NEQ {
			if x, y := b.kindOf(e.X), b.kindOf(e.Y); x != kindUnknown && y != kindUnknown && x != y {
				b.errorf(e.Pos(), "%s compares a bool with a number", ast.Sprint(e))
			}
		}
		b.checkCompare(e.X)
		b.checkCompare(e.Y)
	}
}

// flatten appends all leaf fields of a composite (recursing into nested
// composites) to the fields of the emit being resolved. A field with a leaf
// takes its name from the leaf table.
func (b *graphBuilder) flatten(em *Emit, prefix string, ct *sema.CompositeType) {
	walkFields(append(make([]byte, 0, 64), prefix...), ct, func(path []byte, f *sema.FieldInfo, _ *sema.CompositeType) {
		w := f.Type.BitWidth()
		if w <= 0 {
			b.errorf(em.Pos, "field %s has no fixed width", path)
			return
		}
		if leaf, ok := b.g.leafAt[string(path)]; ok {
			b.fields = append(b.fields, EmitField{Name: b.g.Leaves[leaf].Name, Semantic: semantics.Name(f.Semantic), WidthBits: w, Leaf: leaf})
		} else {
			b.fields = append(b.fields, EmitField{Name: string(path), Semantic: semantics.Name(f.Semantic), WidthBits: w, Leaf: -1})
		}
	})
}

// walkFields calls fn on every field under ct that is no composite, in
// declaration order with nested composites in place, with its dotted name —
// path, a dot, its own name — and the composite that declares it. fn must
// copy the name out to keep it.
func walkFields(path []byte, ct *sema.CompositeType, fn func(name []byte, f *sema.FieldInfo, decl *sema.CompositeType)) {
	for _, f := range ct.Fields {
		name := append(append(path, '.'), f.Name...)
		if nested, ok := f.Type.(*sema.CompositeType); ok {
			walkFields(name, nested, fn)
		} else {
			fn(name, f, ct)
		}
	}
}
