package core

import (
	"fmt"

	"opendesc/internal/p4/ast"
	"opendesc/internal/p4/sema"
	"opendesc/internal/semantics"
)

// TxLayout is one concrete TX descriptor format the NIC's DescParser accepts:
// a root-to-accept walk of the parser state machine, with the context
// constraints that select it and the fields extracted along the way.
type TxLayout struct {
	ID          int
	States      []string // visited parser states, in order
	Constraints []Constraint
	Fields      []LayoutField
	Accepted    bool
}

// SizeBits is the total extracted width.
func (l *TxLayout) SizeBits() int {
	n := 0
	for _, f := range l.Fields {
		n += f.WidthBits
	}
	return n
}

// SizeBytes is the TX descriptor footprint in bytes.
func (l *TxLayout) SizeBytes() int { return (l.SizeBits() + 7) / 8 }

// Consumes returns the set of semantics the NIC reads from the host via this
// TX descriptor format (offload hints, buffer metadata).
func (l *TxLayout) Consumes() semantics.Set {
	s := make(semantics.Set)
	for _, f := range l.Fields {
		if f.Semantic != "" {
			s.Add(f.Semantic)
		}
	}
	return s
}

// Field returns the layout field with the given semantic, or nil.
func (l *TxLayout) Field(s semantics.Name) *LayoutField {
	for i := range l.Fields {
		if l.Fields[i].Semantic == s {
			return &l.Fields[i]
		}
	}
	return nil
}

// maxStateVisits bounds repeated visits to a parser state along one walk
// (loops such as option/TLV parsing are cut off deterministically).
const maxStateVisits = 4

// AnalyzeDescParser enumerates the TX descriptor layouts of a bound
// DescParser instance. Its input channel is the first parameter whose type
// is the extern `desc_in` (or `packet_in`).
func AnalyzeDescParser(info *sema.Info, inst *sema.Instance) ([]*TxLayout, error) {
	pr := inst.Parser
	if pr == nil {
		return nil, fmt.Errorf("instance is not a parser")
	}
	var inParam string
	for _, p := range inst.Params {
		if et, ok := p.Type.(*sema.ExternType); ok && (et.Name == "desc_in" || et.Name == "packet_in") {
			inParam = p.Name
			break
		}
	}
	if inParam == "" {
		return nil, fmt.Errorf("parser %s: no desc_in parameter found", pr.Name)
	}
	start := pr.State("start")
	if start == nil {
		return nil, fmt.Errorf("parser %s: no start state", pr.Name)
	}

	a := &txAnalyzer{info: info, inst: inst, pr: pr, inParam: inParam}
	if err := a.walk(start, newPathEnv(), nil, nil, nil, make(map[string]int)); err != nil {
		return nil, err
	}
	return a.layouts, nil
}

type txAnalyzer struct {
	info    *sema.Info
	inst    *sema.Instance
	pr      *ast.ParserDecl
	inParam string
	layouts []*TxLayout
}

func (a *txAnalyzer) emitLayout(states []string, cons []Constraint, fields []LayoutField, accepted bool) error {
	if len(a.layouts) >= DefaultMaxPaths {
		return fmt.Errorf("%w: parser %s", ErrTooManyPaths, a.pr.Name)
	}
	a.layouts = append(a.layouts, &TxLayout{
		ID:          len(a.layouts),
		States:      append([]string(nil), states...),
		Constraints: append([]Constraint(nil), cons...),
		Fields:      append([]LayoutField(nil), fields...),
		Accepted:    accepted,
	})
	return nil
}

func (a *txAnalyzer) walk(st *ast.ParserState, env *pathEnv, states []string, cons []Constraint, fields []LayoutField, visits map[string]int) error {
	if visits[st.Name] >= maxStateVisits {
		return nil
	}
	visits[st.Name]++
	defer func() { visits[st.Name]-- }()
	states = append(states, st.Name)

	// Process extract statements.
	off := 0
	for _, f := range fields {
		off = f.OffsetBits + f.WidthBits
	}
	for _, s := range st.Stmts {
		call, ok := s.(*ast.CallStmt)
		if !ok {
			continue
		}
		recv, name := call.Call.Callee()
		if name != "extract" {
			continue
		}
		if id, ok := ast.Unparen(recvOf(recv)).(*ast.Ident); !ok || id.Name != a.inParam {
			continue
		}
		if len(call.Call.Args) != 1 {
			return fmt.Errorf("%s: extract takes exactly one argument", call.Pos())
		}
		fs, err := a.extractFields(call.Call.Args[0], off)
		if err != nil {
			return err
		}
		for _, f := range fs {
			fields = append(fields, f)
			off = f.OffsetBits + f.WidthBits
		}
	}

	switch tr := st.Transition.(type) {
	case nil:
		// Implicit reject.
		return a.emitLayout(states, cons, fields, false)
	case *ast.DirectTransition:
		return a.transitionTo(tr.Target, env, states, cons, fields, visits)
	case *ast.SelectTransition:
		if len(tr.Exprs) != 1 {
			// Tuple selects: treat every case as feasible, no knowledge.
			for _, c := range tr.Cases {
				if err := a.transitionTo(c.Target, env, states, cons, fields, visits); err != nil {
					return err
				}
			}
			return nil
		}
		tagVar, tagKnown := symbolicVar(a.info, tr.Exprs[0], env)
		for _, c := range tr.Cases {
			childEnv := env
			childCons := cons
			if c.IsDefault {
				if tagVar != "" {
					ne := env.clone()
					nc := cons
					for _, sib := range tr.Cases {
						if sib.IsDefault {
							continue
						}
						for _, k := range sib.Keys {
							if v, err := a.info.Eval(k, nil); err == nil && !ne.knownNotEqual(tagVar, v) {
								ne.neq[tagVar] = append(ne.neq[tagVar], v)
								nc = append(nc[:len(nc):len(nc)], Constraint{Var: tagVar, Val: v, Equal: false})
							}
						}
					}
					childEnv, childCons = ne, nc
				}
				if err := a.transitionTo(c.Target, childEnv, states, childCons, fields, visits); err != nil {
					return err
				}
				continue
			}
			feasible := true
			if len(c.Keys) == 1 {
				switch k := c.Keys[0].(type) {
				case *ast.DontCare:
					// always feasible, no knowledge
				case *ast.RangeExpr:
					if tagKnown != nil {
						lo, err1 := a.info.Eval(k.Lo, nil)
						hi, err2 := a.info.Eval(k.Hi, nil)
						if err1 == nil && err2 == nil {
							feasible = tagKnown.Uint >= lo.Uint && tagKnown.Uint <= hi.Uint
						}
					}
				default:
					v, err := a.info.Eval(k, nil)
					if err == nil {
						switch {
						case tagKnown != nil:
							feasible = tagKnown.Equal(v)
						case tagVar != "":
							if kv, ok := env.eq[tagVar]; ok {
								feasible = kv.Equal(v)
							} else if env.knownNotEqual(tagVar, v) {
								feasible = false
							} else {
								ne := env.clone()
								ne.eq[tagVar] = v
								childEnv = ne
								childCons = append(cons[:len(cons):len(cons)], Constraint{Var: tagVar, Val: v, Equal: true})
							}
						}
					}
				}
			}
			if !feasible {
				continue
			}
			if err := a.transitionTo(c.Target, childEnv, states, childCons, fields, visits); err != nil {
				return err
			}
		}
		return nil
	}
	return nil
}

func (a *txAnalyzer) transitionTo(target string, env *pathEnv, states []string, cons []Constraint, fields []LayoutField, visits map[string]int) error {
	switch target {
	case "accept":
		return a.emitLayout(states, cons, fields, true)
	case "reject":
		return a.emitLayout(states, cons, fields, false)
	}
	next := a.pr.State(target)
	if next == nil {
		return fmt.Errorf("parser %s: transition to unknown state %q", a.pr.Name, target)
	}
	return a.walk(next, env, states, cons, fields, visits)
}

// extractFields flattens the argument of an extract() call.
func (a *txAnalyzer) extractFields(arg ast.Expr, off int) ([]LayoutField, error) {
	arg = ast.Unparen(arg)
	var comp *sema.CompositeType
	var prefix string
	switch x := arg.(type) {
	case *ast.Ident:
		bp := a.inst.Param(x.Name)
		if bp == nil {
			return nil, fmt.Errorf("extract of unknown name %q", x.Name)
		}
		ct, ok := bp.Type.(*sema.CompositeType)
		if !ok {
			return nil, fmt.Errorf("extract target %q is not a composite", x.Name)
		}
		comp, prefix = ct, x.Name
	case *ast.MemberExpr:
		if prefix = x.Path(); prefix == "" {
			return nil, fmt.Errorf("extract argument %s is not rooted at a parameter", ast.Sprint(arg))
		}
		fi, err := memberField(a.inst, x, "extract")
		if err != nil {
			return nil, err
		}
		ct, ok := fi.Type.(*sema.CompositeType)
		if !ok {
			return nil, fmt.Errorf("extract target %s must be a header", prefix)
		}
		comp = ct
	default:
		return nil, fmt.Errorf("unsupported extract argument %T", arg)
	}
	var out []LayoutField
	for _, f := range comp.Fields {
		w := f.Type.BitWidth()
		if w <= 0 {
			return nil, fmt.Errorf("extract field %s.%s has no fixed width", prefix, f.Name)
		}
		out = append(out, LayoutField{
			Name:       prefix + "." + f.Name,
			Semantic:   semantics.Name(f.Semantic),
			OffsetBits: off,
			WidthBits:  w,
		})
		off += w
	}
	return out, nil
}

// AcceptedLayouts filters the accepted (non-reject) TX layouts.
func AcceptedLayouts(ls []*TxLayout) []*TxLayout {
	var out []*TxLayout
	for _, l := range ls {
		if l.Accepted {
			out = append(out, l)
		}
	}
	return out
}
