package sema

import (
	"fmt"

	"opendesc/internal/p4/ast"
	"opendesc/internal/p4/token"
)

// Info is the resolved view of a program.
type Info struct {
	Prog   *ast.Program
	Types  map[string]Type  // declared name -> resolved type
	Consts map[string]Value // const name -> folded value
	Order  []string         // declaration order of named types

	errs ErrorList
}

// Check resolves a parsed program. It returns the Info together with any
// semantic diagnostics; Info is usable (best-effort) even when err != nil.
func Check(prog *ast.Program) (*Info, error) {
	in := &Info{
		Prog:   prog,
		Types:  make(map[string]Type),
		Consts: make(map[string]Value),
	}
	for _, d := range prog.Decls {
		in.declare(d)
	}
	in.checkControlsAndParsers()
	return in, in.errs.Err()
}

// MustCheck panics on semantic errors; for embedded descriptions.
func MustCheck(prog *ast.Program) *Info {
	in, err := Check(prog)
	if err != nil {
		panic(fmt.Sprintf("p4 sema %s: %v", prog.File, err))
	}
	return in
}

func (in *Info) errorf(pos token.Pos, format string, args ...any) {
	if len(in.errs) < 50 {
		in.errs = append(in.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

func (in *Info) defineType(pos token.Pos, name string, t Type) {
	if _, dup := in.Types[name]; dup {
		in.errorf(pos, "duplicate declaration of %q", name)
		return
	}
	in.Types[name] = t
	in.Order = append(in.Order, name)
}

func (in *Info) declare(d ast.Decl) {
	switch d := d.(type) {
	case *ast.HeaderDecl:
		in.defineType(d.Pos(), d.Name, in.composite(d.Name, true, d.Fields, d.Annots, nil))
	case *ast.StructDecl:
		in.defineType(d.Pos(), d.Name, in.composite(d.Name, false, d.Fields, d.Annots, nil))
	case *ast.TypedefDecl:
		in.defineType(d.Pos(), d.Name, in.resolveType(d.Type, nil))
	case *ast.ConstDecl:
		v, err := in.Eval(d.Value, nil)
		if err != nil {
			in.errorf(d.Pos(), "const %s: %v", d.Name, err)
			return
		}
		if t := in.resolveType(d.Type, nil); t != nil {
			if w := t.BitWidth(); w > 0 && w < 64 && !v.IsBool && v.Uint > (uint64(1)<<w)-1 {
				in.errorf(d.Pos(), "const %s: value %d overflows %s", d.Name, v.Uint, t)
			}
		}
		if _, dup := in.Consts[d.Name]; dup {
			in.errorf(d.Pos(), "duplicate const %q", d.Name)
			return
		}
		in.Consts[d.Name] = v
	case *ast.EnumDecl:
		in.declareEnum(d)
	case *ast.ExternDecl:
		in.defineType(d.Pos(), d.Name, &ExternType{Name: d.Name})
	case *ast.ParserDecl, *ast.ControlDecl:
		// Parsers and controls are not value types; checked separately.
	case *ast.VarDecl:
		// Local declarations are scoped; nothing global to record.
	}
}

func (in *Info) declareEnum(d *ast.EnumDecl) {
	et := &EnumType{Name: d.Name, ByName: make(map[string]uint64)}
	if d.Base != nil {
		et.Base = in.resolveType(d.Base, nil)
	}
	var next uint64
	for _, m := range d.Members {
		val := next
		if m.Value != nil {
			v, err := in.Eval(m.Value, nil)
			if err != nil {
				in.errorf(m.Pos(), "enum %s.%s: %v", d.Name, m.Name, err)
			} else {
				val = v.Uint
			}
		}
		if _, dup := et.ByName[m.Name]; dup {
			in.errorf(m.Pos(), "duplicate enum member %s.%s", d.Name, m.Name)
			continue
		}
		et.Members = append(et.Members, m.Name)
		et.ByName[m.Name] = val
		next = val + 1
	}
	in.defineType(d.Pos(), d.Name, et)
}

// composite resolves a header/struct declaration into a CompositeType,
// computing bit offsets in declaration order. bindings maps template type
// parameter names to concrete types (used when instantiating).
func (in *Info) composite(name string, isHeader bool, fields []*ast.Field, annots ast.Annotations, bindings map[string]Type) *CompositeType {
	ct := &CompositeType{
		Name:     name,
		IsHeader: isHeader,
		ByName:   make(map[string]*FieldInfo),
		Annots:   annots,
	}
	offset := 0
	varwidth := false
	for _, f := range fields {
		ft := in.resolveType(f.Type, bindings)
		if ft == nil {
			ft = &BitType{Width: 0}
		}
		fi := &FieldInfo{
			Name:       f.Name,
			Type:       ft,
			OffsetBits: offset,
			Annots:     f.Annots,
		}
		if sem, ok := f.Semantic(); ok {
			fi.Semantic = sem
		}
		if a := f.Annots.Get("cost"); a != nil {
			if n, ok := a.IntArg(0); ok {
				fi.Cost = float64(n)
			}
		}
		if _, dup := ct.ByName[f.Name]; dup {
			in.errorf(f.Pos(), "duplicate field %q in %s", f.Name, name)
			continue
		}
		ct.Fields = append(ct.Fields, fi)
		ct.ByName[f.Name] = fi
		switch w := ft.BitWidth(); {
		case w >= 0:
			offset += w
		default:
			varwidth = true
		}
	}
	if varwidth {
		ct.Bits = -1
	} else {
		ct.Bits = offset
	}
	return ct
}

// resolveType turns a syntactic type into a resolved type. bindings maps
// template parameters to concrete types; unresolved parameters become
// TypeVars.
func (in *Info) resolveType(t ast.Type, bindings map[string]Type) Type {
	switch t := t.(type) {
	case nil:
		return nil
	case *ast.BitType:
		return &BitType{Width: in.evalWidth(t.Width, t.Pos())}
	case *ast.IntType:
		return &IntType{Width: in.evalWidth(t.Width, t.Pos())}
	case *ast.BoolType:
		return &BoolType{}
	case *ast.VarbitType:
		return &VarbitType{MaxWidth: in.evalWidth(t.MaxWidth, t.Pos())}
	case *ast.VoidType:
		return nil
	case *ast.NamedType:
		if bindings != nil {
			if bt, ok := bindings[t.Name]; ok {
				return bt
			}
		}
		if rt, ok := in.Types[t.Name]; ok {
			return rt
		}
		// Well-known opaque interface types used by descriptor templates.
		switch t.Name {
		case "desc_in", "cmpt_out", "packet_in", "packet_out":
			return &ExternType{Name: t.Name}
		}
		return &TypeVar{Name: t.Name}
	}
	return nil
}

func (in *Info) evalWidth(e ast.Expr, pos token.Pos) int {
	v, err := in.Eval(e, nil)
	if err != nil {
		in.errorf(pos, "width: %v", err)
		return 0
	}
	if v.IsBool {
		in.errorf(pos, "width must be an integer")
		return 0
	}
	if v.Uint == 0 || v.Uint > 1<<20 {
		in.errorf(pos, "width %d out of range", v.Uint)
		return 0
	}
	return int(v.Uint)
}

// Composite returns the named header/struct, or nil.
func (in *Info) Composite(name string) *CompositeType {
	ct, _ := in.Types[name].(*CompositeType)
	return ct
}

// Enum returns the named enum, or nil.
func (in *Info) Enum(name string) *EnumType {
	et, _ := in.Types[name].(*EnumType)
	return et
}

// Headers returns all header types in declaration order.
func (in *Info) Headers() []*CompositeType {
	var out []*CompositeType
	for _, name := range in.Order {
		if ct, ok := in.Types[name].(*CompositeType); ok && ct.IsHeader {
			out = append(out, ct)
		}
	}
	return out
}

// checkControlsAndParsers validates parameter types and template usage.
func (in *Info) checkControlsAndParsers() {
	for _, d := range in.Prog.Decls {
		switch d := d.(type) {
		case *ast.ControlDecl:
			in.checkParams(d.Name, d.TypeParams, d.Params)
		case *ast.ParserDecl:
			in.checkParams(d.Name, d.TypeParams, d.Params)
		}
	}
}

func (in *Info) checkParams(owner string, tps []*ast.TypeParam, params []*ast.Param) {
	tpNames := make(map[string]bool, len(tps))
	for _, tp := range tps {
		if tpNames[tp.Name] {
			in.errorf(tp.Pos(), "%s: duplicate type parameter %q", owner, tp.Name)
		}
		tpNames[tp.Name] = true
	}
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		if seen[p.Name] {
			in.errorf(p.Pos(), "%s: duplicate parameter %q", owner, p.Name)
		}
		seen[p.Name] = true
		if nt, ok := p.Type.(*ast.NamedType); ok {
			if tpNames[nt.Name] {
				continue // template parameter, bound at instantiation
			}
			if rt := in.resolveType(nt, nil); rt != nil {
				if _, unbound := rt.(*TypeVar); unbound {
					in.errorf(p.Pos(), "%s: parameter %q has unknown type %q", owner, p.Name, nt.Name)
				}
			}
		}
	}
}

// Instance is a control or parser with its template parameters bound to
// concrete types.
type Instance struct {
	Control *ast.ControlDecl // nil if parser instance
	Parser  *ast.ParserDecl  // nil if control instance
	Params  []*BoundParam
	ByName  map[string]*BoundParam
}

// BoundParam is a runtime parameter with a resolved type.
type BoundParam struct {
	Name string
	Dir  ast.ParamDir
	Type Type
}

// Param returns the named bound parameter, or nil.
func (inst *Instance) Param(name string) *BoundParam { return inst.ByName[name] }

// BindControl instantiates a control's template parameters from its
// @bind("PARAM", "TypeName") annotations, each naming a type declared in the
// same program.
func (in *Info) BindControl(ctl *ast.ControlDecl) (*Instance, error) {
	bmap, err := in.bindingTypes(ctl.Annots, ctl.TypeParams)
	if err != nil {
		return nil, fmt.Errorf("control %s: %w", ctl.Name, err)
	}
	inst := &Instance{Control: ctl, ByName: make(map[string]*BoundParam)}
	for _, p := range ctl.Params {
		bp := &BoundParam{Name: p.Name, Dir: p.Dir, Type: in.resolveType(p.Type, bmap)}
		inst.Params = append(inst.Params, bp)
		inst.ByName[p.Name] = bp
	}
	return inst, nil
}

// BindParser instantiates a parser's template parameters; see BindControl.
func (in *Info) BindParser(pr *ast.ParserDecl) (*Instance, error) {
	bmap, err := in.bindingTypes(pr.Annots, pr.TypeParams)
	if err != nil {
		return nil, fmt.Errorf("parser %s: %w", pr.Name, err)
	}
	inst := &Instance{Parser: pr, ByName: make(map[string]*BoundParam)}
	for _, p := range pr.Params {
		bp := &BoundParam{Name: p.Name, Dir: p.Dir, Type: in.resolveType(p.Type, bmap)}
		inst.Params = append(inst.Params, bp)
		inst.ByName[p.Name] = bp
	}
	return inst, nil
}

func (in *Info) bindingTypes(annots ast.Annotations, tps []*ast.TypeParam) (map[string]Type, error) {
	names := make(map[string]string)
	for _, a := range annots {
		if a.Name != "bind" {
			continue
		}
		param, ok1 := a.StringArg(0)
		typ, ok2 := a.StringArg(1)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("@bind needs two string arguments at %s", a.Pos())
		}
		names[param] = typ
	}
	bmap := make(map[string]Type)
	for _, tp := range tps {
		tn, ok := names[tp.Name]
		if !ok {
			return nil, fmt.Errorf("type parameter %s not bound", tp.Name)
		}
		rt, ok := in.Types[tn]
		if !ok {
			return nil, fmt.Errorf("type parameter %s bound to unknown type %q", tp.Name, tn)
		}
		bmap[tp.Name] = rt
	}
	return bmap, nil
}
