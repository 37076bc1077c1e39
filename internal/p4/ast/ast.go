// Package ast defines the abstract syntax tree for the P4-16 subset used by
// OpenDesc interface descriptions: headers, structs, typedefs, enums, consts,
// parsers with select-based state machines, and controls with apply blocks.
//
// Every node carries a source position for diagnostics. The tree is purely
// syntactic; widths, symbol bindings and semantic annotations are resolved by
// package sema.
package ast

import (
	"opendesc/internal/p4/token"
)

// Node is implemented by every AST node.
type Node interface {
	Pos() token.Pos
}

// Decl is a top-level or local declaration.
type Decl interface {
	Node
	declNode()
	// DeclName returns the declared name ("" for anonymous declarations).
	DeclName() string
}

// Stmt is a statement inside an apply block, action, or parser state.
type Stmt interface {
	Node
	stmtNode()
}

// Expr is an expression.
type Expr interface {
	Node
	exprNode()
}

// Type is a syntactic type reference.
type Type interface {
	Node
	typeNode()
}

// Program is a parsed compilation unit.
type Program struct {
	File  string
	Decls []Decl
}

// Decl lookup helpers. They scan linearly; programs are small.

// Header returns the header declaration with the given name, or nil.
func (p *Program) Header(name string) *HeaderDecl {
	for _, d := range p.Decls {
		if h, ok := d.(*HeaderDecl); ok && h.Name == name {
			return h
		}
	}
	return nil
}

// Control returns the control declaration with the given name, or nil.
func (p *Program) Control(name string) *ControlDecl {
	for _, d := range p.Decls {
		if c, ok := d.(*ControlDecl); ok && c.Name == name {
			return c
		}
	}
	return nil
}

// Parser returns the parser declaration with the given name, or nil.
func (p *Program) Parser(name string) *ParserDecl {
	for _, d := range p.Decls {
		if pr, ok := d.(*ParserDecl); ok && pr.Name == name {
			return pr
		}
	}
	return nil
}

// Controls returns all control declarations in order.
func (p *Program) Controls() []*ControlDecl {
	var out []*ControlDecl
	for _, d := range p.Decls {
		if c, ok := d.(*ControlDecl); ok {
			out = append(out, c)
		}
	}
	return out
}

// Headers returns all header declarations in order.
func (p *Program) Headers() []*HeaderDecl {
	var out []*HeaderDecl
	for _, d := range p.Decls {
		if h, ok := d.(*HeaderDecl); ok {
			out = append(out, h)
		}
	}
	return out
}

// Annotation is an @name(args...) marker attached to a declaration or field.
type Annotation struct {
	AtPos token.Pos
	Name  string
	Args  []Expr
}

func (a *Annotation) Pos() token.Pos { return a.AtPos }

// StringArg returns the i-th argument if it is a string literal.
func (a *Annotation) StringArg(i int) (string, bool) {
	if i >= len(a.Args) {
		return "", false
	}
	s, ok := a.Args[i].(*StringLit)
	if !ok {
		return "", false
	}
	return s.Value, true
}

// IntArg returns the i-th argument if it is an integer literal.
func (a *Annotation) IntArg(i int) (int64, bool) {
	if i >= len(a.Args) {
		return 0, false
	}
	switch v := a.Args[i].(type) {
	case *IntLit:
		return int64(v.Value), true
	case *UnaryExpr:
		if v.Op == token.MINUS {
			if n, ok := v.X.(*IntLit); ok {
				return -int64(n.Value), true
			}
		}
	}
	return 0, false
}

// Annotations is an annotation list with lookup helpers.
type Annotations []*Annotation

// Get returns the first annotation with the given name.
func (as Annotations) Get(name string) *Annotation {
	for _, a := range as {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Has reports whether an annotation with the given name exists.
func (as Annotations) Has(name string) bool { return as.Get(name) != nil }

// ---- Declarations ----

// HeaderDecl is `header Name { fields }`.
type HeaderDecl struct {
	HeaderPos token.Pos
	Name      string
	Annots    Annotations
	Fields    []*Field
}

func (d *HeaderDecl) Pos() token.Pos   { return d.HeaderPos }
func (d *HeaderDecl) declNode()        {}
func (d *HeaderDecl) DeclName() string { return d.Name }

// Field returns the named field, or nil.
func (d *HeaderDecl) Field(name string) *Field {
	for _, f := range d.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// StructDecl is `struct Name { fields }`.
type StructDecl struct {
	StructPos token.Pos
	Name      string
	Annots    Annotations
	Fields    []*Field
}

func (d *StructDecl) Pos() token.Pos   { return d.StructPos }
func (d *StructDecl) declNode()        {}
func (d *StructDecl) DeclName() string { return d.Name }

// Field returns the named field, or nil.
func (d *StructDecl) Field(name string) *Field {
	for _, f := range d.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Field is a header or struct member.
type Field struct {
	NamePos token.Pos
	Name    string
	Type    Type
	Annots  Annotations
}

func (f *Field) Pos() token.Pos { return f.NamePos }

// Semantic returns the @semantic("name") tag value, if present.
func (f *Field) Semantic() (string, bool) {
	if a := f.Annots.Get("semantic"); a != nil {
		return a.StringArg(0)
	}
	return "", false
}

// TypedefDecl is `typedef Type Name;`.
type TypedefDecl struct {
	TypedefPos token.Pos
	Name       string
	Type       Type
}

func (d *TypedefDecl) Pos() token.Pos   { return d.TypedefPos }
func (d *TypedefDecl) declNode()        {}
func (d *TypedefDecl) DeclName() string { return d.Name }

// ConstDecl is `const Type Name = Expr;`.
type ConstDecl struct {
	ConstPos token.Pos
	Name     string
	Type     Type
	Value    Expr
}

func (d *ConstDecl) Pos() token.Pos   { return d.ConstPos }
func (d *ConstDecl) declNode()        {}
func (d *ConstDecl) DeclName() string { return d.Name }

// EnumMember is a single enum entry with an optional explicit value.
type EnumMember struct {
	NamePos token.Pos
	Name    string
	Value   Expr // nil unless serializable enum with explicit values
}

func (m *EnumMember) Pos() token.Pos { return m.NamePos }

// EnumDecl is `enum [bit<N>] Name { members }`.
type EnumDecl struct {
	EnumPos token.Pos
	Name    string
	Base    Type // nil for plain enums
	Members []*EnumMember
}

func (d *EnumDecl) Pos() token.Pos   { return d.EnumPos }
func (d *EnumDecl) declNode()        {}
func (d *EnumDecl) DeclName() string { return d.Name }

// ParamDir is the direction of a parser/control parameter.
type ParamDir int

// Parameter directions.
const (
	DirNone ParamDir = iota
	DirIn
	DirOut
	DirInOut
)

func (d ParamDir) String() string {
	switch d {
	case DirIn:
		return "in"
	case DirOut:
		return "out"
	case DirInOut:
		return "inout"
	}
	return ""
}

// Param is a runtime parameter of a parser or control.
type Param struct {
	NamePos token.Pos
	Dir     ParamDir
	Type    Type
	Name    string
	Annots  Annotations
}

func (p *Param) Pos() token.Pos { return p.NamePos }

// TypeParam is a template type parameter, e.g. DESC_T.
type TypeParam struct {
	NamePos token.Pos
	Name    string
}

func (p *TypeParam) Pos() token.Pos { return p.NamePos }

// ParserDecl is a P4 parser with states.
type ParserDecl struct {
	ParserPos  token.Pos
	Name       string
	Annots     Annotations
	TypeParams []*TypeParam
	Params     []*Param
	Locals     []Decl
	States     []*ParserState
}

func (d *ParserDecl) Pos() token.Pos   { return d.ParserPos }
func (d *ParserDecl) declNode()        {}
func (d *ParserDecl) DeclName() string { return d.Name }

// State returns the named state, or nil.
func (d *ParserDecl) State(name string) *ParserState {
	for _, s := range d.States {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// ParserState is `state name { stmts transition ... }`.
type ParserState struct {
	StatePos   token.Pos
	Name       string
	Annots     Annotations
	Stmts      []Stmt
	Transition Transition // nil means implicit reject
}

func (s *ParserState) Pos() token.Pos { return s.StatePos }

// Transition is a parser state transition.
type Transition interface {
	Node
	transitionNode()
}

// DirectTransition is `transition name;`.
type DirectTransition struct {
	TransPos token.Pos
	Target   string
}

func (t *DirectTransition) Pos() token.Pos  { return t.TransPos }
func (t *DirectTransition) transitionNode() {}

// SelectTransition is `transition select(exprs) { cases }`.
type SelectTransition struct {
	TransPos token.Pos
	Exprs    []Expr
	Cases    []*SelectCase
}

func (t *SelectTransition) Pos() token.Pos  { return t.TransPos }
func (t *SelectTransition) transitionNode() {}

// SelectCase is one arm of a select transition. A default arm has IsDefault
// set and no keys.
type SelectCase struct {
	CasePos   token.Pos
	Keys      []Expr // literals, ranges, masks, or DontCare
	IsDefault bool
	Target    string
}

func (c *SelectCase) Pos() token.Pos { return c.CasePos }

// ControlDecl is a P4 control with local declarations, actions and an apply
// block.
type ControlDecl struct {
	ControlPos token.Pos
	Name       string
	Annots     Annotations
	TypeParams []*TypeParam
	Params     []*Param
	Locals     []Decl
	Actions    []*ActionDecl
	Apply      *BlockStmt
}

func (d *ControlDecl) Pos() token.Pos   { return d.ControlPos }
func (d *ControlDecl) declNode()        {}
func (d *ControlDecl) DeclName() string { return d.Name }

// ActionDecl is `action name(params) { body }`.
type ActionDecl struct {
	ActionPos token.Pos
	Name      string
	Params    []*Param
	Body      *BlockStmt
}

func (d *ActionDecl) Pos() token.Pos   { return d.ActionPos }
func (d *ActionDecl) declNode()        {}
func (d *ActionDecl) DeclName() string { return d.Name }

// VarDecl is a local variable declaration `Type name [= expr];`.
type VarDecl struct {
	TypePos token.Pos
	Type    Type
	Name    string
	Init    Expr // may be nil
}

func (d *VarDecl) Pos() token.Pos   { return d.TypePos }
func (d *VarDecl) declNode()        {}
func (d *VarDecl) DeclName() string { return d.Name }

// ExternDecl records an extern object or function signature. OpenDesc treats
// externs as opaque capability markers.
type ExternDecl struct {
	ExternPos token.Pos
	Name      string
	Annots    Annotations
}

func (d *ExternDecl) Pos() token.Pos   { return d.ExternPos }
func (d *ExternDecl) declNode()        {}
func (d *ExternDecl) DeclName() string { return d.Name }

// ---- Statements ----

// BlockStmt is `{ stmts }`.
type BlockStmt struct {
	LBrace token.Pos
	Stmts  []Stmt
}

func (s *BlockStmt) Pos() token.Pos { return s.LBrace }
func (s *BlockStmt) stmtNode()      {}

// IfStmt is `if (cond) then [else else]`. Else is a *BlockStmt or *IfStmt.
type IfStmt struct {
	IfPos token.Pos
	Cond  Expr
	Then  *BlockStmt
	Else  Stmt // nil, *BlockStmt, or *IfStmt
}

func (s *IfStmt) Pos() token.Pos { return s.IfPos }
func (s *IfStmt) stmtNode()      {}

// SwitchCase is one arm of a switch statement.
type SwitchCase struct {
	CasePos   token.Pos
	Keys      []Expr
	IsDefault bool
	Body      *BlockStmt
}

func (c *SwitchCase) Pos() token.Pos { return c.CasePos }

// SwitchStmt is `switch (expr) { case k: {..} ... }`.
type SwitchStmt struct {
	SwitchPos token.Pos
	Tag       Expr
	Cases     []*SwitchCase
}

func (s *SwitchStmt) Pos() token.Pos { return s.SwitchPos }
func (s *SwitchStmt) stmtNode()      {}

// AssignStmt is `lhs = rhs;`.
type AssignStmt struct {
	LHS Expr
	RHS Expr
}

func (s *AssignStmt) Pos() token.Pos { return s.LHS.Pos() }
func (s *AssignStmt) stmtNode()      {}

// CallStmt is an expression statement consisting of a call, such as
// `cmpt_out.emit(hdr);` or `verify_checksum(...)`.
type CallStmt struct {
	Call *CallExpr
}

func (s *CallStmt) Pos() token.Pos { return s.Call.Pos() }
func (s *CallStmt) stmtNode()      {}

// DeclStmt wraps a local declaration appearing in statement position.
type DeclStmt struct {
	Decl Decl
}

func (s *DeclStmt) Pos() token.Pos { return s.Decl.Pos() }
func (s *DeclStmt) stmtNode()      {}

// ReturnStmt is `return;` (P4 controls return nothing).
type ReturnStmt struct {
	ReturnPos token.Pos
}

func (s *ReturnStmt) Pos() token.Pos { return s.ReturnPos }
func (s *ReturnStmt) stmtNode()      {}

// EmptyStmt is a stray `;`.
type EmptyStmt struct {
	SemiPos token.Pos
}

func (s *EmptyStmt) Pos() token.Pos { return s.SemiPos }
func (s *EmptyStmt) stmtNode()      {}

// ---- Types ----

// BitType is `bit<W>`.
type BitType struct {
	BitPos token.Pos
	Width  Expr
}

func (t *BitType) Pos() token.Pos { return t.BitPos }
func (t *BitType) typeNode()      {}

// IntType is `int<W>`.
type IntType struct {
	IntPos token.Pos
	Width  Expr
}

func (t *IntType) Pos() token.Pos { return t.IntPos }
func (t *IntType) typeNode()      {}

// BoolType is `bool`.
type BoolType struct {
	BoolPos token.Pos
}

func (t *BoolType) Pos() token.Pos { return t.BoolPos }
func (t *BoolType) typeNode()      {}

// VarbitType is `varbit<W>`.
type VarbitType struct {
	VarbitPos token.Pos
	MaxWidth  Expr
}

func (t *VarbitType) Pos() token.Pos { return t.VarbitPos }
func (t *VarbitType) typeNode()      {}

// NamedType references a typedef, header, struct, enum, extern, or a template
// type parameter; TypeArgs carries instantiation arguments if present.
type NamedType struct {
	NamePos  token.Pos
	Name     string
	TypeArgs []Type
}

func (t *NamedType) Pos() token.Pos { return t.NamePos }
func (t *NamedType) typeNode()      {}

// VoidType is `void`.
type VoidType struct {
	VoidPos token.Pos
}

func (t *VoidType) Pos() token.Pos { return t.VoidPos }
func (t *VoidType) typeNode()      {}

// ---- Expressions ----

// Ident is a bare identifier.
type Ident struct {
	NamePos token.Pos
	Name    string
}

func (e *Ident) Pos() token.Pos { return e.NamePos }
func (e *Ident) exprNode()      {}

// IntLit is an integer literal, possibly width-prefixed (8w0xFF).
type IntLit struct {
	LitPos token.Pos
	Value  uint64
	Width  int  // 0 if unsized
	Signed bool // true for Ns literals
	Text   string
}

func (e *IntLit) Pos() token.Pos { return e.LitPos }
func (e *IntLit) exprNode()      {}

// BoolLit is true/false.
type BoolLit struct {
	LitPos token.Pos
	Value  bool
}

func (e *BoolLit) Pos() token.Pos { return e.LitPos }
func (e *BoolLit) exprNode()      {}

// StringLit is a string literal (used in annotations).
type StringLit struct {
	LitPos token.Pos
	Value  string
}

func (e *StringLit) Pos() token.Pos { return e.LitPos }
func (e *StringLit) exprNode()      {}

// MemberExpr is `x.member`.
type MemberExpr struct {
	X      Expr
	Member string
}

func (e *MemberExpr) Pos() token.Pos { return e.X.Pos() }
func (e *MemberExpr) exprNode()      {}

// Path renders the dotted path of a member chain rooted at an identifier,
// e.g. "ctx.use_rss". It returns "" if the chain is not ident-rooted.
func (e *MemberExpr) Path() string {
	switch x := e.X.(type) {
	case *Ident:
		return x.Name + "." + e.Member
	case *MemberExpr:
		if p := x.Path(); p != "" {
			return p + "." + e.Member
		}
	}
	return ""
}

// SliceExpr is the P4 bit-slice `x[hi:lo]`.
type SliceExpr struct {
	X  Expr
	Hi Expr
	Lo Expr
}

func (e *SliceExpr) Pos() token.Pos { return e.X.Pos() }
func (e *SliceExpr) exprNode()      {}

// IndexExpr is `x[i]` (header stacks; rarely used in descriptions).
type IndexExpr struct {
	X     Expr
	Index Expr
}

func (e *IndexExpr) Pos() token.Pos { return e.X.Pos() }
func (e *IndexExpr) exprNode()      {}

// CallExpr is `fun(args)` or `fun<T...>(args)`.
type CallExpr struct {
	Fun      Expr
	TypeArgs []Type
	Args     []Expr
}

func (e *CallExpr) Pos() token.Pos { return e.Fun.Pos() }
func (e *CallExpr) exprNode()      {}

// Callee returns the terminal name of the called function or method, e.g.
// "emit" for cmpt_out.emit(...), and the receiver expression (nil for bare
// calls).
func (e *CallExpr) Callee() (recv Expr, name string) {
	switch f := e.Fun.(type) {
	case *Ident:
		return nil, f.Name
	case *MemberExpr:
		return f.X, f.Member
	}
	return nil, ""
}

// BinaryExpr is `x op y`.
type BinaryExpr struct {
	Op token.Kind
	X  Expr
	Y  Expr
}

func (e *BinaryExpr) Pos() token.Pos { return e.X.Pos() }
func (e *BinaryExpr) exprNode()      {}

// UnaryExpr is `op x` (!, ~, -).
type UnaryExpr struct {
	OpPos token.Pos
	Op    token.Kind
	X     Expr
}

func (e *UnaryExpr) Pos() token.Pos { return e.OpPos }
func (e *UnaryExpr) exprNode()      {}

// CastExpr is `(Type) x`.
type CastExpr struct {
	LParen token.Pos
	Type   Type
	X      Expr
}

func (e *CastExpr) Pos() token.Pos { return e.LParen }
func (e *CastExpr) exprNode()      {}

// TernaryExpr is `cond ? a : b`.
type TernaryExpr struct {
	Cond Expr
	Then Expr
	Else Expr
}

func (e *TernaryExpr) Pos() token.Pos { return e.Cond.Pos() }
func (e *TernaryExpr) exprNode()      {}

// ParenExpr is `(x)`.
type ParenExpr struct {
	LParen token.Pos
	X      Expr
}

func (e *ParenExpr) Pos() token.Pos { return e.LParen }
func (e *ParenExpr) exprNode()      {}

// RangeExpr is `lo..hi` in select cases.
type RangeExpr struct {
	Lo Expr
	Hi Expr
}

func (e *RangeExpr) Pos() token.Pos { return e.Lo.Pos() }
func (e *RangeExpr) exprNode()      {}

// MaskExpr is `value &&& mask` — approximated in our subset as value &&& mask
// is not lexed; masks appear via BinaryExpr AMP in cases. Retained for
// completeness of select-case modelling when written as `v &&& m`.
type MaskExpr struct {
	Value Expr
	Mask  Expr
}

func (e *MaskExpr) Pos() token.Pos { return e.Value.Pos() }
func (e *MaskExpr) exprNode()      {}

// DontCare is `_` in select cases. The lexer produces IDENT "_"; the parser
// normalizes it to DontCare.
type DontCare struct {
	UnderscorePos token.Pos
}

func (e *DontCare) Pos() token.Pos { return e.UnderscorePos }
func (e *DontCare) exprNode()      {}

// Unparen strips redundant parentheses.
func Unparen(e Expr) Expr {
	for {
		p, ok := e.(*ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
