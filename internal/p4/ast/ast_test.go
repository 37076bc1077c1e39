package ast

import (
	"strings"
	"testing"

	"opendesc/internal/p4/token"
)

func ident(n string) *Ident { return &Ident{Name: n} }

func TestMemberExprPath(t *testing.T) {
	e := &MemberExpr{X: ident("ctx"), Member: "use_rss"}
	if e.Path() != "ctx.use_rss" {
		t.Errorf("path = %q", e.Path())
	}
	nested := &MemberExpr{X: e, Member: "bit0"}
	if nested.Path() != "ctx.use_rss.bit0" {
		t.Errorf("nested path = %q", nested.Path())
	}
	call := &MemberExpr{X: &CallExpr{Fun: ident("f")}, Member: "x"}
	if call.Path() != "" {
		t.Errorf("non-ident-rooted path = %q", call.Path())
	}
}

func TestCallExprCallee(t *testing.T) {
	bare := &CallExpr{Fun: ident("verify")}
	if recv, name := bare.Callee(); recv != nil || name != "verify" {
		t.Errorf("bare callee = %v %q", recv, name)
	}
	method := &CallExpr{Fun: &MemberExpr{X: ident("cmpt_out"), Member: "emit"}}
	recv, name := method.Callee()
	if name != "emit" {
		t.Errorf("method callee = %q", name)
	}
	if id, ok := recv.(*Ident); !ok || id.Name != "cmpt_out" {
		t.Errorf("receiver = %v", recv)
	}
	weird := &CallExpr{Fun: &ParenExpr{X: ident("f")}}
	if _, name := weird.Callee(); name != "" {
		t.Errorf("paren callee = %q", name)
	}
}

func TestUnparen(t *testing.T) {
	inner := ident("x")
	wrapped := &ParenExpr{X: &ParenExpr{X: inner}}
	if Unparen(wrapped) != Expr(inner) {
		t.Error("Unparen should strip nested parens")
	}
	if Unparen(inner) != Expr(inner) {
		t.Error("Unparen on bare expr should be identity")
	}
}

func TestAnnotationHelpers(t *testing.T) {
	as := Annotations{
		{Name: "semantic", Args: []Expr{&StringLit{Value: "rss"}}},
		{Name: "cost", Args: []Expr{&IntLit{Value: 12}}},
		{Name: "neg", Args: []Expr{&UnaryExpr{Op: token.MINUS, X: &IntLit{Value: 5}}}},
	}
	if !as.Has("semantic") || as.Has("missing") {
		t.Error("Has broken")
	}
	if v, ok := as.Get("semantic").StringArg(0); !ok || v != "rss" {
		t.Errorf("string arg = %q %v", v, ok)
	}
	if _, ok := as.Get("semantic").StringArg(1); ok {
		t.Error("out-of-range arg should fail")
	}
	if _, ok := as.Get("cost").StringArg(0); ok {
		t.Error("int arg read as string should fail")
	}
	if v, ok := as.Get("cost").IntArg(0); !ok || v != 12 {
		t.Errorf("int arg = %d %v", v, ok)
	}
	if v, ok := as.Get("neg").IntArg(0); !ok || v != -5 {
		t.Errorf("negative int arg = %d %v", v, ok)
	}
}

func TestFieldSemantic(t *testing.T) {
	f := &Field{
		Name:   "rss_val",
		Type:   &BitType{Width: &IntLit{Value: 32}},
		Annots: Annotations{{Name: "semantic", Args: []Expr{&StringLit{Value: "rss"}}}},
	}
	if s, ok := f.Semantic(); !ok || s != "rss" {
		t.Errorf("semantic = %q %v", s, ok)
	}
	plain := &Field{Name: "pad"}
	if _, ok := plain.Semantic(); ok {
		t.Error("untagged field should have no semantic")
	}
}

func TestProgramLookups(t *testing.T) {
	prog := &Program{Decls: []Decl{
		&HeaderDecl{Name: "h1"},
		&StructDecl{Name: "s1"},
		&ControlDecl{Name: "c1"},
		&ControlDecl{Name: "c2"},
		&ParserDecl{Name: "p1"},
	}}
	if prog.Header("h1") == nil || prog.Header("nope") != nil {
		t.Error("Header lookup")
	}
	if prog.Struct("s1") == nil || prog.Struct("h1") != nil {
		t.Error("Struct lookup")
	}
	if prog.Control("c2") == nil || prog.Parser("p1") == nil {
		t.Error("Control/Parser lookup")
	}
	if len(prog.Controls()) != 2 || len(prog.Parsers()) != 1 || len(prog.Headers()) != 1 {
		t.Error("collection accessors")
	}
}

func TestDeclNames(t *testing.T) {
	decls := []Decl{
		&HeaderDecl{Name: "h"},
		&StructDecl{Name: "s"},
		&TypedefDecl{Name: "t"},
		&ConstDecl{Name: "k"},
		&EnumDecl{Name: "e"},
		&ParserDecl{Name: "p"},
		&ControlDecl{Name: "c"},
		&ActionDecl{Name: "a"},
		&VarDecl{Name: "v"},
		&ExternDecl{Name: "x"},
	}
	want := []string{"h", "s", "t", "k", "e", "p", "c", "a", "v", "x"}
	for i, d := range decls {
		if d.DeclName() != want[i] {
			t.Errorf("decl %d name = %q, want %q", i, d.DeclName(), want[i])
		}
	}
}

func TestSprintExpressions(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{&BinaryExpr{Op: token.PLUS, X: ident("a"), Y: ident("b")}, "a + b"},
		{&UnaryExpr{Op: token.NOT, X: ident("f")}, "!f"},
		{&TernaryExpr{Cond: ident("c"), Then: ident("x"), Else: ident("y")}, "c ? x : y"},
		{&SliceExpr{X: ident("v"), Hi: &IntLit{Value: 15, Text: "15"}, Lo: &IntLit{Value: 8, Text: "8"}}, "v[15:8]"},
		{&RangeExpr{Lo: &IntLit{Value: 1, Text: "1"}, Hi: &IntLit{Value: 9, Text: "9"}}, "1 .. 9"},
		{&DontCare{}, "_"},
		{&MaskExpr{Value: ident("v"), Mask: ident("m")}, "v &&& m"},
		{&CastExpr{Type: &BitType{Width: &IntLit{Value: 8, Text: "8"}}, X: ident("x")}, "(bit<8>) x"},
		{&IndexExpr{X: ident("hs"), Index: &IntLit{Value: 2, Text: "2"}}, "hs[2]"},
		{&BoolLit{Value: true}, "true"},
		{&StringLit{Value: "rss"}, `"rss"`},
	}
	for _, c := range cases {
		if got := Sprint(c.e); got != c.want {
			t.Errorf("Sprint = %q, want %q", got, c.want)
		}
	}
}

func TestSprintIfElseChain(t *testing.T) {
	s := &IfStmt{
		Cond: ident("a"),
		Then: &BlockStmt{},
		Else: &IfStmt{Cond: ident("b"), Then: &BlockStmt{}, Else: &BlockStmt{}},
	}
	out := Sprint(s)
	if !strings.Contains(out, "else if (b)") {
		t.Errorf("chain rendering:\n%s", out)
	}
}

func TestHeaderFieldLookup(t *testing.T) {
	h := &HeaderDecl{Name: "h", Fields: []*Field{{Name: "a"}, {Name: "b"}}}
	if h.Field("b") == nil || h.Field("z") != nil {
		t.Error("field lookup")
	}
	s := &StructDecl{Name: "s", Fields: []*Field{{Name: "x"}}}
	if s.Field("x") == nil || s.Field("a") != nil {
		t.Error("struct field lookup")
	}
}

func TestParamDirString(t *testing.T) {
	if DirIn.String() != "in" || DirOut.String() != "out" || DirInOut.String() != "inout" || DirNone.String() != "" {
		t.Error("direction strings")
	}
}

func TestParserStateLookup(t *testing.T) {
	p := &ParserDecl{States: []*ParserState{{Name: "start"}, {Name: "parse_x"}}}
	if p.State("parse_x") == nil || p.State("nope") != nil {
		t.Error("state lookup")
	}
	c := &ControlDecl{Actions: []*ActionDecl{{Name: "drop"}}}
	if c.Action("drop") == nil || c.Action("fwd") != nil {
		t.Error("action lookup")
	}
}

// Parsers returns all parser declarations in order.
func (p *Program) Parsers() []*ParserDecl {
	var out []*ParserDecl
	for _, d := range p.Decls {
		if pr, ok := d.(*ParserDecl); ok {
			out = append(out, pr)
		}
	}
	return out
}

// Struct returns the struct declaration with the given name, or nil.
func (p *Program) Struct(name string) *StructDecl {
	for _, d := range p.Decls {
		if s, ok := d.(*StructDecl); ok && s.Name == name {
			return s
		}
	}
	return nil
}

// Action returns the named action, or nil.
func (d *ControlDecl) Action(name string) *ActionDecl {
	for _, a := range d.Actions {
		if a.Name == name {
			return a
		}
	}
	return nil
}
