package parser

import (
	"strings"
	"testing"

	"opendesc/internal/p4/ast"
	"opendesc/internal/p4/token"
)

const e1000Deparser = `
struct e1000_rx_ctx_t {
    bit<1> use_rss;
}

header rss_cmpt_t {
    @semantic("rss")
    bit<32> rss_val;
}

header csum_cmpt_t {
    @semantic("ip_id")
    bit<16> ip_id;
    @semantic("ip_checksum")
    bit<16> csum;
}

control CmptDeparser<C2H_CTX_T, DESC_T, META_T>(
    cmpt_out cmpt_out,
    in C2H_CTX_T ctx,
    in DESC_T desc_hdr,
    in META_T pipe_meta)
{
    apply {
        if (ctx.use_rss == 1) {
            cmpt_out.emit(pipe_meta.rss);
        } else {
            cmpt_out.emit(pipe_meta.ip_id);
            cmpt_out.emit(pipe_meta.csum);
        }
    }
}
`

func TestParseE1000Deparser(t *testing.T) {
	prog, err := Parse("e1000.p4", e1000Deparser)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(prog.Decls) != 4 {
		t.Fatalf("got %d decls, want 4", len(prog.Decls))
	}
	ctl := prog.Control("CmptDeparser")
	if ctl == nil {
		t.Fatal("CmptDeparser not found")
	}
	if len(ctl.TypeParams) != 3 {
		t.Errorf("type params = %d, want 3", len(ctl.TypeParams))
	}
	if len(ctl.Params) != 4 {
		t.Errorf("params = %d, want 4", len(ctl.Params))
	}
	if ctl.Params[1].Dir != ast.DirIn {
		t.Errorf("ctx dir = %v, want in", ctl.Params[1].Dir)
	}
	if ctl.Apply == nil || len(ctl.Apply.Stmts) != 1 {
		t.Fatal("apply block missing or wrong arity")
	}
	ifs, ok := ctl.Apply.Stmts[0].(*ast.IfStmt)
	if !ok {
		t.Fatalf("apply stmt is %T, want IfStmt", ctl.Apply.Stmts[0])
	}
	if ifs.Else == nil {
		t.Error("else branch missing")
	}
	cond, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.EQ {
		t.Fatalf("condition = %s", ast.Sprint(ifs.Cond))
	}
	if path := cond.X.(*ast.MemberExpr).Path(); path != "ctx.use_rss" {
		t.Errorf("condition path = %q", path)
	}
}

func TestParseHeaderAnnotations(t *testing.T) {
	prog, err := Parse("t.p4", `
header intent_t {
    @semantic("rss") @cost(12)
    bit<32> rss_val;
    @semantic("vlan")
    bit<16> vlan_tag;
    bit<8> plain;
}`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	h := prog.Header("intent_t")
	if h == nil {
		t.Fatal("header not found")
	}
	if len(h.Fields) != 3 {
		t.Fatalf("fields = %d", len(h.Fields))
	}
	sem, ok := h.Fields[0].Semantic()
	if !ok || sem != "rss" {
		t.Errorf("field 0 semantic = %q, %v", sem, ok)
	}
	if c, ok := h.Fields[0].Annots.Get("cost").IntArg(0); !ok || c != 12 {
		t.Errorf("cost = %d, %v", c, ok)
	}
	if _, ok := h.Fields[2].Semantic(); ok {
		t.Error("plain field should have no semantic")
	}
}

func TestParseParserStates(t *testing.T) {
	prog, err := Parse("t.p4", `
parser DescParser<H2C_CTX_T, DESC_T>(
    desc_in desc_in,
    in H2C_CTX_T h2c_ctx,
    out DESC_T desc_hdr)
{
    state start {
        transition select(h2c_ctx.desc_size) {
            8: parse_small;
            16: parse_large;
            0x20 .. 0x40: parse_huge;
            default: reject;
        }
    }
    state parse_small {
        desc_in.extract(desc_hdr.base);
        transition accept;
    }
    state parse_large {
        desc_in.extract(desc_hdr.base);
        desc_in.extract(desc_hdr.ext);
        transition accept;
    }
    state parse_huge {
        transition accept;
    }
}`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pr := prog.Parser("DescParser")
	if pr == nil {
		t.Fatal("parser not found")
	}
	if len(pr.States) != 4 {
		t.Fatalf("states = %d, want 4", len(pr.States))
	}
	st := pr.State("start")
	sel, ok := st.Transition.(*ast.SelectTransition)
	if !ok {
		t.Fatalf("start transition is %T", st.Transition)
	}
	if len(sel.Cases) != 4 {
		t.Fatalf("select cases = %d, want 4", len(sel.Cases))
	}
	if !sel.Cases[3].IsDefault {
		t.Error("last case should be default")
	}
	if _, ok := sel.Cases[2].Keys[0].(*ast.RangeExpr); !ok {
		t.Errorf("case 2 key is %T, want RangeExpr", sel.Cases[2].Keys[0])
	}
	small := pr.State("parse_small")
	if len(small.Stmts) != 1 {
		t.Fatalf("parse_small stmts = %d", len(small.Stmts))
	}
	call, ok := small.Stmts[0].(*ast.CallStmt)
	if !ok {
		t.Fatalf("stmt is %T", small.Stmts[0])
	}
	if _, name := call.Call.Callee(); name != "extract" {
		t.Errorf("callee = %q", name)
	}
}

func TestParseConstTypedefEnum(t *testing.T) {
	prog, err := Parse("t.p4", `
const bit<16> ETHERTYPE_VLAN = 0x8100;
typedef bit<48> mac_addr_t;
enum bit<2> cqe_format_t {
    FULL = 0,
    COMPRESSED = 1,
    MINI = 2
}
enum color_t { RED, GREEN, BLUE }
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(prog.Decls) != 4 {
		t.Fatalf("decls = %d", len(prog.Decls))
	}
	e := prog.Decls[2].(*ast.EnumDecl)
	if e.Base == nil || len(e.Members) != 3 {
		t.Errorf("serializable enum malformed: %+v", e)
	}
	plain := prog.Decls[3].(*ast.EnumDecl)
	if plain.Base != nil || len(plain.Members) != 3 {
		t.Errorf("plain enum malformed: %+v", plain)
	}
	if plain.Members[1].Value != nil {
		t.Error("plain enum member should have no explicit value")
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []struct {
		src  string
		want string // canonical printing
	}{
		{"a + b * c", "a + b * c"},
		{"(a + b) * c", "(a + b) * c"},
		{"a == 1 && b != 2", "a == 1 && b != 2"},
		{"x[15:8]", "x[15:8]"},
		{"~a & 0xFF", "~a & 0xFF"},
		{"cond ? x : y", "cond ? x : y"},
		{"(bit<8>) v", "(bit<8>) v"},
		{"a ++ b", "a ++ b"},
		{"f(x, y.z)", "f(x, y.z)"},
		{"8w0xFF", "8w0xFF"},
	}
	for _, c := range cases {
		prog, err := Parse("t.p4", "const bit<64> K = "+c.src+";")
		if err != nil {
			t.Errorf("parse %q: %v", c.src, err)
			continue
		}
		cd := prog.Decls[0].(*ast.ConstDecl)
		if got := ast.Sprint(cd.Value); got != c.want {
			t.Errorf("roundtrip %q = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestOperatorPrecedence(t *testing.T) {
	prog, err := Parse("t.p4", "const bit<64> K = 1 | 2 ^ 3 & 4 == 5;")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	// Expect 1 | (2 ^ (3 & (4 == 5))).
	top := prog.Decls[0].(*ast.ConstDecl).Value.(*ast.BinaryExpr)
	if top.Op != token.PIPE {
		t.Fatalf("top op = %s, want |", top.Op)
	}
	xor := top.Y.(*ast.BinaryExpr)
	if xor.Op != token.CARET {
		t.Fatalf("second op = %s, want ^", xor.Op)
	}
	and := xor.Y.(*ast.BinaryExpr)
	if and.Op != token.AMP {
		t.Fatalf("third op = %s, want &", and.Op)
	}
	if eq := and.Y.(*ast.BinaryExpr); eq.Op != token.EQ {
		t.Fatalf("innermost op = %s, want ==", eq.Op)
	}
}

func TestParseSwitch(t *testing.T) {
	prog, err := Parse("t.p4", `
control C(in bit<8> x) {
    apply {
        switch (x) {
            1: { }
            2, 3: { }
            default: { }
        }
    }
}`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ctl := prog.Control("C")
	sw := ctl.Apply.Stmts[0].(*ast.SwitchStmt)
	if len(sw.Cases) != 3 {
		t.Fatalf("cases = %d", len(sw.Cases))
	}
	if len(sw.Cases[1].Keys) != 2 {
		t.Errorf("multi-key case: keys = %d", len(sw.Cases[1].Keys))
	}
	if !sw.Cases[2].IsDefault {
		t.Error("default case not detected")
	}
}

func TestParseLocalsAndActions(t *testing.T) {
	prog, err := Parse("t.p4", `
control C(inout bit<32> x) {
    bit<32> tmp = 0;
    const bit<8> LIMIT = 10;
    action bump(bit<32> d) {
        x = x + d;
    }
    apply {
        tmp = x;
        bump(tmp);
    }
}`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ctl := prog.Control("C")
	if len(ctl.Locals) != 2 {
		t.Errorf("locals = %d, want 2", len(ctl.Locals))
	}
	if len(ctl.Actions) != 1 || ctl.Actions[0].Name != "bump" {
		t.Errorf("actions = %v", ctl.Actions)
	}
	if len(ctl.Apply.Stmts) != 2 {
		t.Errorf("apply stmts = %d", len(ctl.Apply.Stmts))
	}
}

func TestErrorRecovery(t *testing.T) {
	prog, err := Parse("t.p4", `
header broken { bit<> x; }
header good { bit<8> y; }
`)
	if err == nil {
		t.Fatal("expected parse errors")
	}
	if prog.Header("good") == nil {
		t.Error("parser did not recover to parse the second header")
	}
}

func TestMultipleErrorsReported(t *testing.T) {
	_, err := Parse("t.p4", "header a { $ } header b { $ }")
	if err == nil {
		t.Fatal("expected errors")
	}
	el, ok := err.(ErrorList)
	if !ok {
		t.Fatalf("err is %T", err)
	}
	if len(el) < 2 {
		t.Errorf("got %d errors, want >= 2: %v", len(el), el)
	}
}

func TestWidthLiteralOverflowRejected(t *testing.T) {
	_, err := Parse("t.p4", "const bit<8> K = 4w255;")
	if err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Errorf("err = %v, want width overflow", err)
	}
}

func TestAnnotationOnControl(t *testing.T) {
	prog, err := Parse("t.p4", `
@bind("DESC_T", "my_desc_t")
@nic("e1000")
control C<DESC_T>(in DESC_T d) { apply { } }
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ctl := prog.Control("C")
	if !ctl.Annots.Has("bind") || !ctl.Annots.Has("nic") {
		t.Fatalf("annotations = %v", ctl.Annots)
	}
	if v, _ := ctl.Annots.Get("nic").StringArg(0); v != "e1000" {
		t.Errorf("nic arg = %q", v)
	}
}

func TestDontCareInSelect(t *testing.T) {
	prog, err := Parse("t.p4", `
parser P(in bit<8> x) {
    state start {
        transition select(x) {
            _: accept;
        }
    }
}`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sel := prog.Parser("P").State("start").Transition.(*ast.SelectTransition)
	if _, ok := sel.Cases[0].Keys[0].(*ast.DontCare); !ok {
		t.Errorf("key is %T, want DontCare", sel.Cases[0].Keys[0])
	}
}

func TestTupleSelectKeys(t *testing.T) {
	prog, err := Parse("t.p4", `
parser P(in bit<8> x, in bit<8> y) {
    state start {
        transition select(x, y) {
            (1, 2): accept;
            (_, 3): accept;
        }
    }
}`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sel := prog.Parser("P").State("start").Transition.(*ast.SelectTransition)
	if len(sel.Exprs) != 2 {
		t.Fatalf("select exprs = %d", len(sel.Exprs))
	}
	if len(sel.Cases[0].Keys) != 2 {
		t.Fatalf("tuple keys = %d", len(sel.Cases[0].Keys))
	}
	if _, ok := sel.Cases[1].Keys[0].(*ast.DontCare); !ok {
		t.Error("tuple _ not parsed as DontCare")
	}
}

func TestPreprocessorLinesIgnored(t *testing.T) {
	prog, err := Parse("t.p4", "#include <core.p4>\n#define FOO 1\nheader h { bit<8> a; }")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if prog.Header("h") == nil {
		t.Error("header after preprocessor lines not parsed")
	}
}

func TestProgramPrintRoundtrip(t *testing.T) {
	prog, err := Parse("e1000.p4", e1000Deparser)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	printed := ast.SprintProgram(prog)
	prog2, err := Parse("printed.p4", printed)
	if err != nil {
		t.Fatalf("reparse printed output: %v\n%s", err, printed)
	}
	if ast.SprintProgram(prog2) != printed {
		t.Error("printing is not a fixed point")
	}
}

// parseErrors parses src, which must be rejected, and returns its diagnostics.
func parseErrors(t *testing.T, src string) ErrorList {
	t.Helper()
	_, err := Parse("t.p4", src)
	el, ok := err.(ErrorList)
	if !ok {
		t.Fatalf("Parse(%q): err = %v (%T), want an ErrorList", src, err, err)
	}
	return el
}

// A lexical diagnostic is a parse error: before this was pinned Parse never
// read the lexer's list, and the first source below — an unterminated block
// comment swallowing the rest of a description — parsed clean to one
// declaration.
func TestLexicalDiagnosticsSurface(t *testing.T) {
	for _, c := range []struct{ src, first string }{
		{"header h { bit<8> a; } /* never closed\nstruct s { bit<8> b; }", "t.p4:1:24: unterminated block comment"},
		{`@semantic("r\qss") header h { bit<8> a; }`, `t.p4:1:14: unknown escape sequence \q`},
		{"@semantic(\"rss\nheader h { bit<8> a; }", "t.p4:1:11: unterminated string literal"},
		{"const bit<8> K = 0x;", "t.p4:1:18: malformed base-x integer literal"},
		{"const bit<8> K = 8w;", "t.p4:1:18: width prefix not followed by digits"},
		{"const bit<8> K = 8w0b;", "t.p4:1:18: malformed width-prefixed integer literal"},
		{"header h { bit<8> a; } `", "t.p4:1:24: illegal character '`'"},
	} {
		if el := parseErrors(t, c.src); el[0].Error() != c.first {
			t.Errorf("Parse(%q): first error %q, want %q (all: %v)", c.src, el[0], c.first, []*Error(el))
		}
	}
	// Both lists, merged in source order; at one offset the lexical cause
	// comes before the syntax error it provokes.
	el := parseErrors(t, "header a { $ }\nheader b { bit<8> x; }\n/* open")
	var got []string
	for _, e := range el {
		got = append(got, e.Error())
	}
	want := []string{
		"t.p4:1:12: illegal character '$'",
		`t.p4:1:12: expected type, found ILLEGAL("$")`,
		"t.p4:3:1: unterminated block comment",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("merged diagnostics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

const listsSource = `
header h1 { @semantic("a") @cost(1, 2) bit<8> a; @semantic("b") bit<8> b; }
struct s1 { bit<1> x; bit<2> y; bit<3> z; }
header h2 { bit<8> c; }
parser P(desc_in d, out h1 o) {
    state start { d.extract(o); d.advance(8, 16); transition select(o.a, o.b) { (1, 2): accept; _: reject; } }
}
control C(cmpt_out co, in s1 ctx, in h1 m) {
    apply {
        if (ctx.x == 1) { co.emit(m.a); log(1, 2, 3); { co.emit(m.b); } } else { co.emit(m); }
        switch (ctx.y) { 0: { co.emit(m.a); co.emit(m.b); } default: { } }
    }
}
`

// scratchLists visits every list the parser builds on a scratch stack
// (fields, annotations, arguments, statements, declarations).
func scratchLists(prog *ast.Program, visit func(name string, n, c int, poison func())) {
	exprs := func(name string, l []ast.Expr) {
		visit(name, len(l), cap(l), func() { _ = append(l, &ast.Ident{Name: "POISON"}) })
	}
	annots := func(as ast.Annotations) {
		visit("annots", len(as), cap(as), func() { _ = append(as, &ast.Annotation{Name: "POISON"}) })
		for _, a := range as {
			exprs("annotation args", a.Args)
		}
	}
	fields := func(fs []*ast.Field) {
		visit("fields", len(fs), cap(fs), func() { _ = append(fs, &ast.Field{Name: "POISON", Type: &ast.BoolType{}}) })
		for _, f := range fs {
			annots(f.Annots)
		}
	}
	var stmts func(ss []ast.Stmt)
	stmts = func(ss []ast.Stmt) {
		visit("stmts", len(ss), cap(ss), func() { _ = append(ss, &ast.ReturnStmt{}) })
		for _, s := range ss {
			switch s := s.(type) {
			case *ast.BlockStmt:
				stmts(s.Stmts)
			case *ast.IfStmt:
				stmts(s.Then.Stmts)
				stmts(s.Else.(*ast.BlockStmt).Stmts)
			case *ast.SwitchStmt:
				for _, c := range s.Cases {
					stmts(c.Body.Stmts)
				}
			case *ast.CallStmt:
				exprs("call args", s.Call.Args)
			}
		}
	}
	visit("decls", len(prog.Decls), cap(prog.Decls), func() { _ = append(prog.Decls, &ast.HeaderDecl{Name: "POISON"}) })
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ast.HeaderDecl:
			fields(d.Fields)
		case *ast.StructDecl:
			fields(d.Fields)
		case *ast.ParserDecl:
			stmts(d.States[0].Stmts)
			exprs("select exprs", d.States[0].Transition.(*ast.SelectTransition).Exprs)
		case *ast.ControlDecl:
			stmts(d.Apply.Stmts)
		}
	}
}

// Every list leaves its scratch stack as a slice of its own at exactly its
// length: appending to one in place — what an AST editor may do — reallocates
// and cannot write into a neighbour that was built on the same stack.
func TestScratchListsDoNotAlias(t *testing.T) {
	prog, err := Parse("lists.p4", listsSource)
	if err != nil {
		t.Fatal(err)
	}
	before := ast.SprintProgram(prog)
	lists := 0
	scratchLists(prog, func(name string, n, c int, poison func()) {
		lists++
		if c != n {
			t.Errorf("%s: len %d cap %d, want an exact-length list", name, n, c)
		}
		poison()
	})
	if lists < 25 {
		t.Fatalf("visited only %d lists", lists)
	}
	if after := ast.SprintProgram(prog); after != before {
		t.Errorf("an in-place append reached a sibling list:\n%s\nwas:\n%s", after, before)
	}
}

// A hard error unwinds out of however many open lists it interrupts; what they
// had pushed is dropped, and the next declaration's lists start clean.
func TestBailoutMidListLeavesStacksUsable(t *testing.T) {
	prog, err := Parse("t.p4", `
header bad { @semantic("a") bit<8> a; @cost(1, bit<8> b; }
control Bad(cmpt_out co) { apply { co.emit(1); if (x) { f(1, 2, ; } } }
header good { @cost(7) bit<8> x; bit<8> y; }
control Good(cmpt_out co) { apply { g(3); } }
`)
	if err == nil {
		t.Fatal("expected parse errors")
	}
	want := "header good {\n    @cost(7) bit<8> x;\n    bit<8> y;\n}\n\n" +
		"control Good(cmpt_out co) {\n    apply {\n        g(3);\n    }\n}\n"
	if got := ast.SprintProgram(prog); got != want {
		t.Errorf("after two bailouts the program prints:\n%s\nwant:\n%s", got, want)
	}
}
