package sema

import (
	"errors"
	"strings"
	"testing"

	"opendesc/internal/p4/ast"
	"opendesc/internal/p4/parser"
)

func check(t *testing.T, src string) *Info {
	t.Helper()
	prog, err := parser.Parse("t.p4", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	in, err := Check(prog)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	return in
}

func TestHeaderLayout(t *testing.T) {
	in := check(t, `
header cmpt_t {
    @semantic("rss")
    bit<32> rss_val;
    @semantic("vlan")
    bit<16> vlan_tag;
    bit<8> flags;
    bool valid;
}`)
	ct := in.Composite("cmpt_t")
	if ct == nil {
		t.Fatal("cmpt_t missing")
	}
	if !ct.IsHeader {
		t.Error("should be a header")
	}
	wantOffsets := []int{0, 32, 48, 56}
	wantWidths := []int{32, 16, 8, 1}
	for i, f := range ct.Fields {
		if f.OffsetBits != wantOffsets[i] {
			t.Errorf("field %s offset = %d, want %d", f.Name, f.OffsetBits, wantOffsets[i])
		}
		if f.Type.BitWidth() != wantWidths[i] {
			t.Errorf("field %s width = %d, want %d", f.Name, f.Type.BitWidth(), wantWidths[i])
		}
	}
	if ct.Bits != 57 {
		t.Errorf("total bits = %d, want 57", ct.Bits)
	}
	if got := ct.Semantics(); len(got) != 2 || got[0] != "rss" || got[1] != "vlan" {
		t.Errorf("semantics = %v", got)
	}
}

func TestConstFolding(t *testing.T) {
	in := check(t, `
const bit<16> BASE = 0x100;
const bit<16> NEXT = BASE + 8;
const bit<16> SHIFTED = BASE << 2;
const bool FLAG = NEXT == 0x108;
`)
	if v := in.Consts["NEXT"]; v.Uint != 0x108 {
		t.Errorf("NEXT = %v", v)
	}
	if v := in.Consts["SHIFTED"]; v.Uint != 0x400 {
		t.Errorf("SHIFTED = %v", v)
	}
	if v := in.Consts["FLAG"]; !v.IsBool || !v.Bool {
		t.Errorf("FLAG = %v", v)
	}
}

func TestWidthFromConst(t *testing.T) {
	in := check(t, `
const bit<8> W = 16;
header h { bit<W> a; bit<W*2> b; }
`)
	ct := in.Composite("h")
	if ct.Fields[0].Type.BitWidth() != 16 {
		t.Errorf("a width = %d", ct.Fields[0].Type.BitWidth())
	}
	if ct.Fields[1].Type.BitWidth() != 32 {
		t.Errorf("b width = %d", ct.Fields[1].Type.BitWidth())
	}
	if ct.Bits != 48 {
		t.Errorf("total = %d", ct.Bits)
	}
}

func TestTypedefResolution(t *testing.T) {
	in := check(t, `
typedef bit<48> mac_t;
header eth { mac_t dst; mac_t src; bit<16> et; }
`)
	ct := in.Composite("eth")
	if ct.Bits != 112 {
		t.Errorf("eth bits = %d, want 112", ct.Bits)
	}
}

func TestEnumValues(t *testing.T) {
	in := check(t, `
enum bit<2> fmt_t { FULL = 0, COMPRESSED = 1, MINI = 2 }
enum color_t { RED, GREEN, BLUE }
enum bit<4> gap_t { A = 1, B, C = 10, D }
`)
	et := in.Enum("fmt_t")
	if et.ByName["COMPRESSED"] != 1 || et.BitWidth() != 2 {
		t.Errorf("fmt_t = %+v", et)
	}
	if in.Enum("color_t").ByName["BLUE"] != 2 {
		t.Error("implicit enum numbering wrong")
	}
	g := in.Enum("gap_t")
	if g.ByName["B"] != 2 || g.ByName["D"] != 11 {
		t.Errorf("gap numbering: %v", g.ByName)
	}
}

func TestEnumMemberEval(t *testing.T) {
	in := check(t, `
enum bit<2> fmt_t { FULL = 0, COMPRESSED = 1 }
const bit<2> F = fmt_t.COMPRESSED;
`)
	if v := in.Consts["F"]; v.Uint != 1 {
		t.Errorf("F = %v", v)
	}
}

func TestDuplicateDetection(t *testing.T) {
	for _, src := range []string{
		"header a { bit<8> x; } header a { bit<8> y; }",
		"header a { bit<8> x; bit<8> x; }",
		"const bit<8> K = 1; const bit<8> K = 2;",
		"enum e { A, A }",
		"control C(in bit<8> x, in bit<8> x) { apply {} }",
	} {
		prog, err := parser.Parse("t.p4", src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Check(prog); err == nil {
			t.Errorf("Check(%q) should report duplicates", src)
		}
	}
}

func TestConstOverflowDetected(t *testing.T) {
	prog, _ := parser.Parse("t.p4", "const bit<4> K = 300;")
	if _, err := Check(prog); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Errorf("err = %v, want overflow", err)
	}
}

func TestVarbitMakesWidthUnfixed(t *testing.T) {
	in := check(t, "header h { bit<8> a; varbit<64> v; }")
	if in.Composite("h").Bits != -1 {
		t.Error("varbit header should have no fixed width")
	}
}

func TestBindControl(t *testing.T) {
	in := check(t, `
struct ctx_t { bit<1> use_rss; }
header desc_t { bit<64> addr; bit<16> len; }
struct meta_t { bit<32> rss; }
@bind("CTX", "ctx_t") @bind("DESC", "desc_t") @bind("META", "meta_t")
control CmptDeparser<CTX, DESC, META>(
    cmpt_out co, in CTX ctx, in DESC d, in META m) { apply { } }
`)
	inst, err := in.BindControl(in.Prog.Control("CmptDeparser"))
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	if ct, ok := inst.Param("ctx").Type.(*CompositeType); !ok || ct.Name != "ctx_t" {
		t.Errorf("ctx type = %v", inst.Param("ctx").Type)
	}
	if ct, ok := inst.Param("d").Type.(*CompositeType); !ok || !ct.IsHeader {
		t.Errorf("desc type = %v", inst.Param("d").Type)
	}
}

func TestBindViaAnnotations(t *testing.T) {
	in := check(t, `
struct ctx_t { bit<1> f; }
@bind("CTX", "ctx_t")
control C<CTX>(in CTX ctx) { apply { } }
`)
	inst, err := in.BindControl(in.Prog.Control("C"))
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	if inst.Param("ctx").Type.(*CompositeType).Name != "ctx_t" {
		t.Error("annotation binding failed")
	}
}

func TestBindMissingParam(t *testing.T) {
	in := check(t, `control C<CTX>(in CTX ctx) { apply { } }`)
	if _, err := in.BindControl(in.Prog.Control("C")); err == nil {
		t.Error("unbound type param should error")
	}
	in = check(t, `@bind("CTX", "nope") control C<CTX>(in CTX ctx) { apply { } }`)
	if _, err := in.BindControl(in.Prog.Control("C")); err == nil || !strings.Contains(err.Error(), `unknown type "nope"`) {
		t.Errorf("binding to unknown type: err = %v", err)
	}
}

// parseExpr extracts the value expression of a scratch const declaration so
// tests can evaluate arbitrary expressions against a given Info.
func parseExpr(t *testing.T, src string) ast.Expr {
	t.Helper()
	prog, err := parser.Parse("expr.p4", "const bool X = "+src+";")
	if err != nil {
		t.Fatalf("parse expr %q: %v", src, err)
	}
	return prog.Decls[0].(*ast.ConstDecl).Value
}

func TestEvalWithEnv(t *testing.T) {
	in := check(t, "const bit<8> K = 3;")
	e := parseExpr(t, "ctx.use_rss == 1 && K == 3")
	env := MapEnv{"ctx.use_rss": UintValue(1, 1)}
	v, err := in.Eval(e, env)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if !v.Truthy() {
		t.Errorf("got %v, want true", v)
	}
	env["ctx.use_rss"] = UintValue(0, 1)
	v, _ = in.Eval(e, env)
	if v.Truthy() {
		t.Error("short-circuit AND with false lhs must be false")
	}
}

func TestEvalUnknownName(t *testing.T) {
	in := check(t, "")
	for src, text := range map[string]string{
		"mystery == 1":     `unknown name: "mystery"`,
		"ctx.use_rss != 0": `unknown name: "ctx.use_rss"`,
	} {
		_, err := in.Eval(parseExpr(t, src), MapEnv{})
		if !errors.Is(err, ErrUnknown) {
			t.Errorf("%s: err = %v, want ErrUnknown", src, err)
		}
		// The text is formatted only on demand; it must read as it did when
		// it was built eagerly.
		if err == nil || err.Error() != text {
			t.Errorf("%s: err = %v, want %s", src, err, text)
		}
	}
}

func TestEvalBitSlice(t *testing.T) {
	in := check(t, "const bit<16> K = 0xABCD;")
	v, err := in.Eval(parseExpr(t, "K[15:8] == 0xAB"), nil)
	if err != nil || !v.Truthy() {
		t.Errorf("slice eval: %v %v", v, err)
	}
}

func TestEvalConcat(t *testing.T) {
	in := check(t, "")
	v, err := in.Eval(parseExpr(t, "8w0xAB ++ 8w0xCD == 16w0xABCD"), nil)
	if err != nil || !v.Truthy() {
		t.Errorf("concat eval: %v %v", v, err)
	}
}

func TestEvalDivByZero(t *testing.T) {
	in := check(t, "")
	if _, err := in.Eval(parseExpr(t, "1 / 0"), nil); err == nil {
		t.Error("division by zero should error")
	}
}

func TestEvalCast(t *testing.T) {
	in := check(t, "")
	v, err := in.Eval(parseExpr(t, "(bit<4>) 0xFF == 0xF"), nil)
	if err != nil || !v.Truthy() {
		t.Errorf("cast eval: %v %v", v, err)
	}
}

func TestFreeVars(t *testing.T) {
	in := check(t, `
const bit<8> K = 1;
enum bit<2> fmt_t { FULL = 0 }
`)
	e := parseExpr(t, "ctx.use_rss == K && q.size > 8 || fmt_t.FULL == x")
	got := in.FreeVars(e)
	want := map[string]bool{"ctx.use_rss": true, "q.size": true, "x": true}
	if len(got) != len(want) {
		t.Fatalf("free vars = %v", got)
	}
	for _, v := range got {
		if !want[v] {
			t.Errorf("unexpected free var %q", v)
		}
	}
}

func TestTernaryEval(t *testing.T) {
	in := check(t, "")
	v, err := in.Eval(parseExpr(t, "1 == 1 ? 7 : 9"), nil)
	if err != nil || v.Uint != 7 {
		t.Errorf("ternary = %v %v", v, err)
	}
}

// FreeVars collects the dotted paths of identifiers and member chains that
// are not resolvable as constants or enum members — i.e. the runtime inputs
// an expression depends on (context fields, descriptor fields).
func (in *Info) FreeVars(e ast.Expr) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if p != "" && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Ident:
			if _, ok := in.Consts[e.Name]; !ok {
				add(e.Name)
			}
		case *ast.MemberExpr:
			if id, ok := e.X.(*ast.Ident); ok {
				if et := in.Enum(id.Name); et != nil {
					return // enum member, constant
				}
			}
			if p := e.Path(); p != "" {
				add(p)
				return
			}
			walk(e.X)
		case *ast.ParenExpr:
			walk(e.X)
		case *ast.UnaryExpr:
			walk(e.X)
		case *ast.BinaryExpr:
			walk(e.X)
			walk(e.Y)
		case *ast.TernaryExpr:
			walk(e.Cond)
			walk(e.Then)
			walk(e.Else)
		case *ast.CastExpr:
			walk(e.X)
		case *ast.SliceExpr:
			walk(e.X)
			walk(e.Hi)
			walk(e.Lo)
		case *ast.IndexExpr:
			walk(e.X)
			walk(e.Index)
		case *ast.CallExpr:
			for _, a := range e.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return out
}
