package core

import (
	"strconv"
	"strings"
	"testing"

	"opendesc/internal/p4/parser"
	"opendesc/internal/p4/sema"
)

// TestResolveEmit pins what an emit argument resolves to and, for every way
// it can fail to, the diagnostic: resolveEmit names the argument from its
// dotted path instead of the printer, and walks a member chain level by level
// without materialising it, and neither may change a name or a message.
func TestResolveEmit(t *testing.T) {
	const desc = `
struct ctx_t { bit<1> f; }
header d_t { bit<8> x; }
header in_t { @semantic("vlan") bit<16> v; bit<16> pad; }
struct meta_t { @semantic("rss") bit<32> h; in_t inner; varbit<32> vb; }
@bind("CTX","ctx_t") @bind("DESC","d_t") @bind("META","meta_t")
control CmptDeparser<CTX,DESC,META>(cmpt_out co, in CTX ctx, in DESC d, in META m, in bit<8> b) {
    apply { co.emit(ARG); }
}`
	for _, c := range []struct{ arg, want string }{
		{"m.h", "m.h: m.h/rss/32"},
		{"(m.inner.v)", "m.inner.v: m.inner.v/vlan/16"},
		{"m.inner", "m.inner: m.inner.v/vlan/16 m.inner.pad//16"},
		{"d", "d: d.x//8"},
		{"nope", `emit of unknown name "nope"`},
		{"b", `emit of non-composite parameter "b" (bit<8>)`},
		{"nope.h", `emit of unknown parameter "nope"`},
		{"ctx.f.g", `ctx.f is not a composite (cannot select "g")`},
		{"m.inner.zz", `in_t has no field "zz"`},
		{"m.zz.v", `meta_t has no field "zz"`},
		{"m.vb", "field m.vb has no fixed width"},
		{"f(1).x", "emit argument f(1).x is not rooted at a parameter"},
		{"(m).h", "emit argument (m).h is not rooted at a parameter"},
		{"1", "unsupported emit argument *ast.IntLit"},
	} {
		prog, err := parser.Parse("emit.p4", strings.Replace(desc, "ARG", c.arg, 1))
		if err != nil {
			t.Fatal(err)
		}
		info, err := sema.Check(prog)
		if err != nil {
			t.Fatal(err)
		}
		got := ""
		if g, err := BuildDeparserGraph(info); err != nil {
			got = strings.TrimPrefix(err.Error(), "emit.p4:8:13: ")
		} else {
			for _, n := range g.Nodes {
				if n.Kind != NodeEmit {
					continue
				}
				got = n.Emit.Source + ":"
				for _, f := range n.Emit.Fields {
					got += " " + f.Name + "/" + string(f.Semantic) + "/" + strconv.Itoa(f.WidthBits)
				}
				if cap(n.Emit.Fields) != len(n.Emit.Fields) {
					t.Errorf("emit(%s): %d fields in a slice of capacity %d", c.arg, len(n.Emit.Fields), cap(n.Emit.Fields))
				}
			}
		}
		if got != c.want {
			t.Errorf("emit(%s): got %q, want %q", c.arg, got, c.want)
		}
	}
}
