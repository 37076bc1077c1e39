package diffverify

import (
	"fmt"
	"strings"

	"opendesc/internal/core"
	"opendesc/internal/p4/interp"
	"opendesc/internal/p4/parser"
	"opendesc/internal/p4/sema"
)

// pathInterp is view C: the real P4 interpreter re-extracting a completion
// record through a parser synthesized from the path's static layout. Each
// layout position becomes one indexed header field (positions, not names,
// because duplicate emits repeat a source field at distinct offsets), so the
// interpreter's extraction cursor independently re-derives every offset.
type pathInterp struct {
	parser *interp.Parser
	// keys[i] is the extracted-value key of layout position i.
	keys []string
}

// newPathInterp synthesizes and binds the per-path parser program:
//
//	header dv_path_h { bit<W0> f0; bit<W1> f1; ... }
//	parser DVPathParser(desc_in din, out dv_path_h hdr) {
//	    state start { din.extract(hdr); transition accept; }
//	}
//
// and runs it through the production frontend (parse, sema, bind), so the
// comparison exercises the same code paths real descriptions do.
func newPathInterp(name string, p *core.Path) (*pathInterp, error) {
	var sb strings.Builder
	sb.WriteString("header dv_path_h {")
	for i, f := range p.Fields {
		fmt.Fprintf(&sb, " bit<%d> f%d;", f.WidthBits, i)
	}
	sb.WriteString(" }\n")
	sb.WriteString("parser DVPathParser(desc_in din, out dv_path_h hdr) {\n")
	sb.WriteString("    state start { din.extract(hdr); transition accept; }\n")
	sb.WriteString("}\n")
	prog, err := parser.Parse(fmt.Sprintf("%s_path%d.p4", name, p.ID), sb.String())
	if err != nil {
		return nil, fmt.Errorf("synthesized parser: %v", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("synthesized parser sema: %v", err)
	}
	inst, err := info.BindParser(prog.Parser("DVPathParser"))
	if err != nil {
		return nil, fmt.Errorf("synthesized parser bind: %v", err)
	}
	ip, err := interp.New(info, inst, "")
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(p.Fields))
	for i := range keys {
		keys[i] = fmt.Sprintf("hdr.f%d", i)
	}
	return &pathInterp{parser: ip, keys: keys}, nil
}
