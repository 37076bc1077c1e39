package codegen

import (
	goast "go/ast"
	goimporter "go/importer"
	goparser "go/parser"
	gotoken "go/token"
	gotypes "go/types"
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/semantics"
)

// typecheckGo parses and type-checks a generated Go source file with the
// real Go toolchain packages — the generated accessors must be valid,
// compilable Go, not merely plausible-looking text.
func typecheckGo(t *testing.T, src string) {
	t.Helper()
	fset := gotoken.NewFileSet()
	file, err := goparser.ParseFile(fset, "generated.go", src, 0)
	if err != nil {
		t.Fatalf("generated source does not parse: %v\n%s", err, src)
	}
	conf := gotypes.Config{Importer: goimporter.Default()}
	if _, err := conf.Check("generated", fset, []*goast.File{file}, nil); err != nil {
		t.Fatalf("generated source does not type-check: %v\n%s", err, src)
	}
}

// TestGeneratedGoTypechecks runs every bundled NIC through representative
// intents and type-checks the accessor source.
func TestGeneratedGoTypechecks(t *testing.T) {
	intents := [][]semantics.Name{
		{semantics.RSS},
		{semantics.RSS, semantics.VLAN, semantics.PktLen, semantics.ErrorFlags},
		{semantics.RSS, semantics.IPChecksum},                   // forces a software shim
		{semantics.PType, semantics.PktLen},                     // 13-bit unaligned on ixgbe
		{semantics.KVKey, semantics.RSS, semantics.PktLen},      // 64-bit fields on qdma
		{semantics.FlowID, semantics.Mark, semantics.Timestamp}, // 24-bit fields on mlx5
	}
	for _, m := range nic.All() {
		for _, sems := range intents {
			intent, err := core.IntentFromSemantics("tc", semantics.Default, sems...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Compile(intent, core.CompileOptions{})
			if err != nil {
				continue // unsatisfiable on this NIC: nothing to generate
			}
			typecheckGo(t, GenGo(res, "acc"))
		}
	}
}
