package core

import (
	"fmt"
	"testing"

	"opendesc/internal/p4/parser"
	"opendesc/internal/p4/sema"
)

// typedGraph builds the deparser graph of typedDesc with stmt as its second
// statement.
func typedGraph(t *testing.T, stmt string) *Graph {
	t.Helper()
	prog, err := parser.Parse("ty.p4", fmt.Sprintf(typedDesc, stmt))
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildDeparserGraph(info)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLeafTable: the leaf table lists every leaf of the composite
// parameters in parameter and declaration order, marks the context
// parameter's (found by position) and its bool, and each layout field
// carries its leaf.
func TestLeafTable(t *testing.T) {
	g := typedGraph(t, "cmpt_out.emit(ctx);")
	want := []Leaf{
		{Name: "ctx.on", Decl: "ty_ctx_t", Width: 1, Bool: true, Context: true},
		{Name: "ctx.mode", Decl: "ty_ctx_t", Width: 2, Context: true},
		{Name: "ctx.rsvd", Decl: "ty_ctx_t", Width: 5, Context: true},
		{Name: "pipe_meta.len", Decl: "ty_meta_t", Semantic: "pkt_len", Width: 16},
	}
	if fmt.Sprint(g.Leaves) != fmt.Sprint(want) {
		t.Fatalf("leaves %+v\nwant   %+v", g.Leaves, want)
	}
	for i, l := range want {
		if g.Leaf(l.Name) != i {
			t.Errorf("Leaf(%s) = %d, want %d", l.Name, g.Leaf(l.Name), i)
		}
	}
	if g.Leaf("ctx") != -1 || g.Leaf("ctx.nope") != -1 {
		t.Error("a name that is no leaf has an index")
	}
	paths, err := EnumeratePaths(g, EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range paths[0].Fields {
		if l := g.Leaves[f.Leaf]; l.Name != f.Name || l.Width != f.WidthBits || l.Semantic != f.Semantic {
			t.Errorf("field %s carries leaf %+v", f.Name, l)
		}
	}
}

// TestPrunesValuesWiderThanTheField: an edge whose equality needs a value
// the two-bit register cannot hold is no path; one it can hold is. So is an
// edge that excludes every value the register can hold — a default past
// four cases, a chain of four disequalities, a bool neither true nor false —
// and one that leaves a value is a path.
func TestPrunesValuesWiderThanTheField(t *testing.T) {
	const emit = "{ cmpt_out.emit(pipe_meta.len); }"
	for stmt, want := range map[string]int{
		"switch (ctx.mode) { 0: " + emit + " 1: " + emit + " 2: " + emit + " 3: " + emit + " default: " + emit + " }": 4,
		"switch (ctx.mode) { 0: " + emit + " 1, 3: " + emit + " 2, 7: " + emit + " default: " + emit + " }":           3,
		"switch (ctx.mode) { 0: " + emit + " 1: " + emit + " 2: " + emit + " default: " + emit + " }":                 4,
		"switch (ctx.mode) { 0: " + emit + " 1: " + emit + " 2: " + emit + " 4: " + emit + " default: " + emit + " }": 4,
		"if (ctx.mode != 0) { if (ctx.mode != 1) { if (ctx.mode != 2) { if (ctx.mode != 3) " + emit + " } } }":        4,
		"if (ctx.mode != 0) { if (ctx.mode != 1) { if (ctx.mode != 2) { if (ctx.mode != 2) " + emit + " } } }":        4,
		"if (ctx.mode != 0) { if (ctx.mode != 1) { if (ctx.mode != 2) " + emit + " } }":                               4,
		"if (ctx.on != true) { if (ctx.on != false) " + emit + " }":                                                   2,
		"if (ctx.on != true) { if (ctx.mode != 0) " + emit + " }":                                                     3,
		"if (ctx.mode == 3) " + emit:               2,
		"if (ctx.mode == 4) " + emit:               1,
		"if (ctx.mode != 4) " + emit:               1,
		"switch (ctx.mode) { 3: " + emit + " }":    2,
		"switch (ctx.mode) { 5: " + emit + " }":    1,
		"switch (ctx.mode) { 4, 7: " + emit + " }": 1,
		"switch (ctx.mode) { 4, 1: " + emit + " }": 2,
	} {
		paths, err := EnumeratePaths(typedGraph(t, stmt), EnumerateOptions{})
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if len(paths) != want {
			t.Errorf("%s: %d paths, want %d", stmt, len(paths), want)
		}
	}
}
