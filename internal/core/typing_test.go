package core

import (
	"fmt"
	"strings"
	"testing"

	"opendesc/internal/p4/parser"
	"opendesc/internal/p4/sema"
)

// typedDesc is a deparser over a context with a bool and a two-bit
// register; its apply block is one statement, on line 9.
const typedDesc = `
struct ty_ctx_t { bool on; bit<2> mode; bit<5> rsvd; }
struct ty_meta_t { @semantic("pkt_len") bit<16> len; }
@bind("CTX_T", "ty_ctx_t")
@bind("META_T", "ty_meta_t")
control CmptDeparser<CTX_T, META_T>(cmpt_out cmpt_out, in CTX_T ctx, in META_T pipe_meta) {
    apply {
        cmpt_out.emit(pipe_meta.len);
        %s
    }
}
`

// TestConditionsAreTyped: the graph builder refuses, at its position, a
// condition that reads a number as a truth value or compares a bool with a
// number, and takes every condition that keeps the two apart.
func TestConditionsAreTyped(t *testing.T) {
	const emit = "{ cmpt_out.emit(pipe_meta.len); }"
	for stmt, want := range map[string]string{
		"if (ctx.on) " + emit:                      "",
		"if (!ctx.on) " + emit:                     "",
		"if (ctx.on == true) " + emit:              "",
		"if (ctx.mode == 1 && ctx.on) " + emit:     "",
		"if (ctx.mode != 2) " + emit:               "",
		"switch (ctx.mode) { 1: " + emit + " }":    "",
		"switch (ctx.on) { true: " + emit + " }":   "",
		"if (ctx.mode) " + emit:                    "ty.p4:9:13: condition ctx.mode is a number, not a bool",
		"if (!(ctx.mode)) " + emit:                 "ty.p4:9:15: condition ctx.mode is a number, not a bool",
		"if (ctx.on == 1) " + emit:                 "ty.p4:9:13: ctx.on == 1 compares a bool with a number",
		"if (ctx.mode == 1 || false != 0) " + emit: "ty.p4:9:30: false != 0 compares a bool with a number",
		"switch (ctx.on) { 1: " + emit + " }":      "ty.p4:9:27: switch key 1 compares a bool with a number (tag ctx.on)",
		"switch (ctx.mode) { true: " + emit + " }": "ty.p4:9:29: switch key true compares a bool with a number (tag ctx.mode)",
	} {
		prog, err := parser.Parse("ty.p4", fmt.Sprintf(typedDesc, stmt))
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		info, err := sema.Check(prog)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		_, err = BuildDeparserGraph(info)
		switch {
		case want == "" && err != nil:
			t.Errorf("%s: refused: %v", stmt, err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("%s: %v, want %q", stmt, err, want)
		}
	}
}
