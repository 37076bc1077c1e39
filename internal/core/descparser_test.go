package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"opendesc/internal/p4/parser"
	"opendesc/internal/p4/sema"
	"opendesc/internal/semantics"
)

const txDesc = `
struct tx_ctx_t {
    bit<2> desc_fmt;
}

header tx_base_t {
    bit<64> addr;
    @semantic("pkt_len")
    bit<16> length;
    @semantic("seg_cnt")
    bit<8>  segs;
}

header tx_offload_t {
    @semantic("csum_level")
    bit<2>  csum_cmd;
    @semantic("vlan")
    bit<16> vlan_tci;
    bit<6>  pad;
}

header tx_tso_t {
    bit<16> mss;
    bit<8>  hdr_len;
}

@bind("CTX","tx_ctx_t") @bind("DESC","tx_full_t")
parser DescParser<CTX, DESC>(
    desc_in din,
    in CTX h2c_ctx,
    out DESC desc_hdr)
{
    state start {
        din.extract(desc_hdr.base);
        transition select(h2c_ctx.desc_fmt) {
            0: accept_state;
            1: parse_offload;
            2: parse_tso;
            default: reject;
        }
    }
    state accept_state {
        transition accept;
    }
    state parse_offload {
        din.extract(desc_hdr.offload);
        transition accept;
    }
    state parse_tso {
        din.extract(desc_hdr.offload);
        din.extract(desc_hdr.tso);
        transition accept;
    }
}

struct tx_full_t {
    tx_base_t base;
    tx_offload_t offload;
    tx_tso_t tso;
}
`

// txFormats checks src and enumerates its DescParser's TX formats.
func txFormats(t *testing.T, src string) ([]*Path, error) {
	t.Helper()
	prog, err := parser.Parse("tx.p4", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	return TxFormats(info)
}

func TestDescParserFormats(t *testing.T) {
	paths, err := txFormats(t, txDesc)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if len(paths) != 3 {
		for _, p := range paths {
			t.Logf("%v", p)
		}
		t.Fatalf("formats = %d, want 3", len(paths))
	}
	// Base-only format: 64+16+8 = 88 bits = 11B.
	sizes := map[int]bool{}
	for _, p := range paths {
		sizes[p.SizeBytes()] = true
	}
	for _, want := range []int{11, 14, 17} {
		if !sizes[want] {
			t.Errorf("missing format of %d bytes; got %v", want, sizes)
		}
	}
	// The offload format reads vlan + csum_level.
	var off *Path
	for _, p := range paths {
		if p.SizeBytes() == 14 {
			off = p
		}
	}
	if off == nil {
		t.Fatal("offload format missing")
	}
	if !off.Prov().Has(semantics.VLAN) || !off.Prov().Has(semantics.ChecksumAny) {
		t.Errorf("offload reads %v", off.Prov())
	}
	// Constraint should pin desc_fmt == 1.
	found := false
	for _, c := range off.Constraints {
		if c.Var == "h2c_ctx.desc_fmt" && c.Equal && c.Val.Uint == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("constraints = %v", off.Constraints)
	}
	// Field offsets: vlan_tci sits after base(88) + csum_cmd(2) = 90.
	f := off.Field(semantics.VLAN)
	if f == nil || f.OffsetBits != 90 {
		t.Errorf("vlan field = %+v, want offset 90", f)
	}
}

// TestDescParserRejectPath: the default-to-reject arm yields no path, so no
// format carries the default's three != constraints.
func TestDescParserRejectPath(t *testing.T) {
	paths, err := txFormats(t, txDesc)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("formats = %d, want 3", len(paths))
	}
	for _, p := range paths {
		for _, c := range p.Constraints {
			if !c.Equal {
				t.Errorf("format %v carries the reject arm's constraint %v", p, c)
			}
		}
	}
}

// TestDescParserLoopGuard: a state loop is refused with a positioned error
// naming the state, not unrolled (a descriptor that loops once more than an
// unrolling bound has a layout the analysis never listed).
func TestDescParserLoopGuard(t *testing.T) {
	_, err := txFormats(t, `
header h_t { bit<8> v; }
struct d_t { h_t h; }
@bind("DESC","d_t")
parser DescParser<DESC>(desc_in din, out DESC d) {
    state start {
        din.extract(d.h);
        transition select(d.h.v) {
            0: accept_state;
            default: start;
        }
    }
    state accept_state { transition accept; }
}`)
	if err == nil || !strings.Contains(err.Error(), `state "start" loops`) || !strings.HasPrefix(err.Error(), "tx.p4:") {
		t.Fatalf("err = %v, want a positioned loop refusal naming state start", err)
	}
}

// TestDescParserRefusals: the forms the deparser's switch refuses are refused
// in a select too, as is a transition to a state that does not exist.
func TestDescParserRefusals(t *testing.T) {
	const head = `
struct c_t { bit<2> a; bit<2> b; }
header h_t { bit<8> v; }
struct d_t { h_t h; }
@bind("CTX","c_t") @bind("DESC","d_t")
parser DescParser<CTX, DESC>(desc_in din, in CTX c, out DESC d) {
    state start {
        din.extract(d.h);
        transition `
	cases := []struct{ name, transition, want string }{
		{"tuple select", `select(c.a, c.b) { (0, 1): accept; default: reject; }`, "select on a tuple of 2 expressions"},
		{"range key", `select(c.a) { 0..2: accept; default: reject; }`, "select case key must be constant"},
		{"don't-care key", `select(c.a) { _: accept; }`, "select case key must be constant"},
		{"unknown state", `next_state;`, `transition to unknown state "next_state"`},
	}
	for _, c := range cases {
		_, err := txFormats(t, head+c.transition+"\n    }\n}")
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
		t.Logf("%s: %v", c.name, err)
	}
}

// TestDescParserDeadWalksBounded: walks that die, at reject or at a select
// none of whose arms holds, count against MaxPaths, so a chain of shared
// two-arm states (a linear graph with 2^40 walks) is refused at once rather
// than searched.
func TestDescParserDeadWalksBounded(t *testing.T) {
	const n = 40
	chain := func(first, last string) string {
		var sb strings.Builder
		sb.WriteString("struct c_t { bit<4> g;")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, " bit<1> f%d;", i)
		}
		sb.WriteString(` }
header h_t { bit<8> v; }
struct d_t { h_t h; }
@bind("CTX","c_t") @bind("DESC","d_t")
parser DescParser<CTX, DESC>(desc_in din, in CTX c, out DESC d) {
    state start { din.extract(d.h); transition ` + first + ` }
`)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "    state s%d { transition select(c.f%d) { 0: s%d; default: s%d; } }\n", i, i, i+1, i+1)
		}
		fmt.Fprintf(&sb, "    state s%d { transition %s }\n}", n, last)
		return sb.String()
	}
	cases := []struct{ name, first, last string }{
		{"chain to reject", "s0;", "reject;"},
		{"chain to a select that cannot hold", "select(c.g) { 5: s0; }", "select(c.g) { 6: accept; }"},
	}
	for _, c := range cases {
		start := time.Now()
		_, err := txFormats(t, chain(c.first, c.last))
		if !errors.Is(err, ErrTooManyPaths) {
			t.Errorf("%s: err = %v, want ErrTooManyPaths", c.name, err)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("%s: refusal took %v", c.name, d)
		}
	}
}

// TestDescParserPacketIn: a DescParser may read its descriptor from a
// `packet_in` channel, as the interpreter allows.
func TestDescParserPacketIn(t *testing.T) {
	paths, err := txFormats(t, `
header h_t { bit<8> v; bit<8> w; }
struct d_t { h_t h; }
@bind("DESC","d_t")
parser DescParser<DESC>(packet_in pin, out DESC d) {
    state start { pin.extract(d.h); transition accept; }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0].SizeBytes() != 2 {
		t.Fatalf("formats = %v, want one of 2 bytes", paths)
	}
}
