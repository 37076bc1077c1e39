package core

import (
	"testing"

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

func txInstance(t *testing.T) (*sema.Info, *sema.Instance) {
	t.Helper()
	prog, err := parser.Parse("tx.p4", txDesc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	inst, err := info.BindParser(prog.Parser("DescParser"))
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	return info, inst
}

func TestAnalyzeDescParser(t *testing.T) {
	info, inst := txInstance(t)
	layouts, err := AnalyzeDescParser(info, inst)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	acc := AcceptedLayouts(layouts)
	if len(acc) != 3 {
		for _, l := range layouts {
			t.Logf("layout %d accepted=%v states=%v size=%dB", l.ID, l.Accepted, l.States, l.SizeBytes())
		}
		t.Fatalf("accepted layouts = %d, want 3", len(acc))
	}
	// Base-only format: 64+16+8 = 88 bits = 11B.
	sizes := map[int]bool{}
	for _, l := range acc {
		sizes[l.SizeBytes()] = true
	}
	for _, want := range []int{11, 14, 17} {
		if !sizes[want] {
			t.Errorf("missing layout of %d bytes; got %v", want, sizes)
		}
	}
	// The offload format consumes vlan + csum_level.
	var off *TxLayout
	for _, l := range acc {
		if l.SizeBytes() == 14 {
			off = l
		}
	}
	if off == nil {
		t.Fatal("offload layout missing")
	}
	if !off.Consumes().Has(semantics.VLAN) || !off.Consumes().Has(semantics.ChecksumAny) {
		t.Errorf("offload consumes %v", off.Consumes())
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

func TestDescParserRejectPath(t *testing.T) {
	info, inst := txInstance(t)
	layouts, err := AnalyzeDescParser(info, inst)
	if err != nil {
		t.Fatal(err)
	}
	rejects := 0
	for _, l := range layouts {
		if !l.Accepted {
			rejects++
			// Default branch: desc_fmt ∉ {0,1,2}.
			if len(l.Constraints) != 3 {
				t.Errorf("reject constraints = %v", l.Constraints)
			}
		}
	}
	if rejects != 1 {
		t.Errorf("reject layouts = %d, want 1", rejects)
	}
}

func TestDescParserLoopGuard(t *testing.T) {
	prog, err := parser.Parse("loop.p4", `
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
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := info.BindParser(prog.Parser("DescParser"))
	if err != nil {
		t.Fatal(err)
	}
	layouts, err := AnalyzeDescParser(info, inst)
	if err != nil {
		t.Fatalf("loop guard failed: %v", err)
	}
	if len(layouts) == 0 || len(layouts) > 16 {
		t.Errorf("layouts = %d, want small bounded set", len(layouts))
	}
}
