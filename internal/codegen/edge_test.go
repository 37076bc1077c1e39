package codegen

import (
	"strings"
	"testing"

	"opendesc/internal/bitfield"
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/semantics"
)

// edgeSource is a synthetic interface description built to hit every
// extraction edge the generated accessors must survive: a 1-bit flag at
// offset 0, a 63-bit field straddling the first 64-bit word, a 64-bit field
// at a byte- but not word-aligned offset, a signed int<16> field, a const
// width, and pads between them. The layout (offsets in bits):
//
//	mark    [0,1)    width 1
//	pad0    [1,4)
//	flow_id [4,67)   width 63 — straddles the 64-bit word boundary
//	pad1    [67,72)
//	kv_key  [72,136) width 64 — byte-aligned, word-unaligned
//	signed  [136,152)
//	pkt_len [152,168)
const edgeSource = `
const bit<8> PLEN_W = 16;
struct ctx_t { bit<1> wide; }
struct meta_t {
    @semantic("mark") bit<1> m1;
    bit<3> pad0;
    @semantic("flow_id") bit<63> fid;
    bit<5> pad1;
    @semantic("kv_key") bit<64> key;
    int<16> temp;
    @semantic("pkt_len") bit<PLEN_W> plen;
}
@bind("CTX","ctx_t") @bind("META","meta_t")
control CmptDeparser<CTX,META>(cmpt_out co, in CTX ctx, in META m) {
    apply {
        if (ctx.wide == 1) {
            co.emit(m);
        } else {
            co.emit(m.plen);
        }
    }
}`

func compileEdge(t *testing.T) *core.Result {
	t.Helper()
	m, err := nic.Parse("edge.p4", edgeSource)
	if err != nil {
		t.Fatal(err)
	}
	intent, err := core.IntentFromSemantics("edge_intent", semantics.Default,
		semantics.Mark, semantics.FlowID, semantics.KVKey, semantics.PktLen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Compile(intent, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEdgeLayoutOffsets pins the resolved layout: widths 1/63/64 land at
// the straddling offsets the source was built for, signed and const-width
// fields take their declared widths.
func TestEdgeLayoutOffsets(t *testing.T) {
	res := compileEdge(t)
	want := map[semantics.Name][2]int{
		semantics.Mark:   {0, 1},
		semantics.FlowID: {4, 63},
		semantics.KVKey:  {72, 64},
		semantics.PktLen: {152, 16},
	}
	for sem, ow := range want {
		a := res.Accessor(sem)
		if a == nil || !a.Hardware {
			t.Fatalf("%s: no hardware accessor (%+v)", sem, a)
		}
		if a.OffsetBits != ow[0] || a.WidthBits != ow[1] {
			t.Errorf("%s at bits[%d:%d), want bits[%d:%d)",
				sem, a.OffsetBits, a.OffsetBits+a.WidthBits, ow[0], ow[0]+ow[1])
		}
	}
	if got := res.Selected.Path.SizeBytes(); got != 21 {
		t.Errorf("completion entry %d bytes, want 21", got)
	}
}

// TestEdgeRuntimeMatchesBitfield: the executable runtime readers agree with
// direct bitfield extraction on adversarial fill patterns — all-ones (mask
// leaks), alternating phases (shift errors), and a pseudo-random fill.
func TestEdgeRuntimeMatchesBitfield(t *testing.T) {
	res := compileEdge(t)
	rt := NewRuntime(res, nil)
	fills := [][]byte{make([]byte, rt.CompletionBytes), make([]byte, rt.CompletionBytes),
		make([]byte, rt.CompletionBytes), make([]byte, rt.CompletionBytes)}
	for i := range fills[1] {
		fills[1][i] = 0xff
	}
	for i := range fills[2] {
		fills[2][i] = 0x55
	}
	for i := range fills[3] {
		fills[3][i] = byte(i*197 + 83)
	}
	for _, desc := range fills {
		for _, r := range rt.Readers {
			if !r.Hardware {
				continue
			}
			want := bitfield.Read(desc, r.OffsetBits, r.WidthBits)
			if got := r.Read(desc, nil); got != want {
				t.Errorf("%s bits[%d:%d): runtime %#x != bitfield %#x",
					r.Semantic, r.OffsetBits, r.OffsetBits+r.WidthBits, got, want)
			}
		}
	}
}

// TestEdgeGeneratedSources: all three source backends emit accessors for the
// edge widths (a 64-bit read must not truncate its return type; a 1-bit read
// must still mask).
func TestEdgeGeneratedSources(t *testing.T) {
	res := compileEdge(t)
	goSrc := GenGo(res, "edgeacc")
	for _, want := range []string{
		"func KvKey(cmpt []byte) uint64 {",
		"func Mark(cmpt []byte) uint8 {",
		"func FlowId(cmpt []byte) uint64 {",
	} {
		if !strings.Contains(goSrc, want) {
			t.Errorf("GenGo missing %q:\n%s", want, goSrc)
		}
	}
	if c := GenC(res, "edge"); !strings.Contains(c, "uint64_t") {
		t.Errorf("GenC lacks a 64-bit accessor:\n%s", c)
	}
	if e := GenEBPF(res); !strings.Contains(e, "__u64") {
		t.Errorf("GenEBPF lacks a 64-bit accessor:\n%s", e)
	}
}

// TestEdgeNarrowPath: the same description compiled for pkt_len alone must
// select the narrow completion path (2-byte records) and fall back to
// software for everything the narrow path cannot carry.
func TestEdgeNarrowPath(t *testing.T) {
	m, err := nic.Parse("edge.p4", edgeSource)
	if err != nil {
		t.Fatal(err)
	}
	intent, err := core.IntentFromSemantics("edge_narrow", semantics.Default, semantics.PktLen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Compile(intent, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Selected.Path.SizeBytes(); got != 2 {
		t.Errorf("narrow path %d bytes, want 2", got)
	}
	a := res.Accessor(semantics.PktLen)
	if a == nil || !a.Hardware || a.OffsetBits != 0 || a.WidthBits != 16 {
		t.Errorf("narrow pkt_len accessor = %+v", a)
	}
}
