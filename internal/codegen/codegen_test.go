package codegen

import (
	"strings"
	"testing"

	"opendesc/internal/bitfield"
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/semantics"
)

func compile(t *testing.T, nicName string, sems ...semantics.Name) *core.Result {
	t.Helper()
	intent, err := core.IntentFromSemantics("app_intent", semantics.Default, sems...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nic.MustLoad(nicName).Compile(intent, core.CompileOptions{})
	if err != nil {
		t.Fatalf("compile %s: %v", nicName, err)
	}
	return res
}

func TestRuntimeHardwareRead(t *testing.T) {
	res := compile(t, "e1000e", semantics.RSS, semantics.VLAN, semantics.PktLen)
	rt := NewRuntime(res, nil)
	if rt.CompletionBytes != 11 {
		t.Fatalf("completion bytes = %d", rt.CompletionBytes)
	}
	// Build a synthetic completion record per the selected layout.
	desc := make([]byte, rt.CompletionBytes)
	want := map[semantics.Name]uint64{
		semantics.RSS:    0xDEADBEEF,
		semantics.VLAN:   0x0123,
		semantics.PktLen: 1500,
	}
	for _, f := range res.Selected.Path.Fields {
		if v, ok := want[f.Semantic]; ok {
			bitfield.Write(desc, f.OffsetBits, f.WidthBits, v)
		}
	}
	for s, w := range want {
		got, err := rt.Read(s, desc, nil)
		if err != nil {
			t.Fatalf("read %s: %v", s, err)
		}
		if got != w {
			t.Errorf("%s = %#x, want %#x", s, got, w)
		}
	}
}

// TestLoadMatchesBitfieldRead: the word a hardware reader fixes when linked
// reads what bitfield.Read reads from a record of the linked size, for every
// field that fits in it — records shorter than a word, fields ending on the
// record's last bit, and unaligned fields wider than 56 bits, which have no
// one-word window and take the out-of-line path.
func TestLoadMatchesBitfieldRead(t *testing.T) {
	var windowed, wide int
	for _, n := range []int{1, 7, 8, 11, 16, 17} {
		rec := make([]byte, n)
		for i := range rec {
			rec[i] = byte(i*197 + 83)
		}
		for off := 0; off < 8*n; off++ {
			for w := 1; w <= 64 && off+w <= 8*n; w++ {
				r := Reader{Hardware: true, OffsetBits: off, WidthBits: w}
				r.link(n)
				if r.mask != 0 {
					windowed++
				} else {
					wide++
				}
				if got, want := r.Load(rec), bitfield.Read(rec, off, w); got != want {
					t.Fatalf("%d-byte record, bits [%d,%d): Load %#x, Read %#x", n, off, off+w, got, want)
				}
			}
		}
	}
	if windowed == 0 || wide == 0 {
		t.Fatalf("%d windowed and %d windowless fields: want both paths", windowed, wide)
	}
}

func TestRuntimeSoftwareShim(t *testing.T) {
	res := compile(t, "e1000e", semantics.RSS, semantics.IPChecksum)
	called := false
	rt := NewRuntime(res, map[semantics.Name]SoftFunc{
		semantics.RSS: func(pkt []byte) uint64 { called = true; return 42 },
	})
	v, err := rt.Read(semantics.RSS, make([]byte, rt.CompletionBytes), []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !called || v != 42 {
		t.Errorf("software shim not invoked: v=%d called=%v", v, called)
	}
}

func TestRuntimeMissingShimErrors(t *testing.T) {
	res := compile(t, "e1000e", semantics.RSS, semantics.IPChecksum)
	rt := NewRuntime(res, nil) // no shim linked
	if _, err := rt.Read(semantics.RSS, make([]byte, rt.CompletionBytes), nil); err == nil {
		t.Error("reading unlinked software semantic should error")
	}
	if _, err := rt.Read(semantics.Timestamp, nil, nil); err == nil {
		t.Error("unknown semantic should error")
	}
}

func TestGenGoFixedOffsets(t *testing.T) {
	res := compile(t, "e1000e", semantics.RSS)
	src := GenGo(res, "e1000eacc")
	for _, want := range []string{
		"package e1000eacc",
		"Code generated by the OpenDesc compiler",
		"const CompletionBytes = 11",
		"func Rss(cmpt []byte) uint32 {",
		"cmpt[0]", // rss sits at offset 0 on the rss path
	} {
		if !strings.Contains(src, want) {
			t.Errorf("GenGo output missing %q:\n%s", want, src)
		}
	}
}

func TestGenGoSoftwareVars(t *testing.T) {
	res := compile(t, "e1000e", semantics.RSS, semantics.IPChecksum)
	src := GenGo(res, "acc")
	// rss is the software one on the csum path.
	if !strings.Contains(src, "SoftRss func(packet []byte) uint32") {
		t.Errorf("missing software shim var:\n%s", src)
	}
	if !strings.Contains(src, "func IpChecksum(cmpt []byte) uint16") {
		t.Errorf("missing hardware csum accessor:\n%s", src)
	}
}

// TestGenGoUnalignedField checks shift/mask codegen for the 13-bit ixgbe
// ptype field.
func TestGenGoUnalignedField(t *testing.T) {
	res := compile(t, "ixgbe", semantics.PType)
	a := res.Accessor(semantics.PType)
	if a == nil || !a.Hardware || a.WidthBits != 13 {
		t.Fatalf("ptype accessor = %+v", a)
	}
	src := GenGo(res, "acc")
	if !strings.Contains(src, "v >>= ") || !strings.Contains(src, "& 0x1fff") {
		t.Errorf("unaligned accessor should shift and mask:\n%s", src)
	}
}

// TestGeneratedGoMatchesRuntime cross-checks source generation against the
// executable runtime on random completion contents by re-deriving values
// straight from bitfield reads.
func TestGeneratedGoMatchesRuntime(t *testing.T) {
	res := compile(t, "mlx5", semantics.RSS, semantics.Timestamp, semantics.VLAN,
		semantics.FlowID, semantics.Mark)
	rt := NewRuntime(res, nil)
	desc := make([]byte, rt.CompletionBytes)
	for i := range desc {
		desc[i] = byte(i*37 + 11)
	}
	for _, r := range rt.Readers {
		if !r.Hardware {
			continue
		}
		want := bitfield.Read(desc, r.OffsetBits, r.WidthBits)
		if got := r.Read(desc, nil); got != want {
			t.Errorf("%s: runtime %#x != bitfield %#x", r.Semantic, got, want)
		}
	}
}

func TestGenC(t *testing.T) {
	res := compile(t, "e1000e", semantics.RSS, semantics.IPChecksum)
	src := GenC(res, "e1000e")
	for _, want := range []string{
		"#ifndef E1000E_OPENDESC_H",
		"#define E1000E_CMPT_BYTES 11",
		"static inline uint16_t e1000e_get_ip_checksum(const uint8_t *cmpt)",
		"extern uint32_t e1000e_get_rss_soft(const uint8_t *pkt, uint32_t len);",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("GenC output missing %q:\n%s", want, src)
		}
	}
}

func TestGenEBPF(t *testing.T) {
	res := compile(t, "mlx5", semantics.RSS, semantics.Timestamp, semantics.VLAN)
	src := GenEBPF(res)
	for _, want := range []string{
		"#include <linux/bpf.h>",
		"#define OPENDESC_CMPT_BYTES 64",
		"opendesc_cmpt(const struct xdp_md *ctx)",
		"if (meta + OPENDESC_CMPT_BYTES > data)",
		"static __always_inline int opendesc_get_rss(const struct xdp_md *ctx, __u32 *out)",
		"opendesc_get_timestamp",
		`char _license[] SEC("license") = "GPL";`,
	} {
		if !strings.Contains(src, want) {
			t.Errorf("GenEBPF output missing %q:\n%s", want, src)
		}
	}
}

func TestGenEBPFUsesKernelTypes(t *testing.T) {
	res := compile(t, "mlx5", semantics.RSS)
	src := GenEBPF(res)
	if strings.Contains(src, "uint32_t") || strings.Contains(src, "uint64_t") {
		t.Errorf("eBPF source must use __uNN kernel types:\n%s", src)
	}
}

func TestExportName(t *testing.T) {
	cases := map[string]string{
		"rss": "Rss", "ip_checksum": "IpChecksum", "l4_dst_port": "L4DstPort",
		"kv_key": "KvKey",
	}
	for in, want := range cases {
		if got := exportName(in); got != want {
			t.Errorf("exportName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestGeneratedGoCompilesByInspection(t *testing.T) {
	// The generated source must at least be balanced and declare the right
	// shape. (It is also exercised end-to-end via the golden files under
	// testdata used by cmd/opendesc tests.)
	res := compile(t, "qdma", semantics.KVKey, semantics.RSS, semantics.PktLen)
	src := GenGo(res, "kvacc")
	if strings.Count(src, "{") != strings.Count(src, "}") {
		t.Error("unbalanced braces in generated Go")
	}
	if !strings.Contains(src, "func KvKey(cmpt []byte) uint64") {
		t.Errorf("missing kv_key accessor:\n%s", src)
	}
}
