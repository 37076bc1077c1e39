package codegen

import (
	"strings"
	"testing"

	"opendesc/internal/semantics"
)

func TestGenGoBatchSource(t *testing.T) {
	// Request enough to force the compressed CQE, which carries the VLAN in
	// hardware (a small intent would pick the mini CQE and shim the VLAN).
	res := compile(t, "mlx5", semantics.RSS, semantics.VLAN, semantics.PType,
		semantics.PktLen, semantics.ErrorFlags)
	src := GenGoBatch(res, "batchacc")
	for _, want := range []string{
		"package batchacc",
		"func RssX4(c0, c1, c2, c3 []byte) (v0, v1, v2, v3 uint32)",
		"func VlanX4(c0, c1, c2, c3 []byte) (v0, v1, v2, v3 uint16)",
		"c3[", // all four lanes referenced
	} {
		if !strings.Contains(src, want) {
			t.Errorf("batch source missing %q:\n%s", want, src)
		}
	}
	if strings.Count(src, "{") != strings.Count(src, "}") {
		t.Error("unbalanced braces")
	}
}

func TestGenGoBatchUnalignedLanes(t *testing.T) {
	// ixgbe's 13-bit ptype forces the shift/mask form in every lane with
	// per-lane temporaries (no variable collisions).
	res := compile(t, "ixgbe", semantics.PType)
	src := GenGoBatch(res, "b")
	for lane := 0; lane < BatchWidth; lane++ {
		if !strings.Contains(src, "u"+string(rune('0'+lane))+" := uint64(0)") {
			t.Errorf("missing lane %d temporary:\n%s", lane, src)
		}
	}
}
