package codegen

import (
	"fmt"
	"strings"

	"opendesc/internal/core"
)

// The paper's §5 notes that DPDK drivers hand-maintain SSE/AltiVec/NEON
// variants of the descriptor datapath that read four descriptors at a time,
// and proposes generating such batch accessors instead. GenGoBatch emits the
// lane-parallel form as source: BatchWidth descriptors per call with
// unrolled independent loads (instruction-level parallelism; a SIMD backend
// would emit vector loads against the same layout).

// BatchWidth is the number of descriptors a batch accessor processes per
// call, mirroring the 4-wide SSE driver loops.
const BatchWidth = 4

// GenGoBatch renders the batch accessor source: one XN function per hardware
// accessor, unrolled across BatchWidth descriptors.
func GenGoBatch(res *core.Result, pkg string) string {
	var sb strings.Builder
	sb.WriteString(banner(res, "//"))
	fmt.Fprintf(&sb, "package %s\n\n", pkg)
	sb.WriteString("// Batch accessors process ")
	fmt.Fprintf(&sb, "%d completion records per call, the generated\n", BatchWidth)
	sb.WriteString("// counterpart of the hand-written SSE descriptor loops in DPDK drivers.\n\n")
	for _, a := range res.Accessors {
		if !a.Hardware {
			continue
		}
		name := exportName(string(a.Semantic))
		typ := goWidthType(a.WidthBits)
		fmt.Fprintf(&sb, "// %sX%d reads %q from %d completion records at fixed offsets.\n",
			name, BatchWidth, a.Semantic, BatchWidth)
		fmt.Fprintf(&sb, "func %sX%d(c0, c1, c2, c3 []byte) (v0, v1, v2, v3 %s) {\n",
			name, BatchWidth, typ)
		for lane := 0; lane < BatchWidth; lane++ {
			body := genGoRead(a.OffsetBits, a.WidthBits, typ)
			body = strings.ReplaceAll(body, "cmpt[", fmt.Sprintf("c%d[", lane))
			body = strings.ReplaceAll(body, "\treturn ", fmt.Sprintf("\tv%d = ", lane))
			body = strings.ReplaceAll(body, "v := uint64(0)", fmt.Sprintf("u%d := uint64(0)", lane))
			body = strings.ReplaceAll(body, "v = v<<8", fmt.Sprintf("u%d = u%d<<8", lane, lane))
			body = strings.ReplaceAll(body, "v >>= ", fmt.Sprintf("u%d >>= ", lane))
			body = strings.ReplaceAll(body, fmt.Sprintf("v%d = %s(v & ", lane, typ), fmt.Sprintf("v%d = %s(u%d & ", lane, typ, lane))
			body = strings.ReplaceAll(body, fmt.Sprintf("v%d = %s(v)", lane, typ), fmt.Sprintf("v%d = %s(u%d)", lane, typ, lane))
			sb.WriteString(body)
		}
		sb.WriteString("\treturn\n}\n\n")
	}
	return sb.String()
}
