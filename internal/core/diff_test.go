package core

import (
	"strings"
	"testing"

	"opendesc/internal/p4/parser"
	"opendesc/internal/p4/sema"
	"opendesc/internal/semantics"
)

// e1000Desc is defined in core_test.go. e1000DescV2 simulates a firmware
// update of the same NIC: the vendor reordered the completion (status first)
// and widened the packet-length field — the drift the paper says breaks
// hand-written drivers.
const e1000DescV2 = `
struct e1000_rx_ctx_t {
    bit<1> use_rss;
}

header e1000_desc_t {
    bit<64> addr;
    bit<16> length;
}

struct e1000_meta_t {
    @semantic("rss")
    bit<32> rss;
    @semantic("ip_id")
    bit<16> ip_id;
    @semantic("ip_checksum")
    bit<16> csum;
    @semantic("pkt_len")
    bit<32> pkt_len;
    @semantic("error_flags")
    bit<8>  status;
}

@bind("C2H_CTX_T", "e1000_rx_ctx_t")
@bind("DESC_T", "e1000_desc_t")
@bind("META_T", "e1000_meta_t")
control CmptDeparser<C2H_CTX_T, DESC_T, META_T>(
    cmpt_out cmpt_out,
    in C2H_CTX_T ctx,
    in DESC_T desc_hdr,
    in META_T pipe_meta)
{
    apply {
        cmpt_out.emit(pipe_meta.status);
        cmpt_out.emit(pipe_meta.pkt_len);
        if (ctx.use_rss == 1) {
            cmpt_out.emit(pipe_meta.rss);
        } else {
            cmpt_out.emit(pipe_meta.ip_id);
            cmpt_out.emit(pipe_meta.csum);
        }
    }
}
`

func infoFromSource(t *testing.T, src string) *sema.Info {
	t.Helper()
	prog, err := parser.Parse("v.p4", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestDiffFirmwareUpdate(t *testing.T) {
	intent := intentOf(t, semantics.PktLen, semantics.ErrorFlags, semantics.RSS)
	oldRes, err := coldCompile("e1000-v1", e1000Info(t), intent, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	newRes, err := coldCompile("e1000-v2", infoFromSource(t, e1000DescV2), intent, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := DiffResults(oldRes, newRes)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Breaking() {
		t.Fatalf("reorder+resize must be flagged breaking:\n%s", d)
	}
	byName := map[semantics.Name]Change{}
	for _, c := range d.Changes {
		byName[c.Semantic] = c
	}
	// status moved from bits[16,24) to bits[0,8).
	if byName[semantics.ErrorFlags].Kind != ChangeMoved {
		t.Errorf("error_flags change = %v", byName[semantics.ErrorFlags])
	}
	// pkt_len moved and widened 16→32.
	if byName[semantics.PktLen].Kind != ChangeResized {
		t.Errorf("pkt_len change = %v", byName[semantics.PktLen])
	}
	// rss stays at hardware on its branch but at a shifted offset.
	if k := byName[semantics.RSS].Kind; k != ChangeMoved {
		t.Errorf("rss change = %v", k)
	}
	if !strings.Contains(d.String(), "moved") {
		t.Errorf("report:\n%s", d)
	}
}

func TestDiffHardwareSoftwareTransitions(t *testing.T) {
	intent := intentOf(t, semantics.RSS, semantics.IPChecksum)
	res, err := coldCompile("e1000e", e1000Info(t), intent, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Against itself: no changes.
	d, err := DiffResults(res, res)
	if err != nil {
		t.Fatal(err)
	}
	if d.Breaking() {
		t.Errorf("self-diff must be clean:\n%s", d)
	}
	// Flipping the cost model flips which semantic is the software one.
	costs := semantics.RegistryCosts(semantics.Default).WithOverrides(map[semantics.Name]float64{
		semantics.RSS: 500, semantics.IPChecksum: 5,
	})
	flipped, err := coldCompile("e1000e", e1000Info(t), intent,
		CompileOptions{Select: SelectOptions{Costs: costs}})
	if err != nil {
		t.Fatal(err)
	}
	d, err = DiffResults(res, flipped)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[semantics.Name]ChangeKind{}
	for _, c := range d.Changes {
		kinds[c.Semantic] = c.Kind
	}
	if kinds[semantics.RSS] != ChangeToHardware {
		t.Errorf("rss = %v, want software→hardware", kinds[semantics.RSS])
	}
	if kinds[semantics.IPChecksum] != ChangeToSoftware {
		t.Errorf("ip_checksum = %v, want hardware→software", kinds[semantics.IPChecksum])
	}
}

func TestDiffRejectsDifferentIntents(t *testing.T) {
	a, _ := coldCompile("e1000e", e1000Info(t), intentOf(t, semantics.RSS), CompileOptions{})
	bb, _ := coldCompile("e1000e", e1000Info(t), intentOf(t, semantics.VLAN, semantics.PktLen), CompileOptions{})
	if _, err := DiffResults(a, bb); err == nil {
		t.Error("different intents must not diff")
	}
}

func TestPathsEquivalent(t *testing.T) {
	g, err := BuildDeparserGraph(e1000Info(t))
	if err != nil {
		t.Fatal(err)
	}
	paths, err := EnumeratePaths(g, EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !PathsEquivalent(paths[0], paths[0]) {
		t.Error("path must be equivalent to itself")
	}
	if PathsEquivalent(paths[0], paths[1]) {
		t.Error("rss and csum branches are not equivalent")
	}
	// The same source compiled twice yields pairwise-equivalent paths.
	g2, err := BuildDeparserGraph(e1000Info(t))
	if err != nil {
		t.Fatal(err)
	}
	paths2, err := EnumeratePaths(g2, EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range paths {
		if !PathsEquivalent(paths[i], paths2[i]) {
			t.Errorf("path %d not equivalent across identical compiles", i)
		}
	}
}

// PathsEquivalent reports whether two completion paths are interchangeable
// for applications: same semantics at identical bit positions and widths
// (§5 "feature equivalence" restricted to the interface level — the paper
// argues the interface, not the feature internals, is what must match).
func PathsEquivalent(a, b *Path) bool {
	if !a.Prov().Equal(b.Prov()) {
		return false
	}
	for s := range a.Prov() {
		fa, fb := a.Field(s), b.Field(s)
		if fa == nil || fb == nil {
			return false
		}
		if fa.OffsetBits != fb.OffsetBits || fa.WidthBits != fb.WidthBits {
			return false
		}
	}
	return true
}
