package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"opendesc/internal/p4/parser"
	"opendesc/internal/p4/sema"
	"opendesc/internal/semantics"
)

// e1000Desc is the paper's Figure 6 running example: a single context bit
// selects between an RSS completion and an ip_id+csum completion.
const e1000Desc = `
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
    bit<16> pkt_len;
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
        cmpt_out.emit(pipe_meta.pkt_len);
        cmpt_out.emit(pipe_meta.status);
        if (ctx.use_rss == 1) {
            cmpt_out.emit(pipe_meta.rss);
        } else {
            cmpt_out.emit(pipe_meta.ip_id);
            cmpt_out.emit(pipe_meta.csum);
        }
    }
}
`

func e1000Info(t *testing.T) *sema.Info {
	t.Helper()
	prog, err := parser.Parse("e1000.p4", e1000Desc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	return info
}

func intentOf(t *testing.T, names ...semantics.Name) *Intent {
	t.Helper()
	it, err := IntentFromSemantics("test_intent", semantics.Default, names...)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

func TestBuildGraphE1000(t *testing.T) {
	g, err := BuildDeparserGraph(e1000Info(t))
	if err != nil {
		t.Fatalf("build graph: %v", err)
	}
	if g.EmitCount() != 5 {
		t.Errorf("emit vertices = %d, want 5", g.EmitCount())
	}
	branches := 0
	for _, n := range g.Nodes {
		if n.Kind == NodeBranch {
			branches++
		}
	}
	if branches != 1 {
		t.Errorf("branch nodes = %d, want 1", branches)
	}
}

func TestEnumeratePathsE1000(t *testing.T) {
	g, err := BuildDeparserGraph(e1000Info(t))
	if err != nil {
		t.Fatal(err)
	}
	paths, err := EnumeratePaths(g, EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	// Path taking the then-branch provides rss; the other ip_id+csum. Both
	// include the common prefix pkt_len+status.
	var rssPath, csumPath *Path
	for _, p := range paths {
		if p.Prov().Has(semantics.RSS) {
			rssPath = p
		}
		if p.Prov().Has(semantics.IPChecksum) {
			csumPath = p
		}
	}
	if rssPath == nil || csumPath == nil {
		t.Fatalf("path provs: %v", paths)
	}
	if !rssPath.Prov().Has(semantics.PktLen) || !csumPath.Prov().Has(semantics.ErrorFlags) {
		t.Error("common prefix semantics missing")
	}
	// Sizes: 16+8+32 bits = 7B; 16+8+16+16 = 7B.
	if rssPath.SizeBytes() != 7 || csumPath.SizeBytes() != 7 {
		t.Errorf("sizes = %d, %d; want 7,7", rssPath.SizeBytes(), csumPath.SizeBytes())
	}
	// Constraints.
	if len(rssPath.Constraints) != 1 || rssPath.Constraints[0].Var != "ctx.use_rss" ||
		!rssPath.Constraints[0].Equal || rssPath.Constraints[0].Val.Uint != 1 {
		t.Errorf("rss path constraints = %v", rssPath.Constraints)
	}
	if len(csumPath.Constraints) != 1 || csumPath.Constraints[0].Equal {
		t.Errorf("csum path constraints = %v", csumPath.Constraints)
	}
	// Layout offsets on the csum path: pkt_len@0, status@16, ip_id@24, csum@40.
	wantOff := map[semantics.Name]int{
		semantics.PktLen: 0, semantics.ErrorFlags: 16,
		semantics.IPID: 24, semantics.IPChecksum: 40,
	}
	for s, off := range wantOff {
		f := csumPath.Field(s)
		if f == nil || f.OffsetBits != off {
			t.Errorf("csum path field %s = %+v, want offset %d", s, f, off)
		}
	}
}

// TestFig6Selection reproduces the paper's running example: when both rss and
// csum are requested, the compiler prefers the csum-emitting branch because
// software RSS is cheaper than software checksum.
func TestFig6Selection(t *testing.T) {
	res, err := Compile("e1000", e1000Info(t), intentOf(t, semantics.RSS, semantics.IPChecksum), CompileOptions{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if !res.Selected.Path.Prov().Has(semantics.IPChecksum) {
		t.Errorf("selected path %v should provide ip_checksum (paper Fig. 6)", res.Selected.Path)
	}
	if len(res.Missing()) != 1 || res.Missing()[0] != semantics.RSS {
		t.Errorf("missing = %v, want [rss]", res.Missing())
	}
	// Accessors: csum hardware, rss software.
	ac := res.Accessor(semantics.IPChecksum)
	if ac == nil || !ac.Hardware {
		t.Errorf("ip_checksum accessor = %+v, want hardware", ac)
	}
	ar := res.Accessor(semantics.RSS)
	if ar == nil || ar.Hardware {
		t.Errorf("rss accessor = %+v, want software shim", ar)
	}
	// Config must clear use_rss (constraint recorded as inequality against 1).
	if len(res.Config) != 1 || res.Config[0].Var != "ctx.use_rss" {
		t.Errorf("config = %v", res.Config)
	}
}

func TestSelectionFlipsWithCosts(t *testing.T) {
	// If software RSS were more expensive than software csum, the rss branch
	// must win instead.
	costs := semantics.RegistryCosts(semantics.Default).WithOverrides(map[semantics.Name]float64{
		semantics.RSS:        500,
		semantics.IPChecksum: 5,
	})
	res, err := Compile("e1000", e1000Info(t),
		intentOf(t, semantics.RSS, semantics.IPChecksum),
		CompileOptions{Select: SelectOptions{Costs: costs}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Selected.Path.Prov().Has(semantics.RSS) {
		t.Errorf("selected %v, want rss branch under inverted costs", res.Selected.Path)
	}
}

func TestRSSOnlyIntentPicksRSSBranch(t *testing.T) {
	res, err := Compile("e1000", e1000Info(t), intentOf(t, semantics.RSS), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Selected.Path.Prov().Has(semantics.RSS) {
		t.Errorf("selected %v", res.Selected.Path)
	}
	if len(res.Missing()) != 0 {
		t.Errorf("missing = %v", res.Missing())
	}
}

func TestUnsatisfiableIntent(t *testing.T) {
	// Timestamp has infinite software cost and e1000 never emits it.
	_, err := Compile("e1000", e1000Info(t), intentOf(t, semantics.Timestamp), CompileOptions{})
	var unsat *UnsatisfiableError
	if !errors.As(err, &unsat) {
		t.Fatalf("err = %v, want UnsatisfiableError", err)
	}
	if !strings.Contains(unsat.Error(), "timestamp") {
		t.Errorf("error text %q should name the missing semantic", unsat.Error())
	}
}

func TestSatisfiableViaSoftwareOnly(t *testing.T) {
	// kv_key: not on any e1000 path but software-emulable ⇒ compiles with a
	// software shim.
	res, err := Compile("e1000", e1000Info(t), intentOf(t, semantics.KVKey), CompileOptions{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	a := res.Accessor(semantics.KVKey)
	if a == nil || a.Hardware {
		t.Errorf("kv_key accessor = %+v, want software", a)
	}
	if math.IsInf(a.SoftCost, 1) {
		t.Error("kv_key soft cost should be finite")
	}
	// With no hardware-relevant difference, the smaller completion wins; both
	// are 7B here so any is fine — but DMA term must be reflected in total.
	if res.Selected.DMACost != float64(res.Selected.Path.SizeBytes()) {
		t.Errorf("dma cost = %v", res.Selected.DMACost)
	}
}

func TestNegativeAlphaIgnoresFootprint(t *testing.T) {
	res, err := Compile("e1000", e1000Info(t), intentOf(t, semantics.RSS), CompileOptions{Select: SelectOptions{Alpha: -1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Scored {
		if s.DMACost != 0 {
			t.Errorf("dma cost with alpha<0 = %v, want 0", s.DMACost)
		}
	}
	if !res.Selected.Path.Prov().Has(semantics.RSS) {
		t.Errorf("selected %v", res.Selected.Path)
	}
}

// correlatedDesc has two branches on the same context bit; without symbolic
// pruning 4 paths appear, with pruning only the 2 consistent ones remain.
const correlatedDesc = `
struct ctx_t { bit<1> f; }
header d_t { bit<8> x; }
struct meta_t {
    @semantic("rss") bit<32> rss;
    @semantic("vlan") bit<16> vlan;
    @semantic("ip_id") bit<16> ip_id;
    @semantic("ip_checksum") bit<16> csum;
}
@bind("CTX","ctx_t") @bind("DESC","d_t") @bind("META","meta_t")
control CmptDeparser<CTX,DESC,META>(cmpt_out co, in CTX ctx, in DESC d, in META m) {
    apply {
        if (ctx.f == 1) { co.emit(m.rss); } else { co.emit(m.vlan); }
        if (ctx.f == 1) { co.emit(m.ip_id); } else { co.emit(m.csum); }
    }
}
`

func TestSymbolicPruning(t *testing.T) {
	prog, err := parser.Parse("corr.p4", correlatedDesc)
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
	pruned, err := EnumeratePaths(g, EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) != 2 {
		for _, p := range pruned {
			t.Log(p)
		}
		t.Fatalf("pruned paths = %d, want 2", len(pruned))
	}
	for _, p := range pruned {
		prov := p.Prov()
		if prov.Has(semantics.RSS) != prov.Has(semantics.IPID) {
			t.Errorf("inconsistent path survived pruning: %v", p)
		}
	}
	unpruned, err := EnumeratePaths(g, EnumerateOptions{DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(unpruned) != 4 {
		t.Errorf("unpruned paths = %d, want 4", len(unpruned))
	}
}

const switchDesc = `
struct ctx_t { bit<2> fmt; }
header d_t { bit<8> x; }
struct meta_t {
    @semantic("rss") bit<32> rss;
    @semantic("vlan") bit<16> vlan;
    @semantic("timestamp") bit<64> ts;
    @semantic("pkt_len") bit<16> len;
}
@bind("CTX","ctx_t") @bind("DESC","d_t") @bind("META","meta_t")
control CmptDeparser<CTX,DESC,META>(cmpt_out co, in CTX ctx, in DESC d, in META m) {
    apply {
        co.emit(m.len);
        switch (ctx.fmt) {
            0: { co.emit(m.rss); }
            1: { co.emit(m.vlan); }
            2: { co.emit(m.rss); co.emit(m.ts); }
            default: { }
        }
    }
}
`

func TestSwitchPaths(t *testing.T) {
	prog, err := parser.Parse("sw.p4", switchDesc)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(info, EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Paths) != 4 {
		t.Fatalf("paths = %d, want 4", len(a.Paths))
	}
	// Requesting timestamp must force fmt==2 (timestamp has no software
	// fallback).
	res, err := a.Compile("sw", intentOf(t, semantics.Timestamp), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	best := res.Selected
	if !best.Path.Prov().Has(semantics.Timestamp) {
		t.Errorf("selected %v", best.Path)
	}
	found := false
	for _, c := range best.Path.Constraints {
		if c.Var == "ctx.fmt" && c.Equal && c.Val.Uint == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("constraints = %v, want ctx.fmt == 2", best.Path.Constraints)
	}
}

func TestSmallerCompletionPreferredOnTie(t *testing.T) {
	prog, err := parser.Parse("sw.p4", switchDesc)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := sema.Check(prog)
	// Request only pkt_len: every path provides it; the default (emit-nothing
	// -else) path with the smallest completion must win.
	res, err := Compile("sw", info, intentOf(t, semantics.PktLen), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	best := res.Selected
	if best.Path.SizeBytes() != 2 {
		t.Errorf("selected %v (%dB), want the 2-byte default path", best.Path, best.Path.SizeBytes())
	}
}

func TestMaxPathsGuard(t *testing.T) {
	// 13 independent branches ⇒ 8192 unpruned paths > 4096 default bound.
	var sb strings.Builder
	sb.WriteString(`struct ctx_t {`)
	for i := 0; i < 13; i++ {
		sb.WriteString(strings.ReplaceAll("bit<1> fN;", "N", string(rune('a'+i))))
	}
	sb.WriteString("}\nheader d_t { bit<8> x; }\nstruct meta_t { @semantic(\"rss\") bit<8> r; }\n")
	sb.WriteString(`@bind("CTX","ctx_t") @bind("DESC","d_t") @bind("META","meta_t")
control CmptDeparser<CTX,DESC,META>(cmpt_out co, in CTX ctx, in DESC d, in META m) { apply {`)
	for i := 0; i < 13; i++ {
		sb.WriteString(strings.ReplaceAll("if (ctx.fN == 1) { co.emit(m.r); }", "N", string(rune('a'+i))))
	}
	sb.WriteString("} }")
	prog, err := parser.Parse("wide.p4", sb.String())
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
	if _, err := EnumeratePaths(g, EnumerateOptions{}); !errors.Is(err, ErrTooManyPaths) {
		t.Errorf("err = %v, want ErrTooManyPaths", err)
	}
	if _, err := EnumeratePaths(g, EnumerateOptions{MaxPaths: 10000}); err != nil {
		t.Errorf("raised bound should succeed: %v", err)
	}
}

func TestDOTOutput(t *testing.T) {
	g, err := BuildDeparserGraph(e1000Info(t))
	if err != nil {
		t.Fatal(err)
	}
	dot := g.DOT()
	for _, want := range []string{"digraph", "ctx.use_rss == 1", "emit pipe_meta.rss", "shape=diamond"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestReportMentionsSoftwareShim(t *testing.T) {
	res, err := Compile("e1000", e1000Info(t), intentOf(t, semantics.RSS, semantics.IPChecksum), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	if !strings.Contains(rep, "SOFTWARE") || !strings.Contains(rep, "rss") {
		t.Errorf("report should flag the rss software shim:\n%s", rep)
	}
}

func TestIntentParsing(t *testing.T) {
	prog, err := parser.Parse("intent.p4", `
header intent_t {
    @semantic("rss")
    bit<32> rss_val;
    @semantic("vlan")
    bit<16> vlan_tag;
    @semantic("ip_checksum") @cost(3)
    bit<16> csum;
    bit<8> padding;
}`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	it, err := ParseIntent(info, "")
	if err != nil {
		t.Fatal(err)
	}
	if it.Name != "intent_t" || len(it.Fields) != 3 {
		t.Fatalf("intent = %+v", it)
	}
	req := it.Req()
	if !req.Has(semantics.RSS) || !req.Has(semantics.VLAN) || !req.Has(semantics.IPChecksum) {
		t.Errorf("req = %v", req)
	}
	a, err := Analyze(e1000Info(t), EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := a.Bind(it)
	cm := b.Costs(nil, semantics.RegistryCosts(semantics.Default))
	if got := cm[b.entry(semantics.IPChecksum)]; got != 3 {
		t.Errorf("cost override not applied: %v", got)
	}
	if got := cm[b.entry(semantics.RSS)]; got != 18 {
		t.Errorf("base cost changed: %v", got)
	}
}

func TestIntentDuplicateSemanticRejected(t *testing.T) {
	prog, _ := parser.Parse("intent.p4", `
header intent_t {
    @semantic("rss") bit<32> a;
    @semantic("rss") bit<32> b;
}`)
	info, _ := sema.Check(prog)
	if _, err := ParseIntent(info, ""); err == nil {
		t.Error("duplicate semantic should be rejected")
	}
}
