package diffverify

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// edgeSource mirrors internal/codegen's extraction edge description: widths
// 1/63/64, a 64-bit-word straddle, a byte- but not word-aligned 64-bit
// field, a signed int<16>, a const width, and pads. Here the whole
// completion-path space goes through the three-view harness, so every edge
// the unit tables pin is also certified equivalent across static layout,
// the interpreted deparser, and generated accessors.
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

// TestEdgeSourceVerifies: the edge-width description passes the exhaustive
// harness — both paths, all boundary patterns, zero disagreements.
func TestEdgeSourceVerifies(t *testing.T) {
	rep, err := VerifyModel(fresh(t, "edge.p4", edgeSource), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("edge description failed:\n%s", rep)
	}
	if rep.Paths != 2 {
		t.Errorf("%d paths, want 2", rep.Paths)
	}
	if rep.Skipped != 0 {
		t.Errorf("%d underdetermined cases, want 0", rep.Skipped)
	}
}

// TestEdgeSourceAblationCaught: the injected accessor bug is caught on the
// edge widths too (a one-bit offset shift on a straddling field).
func TestEdgeSourceAblationCaught(t *testing.T) {
	rep, err := VerifyModel(fresh(t, "edge.p4", edgeSource), Options{BreakAccessor: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("broken accessor not caught on edge widths")
	}
	if d := rep.Disagreements[0]; d.View != "accessor" {
		t.Errorf("first disagreement view %q, want accessor", d.View)
	}
}

// TestEdgeSourceCertifies: the certificate flow handles the synthetic
// description like any fleet-published one.
func TestEdgeSourceCertifies(t *testing.T) {
	cert := Certify("edge", edgeSource)
	if !cert.Passed {
		t.Fatalf("edge description failed certification: %s", cert.Reason)
	}
	if cert.Paths != 2 || cert.Checks == 0 {
		t.Errorf("degenerate certificate %+v", cert)
	}
}

// handWritten reads one of the hand-written descriptions nicsim's tests run
// on the simulated device.
func handWritten(t *testing.T, file string) string {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestHandWrittenDescriptionsVerify: every hand-written description the
// simulated device is tested on passes the exhaustive harness, report for
// report as the reference checker does. Where only registers decide the
// path, no case is underdetermined: booleq branches on `ctx.on == true`,
// which holds because the environment gives a bool register as a bool, and
// emits the register, which the interpreter serializes as 1. datadep's
// opaque condition `ptype != 0 && port < 1000` is left to filler, which
// almost always makes it true; redrawing the free leaves settles it for the
// focus path in every case but the 12 whose focused ptype (0) or port
// (1023) decides it against their path, so 500 of its 512 cases check the
// focus path (304 without the redraw).
func TestHandWrittenDescriptionsVerify(t *testing.T) {
	maxSkipped := map[string]int{"datadep": 12}
	files, err := filepath.Glob("../nicsim/testdata/*.p4")
	if err != nil || len(files) == 0 {
		t.Fatalf("no hand-written descriptions: %v", err)
	}
	for _, f := range files {
		src := handWritten(t, f)
		m := fresh(t, f, src)
		name := m.Name
		rep, err := VerifyModel(m, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.OK() || rep.Skipped > maxSkipped[name] {
			t.Errorf("%s failed, or left more than %d cases underdetermined:\n%s", name, maxSkipped[name], rep)
		}
		want, wantErr := refVerify(fresh(t, f, src), Options{})
		sameOutcome(t, name, rep, nil, want, wantErr)
		t.Logf("%s", strings.TrimSpace(rep.String()))
	}
}
