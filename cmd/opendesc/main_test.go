package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"opendesc/internal/semantics"
)

func TestLoadNICByName(t *testing.T) {
	info, name, err := loadNIC("e1000e")
	if err != nil {
		t.Fatal(err)
	}
	if name != "e1000e" || info == nil {
		t.Errorf("info = %p name = %q", info, name)
	}
	if _, _, err := loadNIC("notanic"); err == nil {
		t.Error("unknown model should fail")
	}
}

func TestLoadNICFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "custom.p4")
	src := `
struct ctx_t { bit<1> f; }
header d_t { bit<8> x; }
struct meta_t { @semantic("rss") bit<32> h; }
@bind("CTX","ctx_t") @bind("DESC","d_t") @bind("META","meta_t")
control CmptDeparser<CTX,DESC,META>(cmpt_out co, in CTX ctx, in DESC d, in META m) {
    apply { co.emit(m.h); }
}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	info, name, err := loadNIC(path)
	if err != nil {
		t.Fatal(err)
	}
	if name != "custom" {
		t.Errorf("name = %q", name)
	}
	if info.Prog.Control("CmptDeparser") == nil {
		t.Error("control not parsed")
	}
	// Malformed file errors cleanly.
	bad := filepath.Join(dir, "bad.p4")
	os.WriteFile(bad, []byte("header {"), 0o644)
	if _, _, err := loadNIC(bad); err == nil {
		t.Error("malformed description should fail")
	}
	if _, _, err := loadNIC(filepath.Join(dir, "missing.p4")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestLoadIntentFromReq(t *testing.T) {
	it, err := loadIntent("", "", "rss, vlan ,ip_checksum")
	if err != nil {
		t.Fatal(err)
	}
	req := it.Req()
	for _, s := range []semantics.Name{semantics.RSS, semantics.VLAN, semantics.IPChecksum} {
		if !req.Has(s) {
			t.Errorf("missing %s", s)
		}
	}
	if _, err := loadIntent("", "", "not_a_semantic"); err == nil {
		t.Error("unknown semantic should fail")
	}
	if _, err := loadIntent("", "", ""); err == nil {
		t.Error("empty intent should fail")
	}
}

func TestLoadIntentFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "intent.p4")
	src := `
header intent_t {
    @semantic("rss") bit<32> h;
    @semantic("vlan") bit<16> v;
}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	it, err := loadIntent(path, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if it.Name != "intent_t" || len(it.Fields) != 2 {
		t.Errorf("intent = %+v", it)
	}
	// Explicit header name selects, wrong name fails.
	if _, err := loadIntent(path, "intent_t", ""); err != nil {
		t.Errorf("named header: %v", err)
	}
	if _, err := loadIntent(path, "nope_t", ""); err == nil {
		t.Error("wrong header name should fail")
	}
	// File and req together are rejected.
	if _, err := loadIntent(path, "", "rss"); err == nil {
		t.Error("-intent and -req must be mutually exclusive")
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files under testdata/")

func TestRunDiffGolden(t *testing.T) {
	intent, err := loadIntent("", "", "rss,vlan,pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	out, err := runDiff("e1000", "e1000e", intent, 0)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "diff_e1000_e1000e.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("diff report drifted from golden:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

func TestRunDiffIdentical(t *testing.T) {
	intent, err := loadIntent("", "", "rss,pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	out, err := runDiff("ixgbe", "ixgbe", intent, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "compatible — no accessor drift") {
		t.Errorf("self-diff not compatible:\n%s", out)
	}
}

func TestRunDiffErrors(t *testing.T) {
	intent, err := loadIntent("", "", "rss")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runDiff("notanic", "e1000e", intent, 0); err == nil {
		t.Error("unknown old model should fail")
	}
	if _, err := runDiff("e1000e", "notanic", intent, 0); err == nil {
		t.Error("unknown new model should fail")
	}
	// An intent one side cannot satisfy surfaces as a compile error naming
	// the failing model.
	ts, err := loadIntent("", "", "timestamp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runDiff("e1000", "mlx5", ts, 0); err == nil || !strings.Contains(err.Error(), "e1000") {
		t.Errorf("unsat old side: err = %v, want mention of e1000", err)
	}
}
