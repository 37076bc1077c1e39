package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runVerifyOut captures runVerify's rendering and error.
func runVerifyOut(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := runVerify(args, &sb)
	return sb.String(), err
}

func checkGolden(t *testing.T, name, out string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
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
		t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", name, out, want)
	}
}

// TestRunVerifyGolden: the exhaustive pass report for one bundled NIC is
// byte-stable (the harness is deterministic, so this golden is tight).
func TestRunVerifyGolden(t *testing.T) {
	out, err := runVerifyOut(t, "e1000e")
	if err != nil {
		t.Fatalf("verify e1000e failed: %v\n%s", err, out)
	}
	checkGolden(t, "verify_e1000e.golden", out)
}

// TestRunVerifyBreakGolden: the ablation run fails with the accessor-view
// reproducers, also byte-stable.
func TestRunVerifyBreakGolden(t *testing.T) {
	out, err := runVerifyOut(t, "-break", "e1000e")
	if err == nil {
		t.Fatalf("ablated verify passed:\n%s", out)
	}
	if !strings.Contains(out, "view=accessor") || !strings.Contains(out, "image ") {
		t.Errorf("failure rendering lacks the reproducer:\n%s", out)
	}
	checkGolden(t, "verify_break_e1000e.golden", out)
}

// TestRunVerifyAll: every bundled description passes exhaustively.
func TestRunVerifyAll(t *testing.T) {
	out, err := runVerifyOut(t, "-all")
	if err != nil {
		t.Fatalf("verify -all failed: %v\n%s", err, out)
	}
	if got := strings.Count(out, "PASS"); got != 6 {
		t.Errorf("%d PASS lines, want 6:\n%s", got, out)
	}
	// One throughput line per description and one for the whole pass.
	if got := strings.Count(out, " cases/s)"); got != 7 {
		t.Errorf("%d throughput lines, want 7:\n%s", got, out)
	}
	if !strings.Contains(out, "timing, all 6 descriptions: 892 cases in ") {
		t.Errorf("missing the total throughput line:\n%s", out)
	}
}

// TestRunVerifyMutants: the seeded sweep renders its histogram and is
// deterministic across invocations.
func TestRunVerifyMutants(t *testing.T) {
	a, err := runVerifyOut(t, "-mutants", "24", "-seed", "9", "ixgbe")
	if err != nil {
		t.Fatalf("mutant sweep failed: %v\n%s", err, a)
	}
	if !strings.Contains(a, "mutants ixgbe: 24 screened") {
		t.Errorf("missing sweep summary:\n%s", a)
	}
	b, err := runVerifyOut(t, "-mutants", "24", "-seed", "9", "ixgbe")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("mutant sweep output not deterministic for identical seed")
	}
}

// TestRunVerifyCert: certificate mode prints the digest-keyed verdict.
func TestRunVerifyCert(t *testing.T) {
	out, err := runVerifyOut(t, "-cert", "mlx5")
	if err != nil {
		t.Fatalf("cert failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "certificate mlx5") || !strings.Contains(out, "PASS") {
		t.Errorf("unexpected certificate rendering:\n%s", out)
	}
}

// TestRunVerifyFile: a .p4 file path resolves like any description; an
// unverifiable one (wide semantic field) is a structured rejection.
func TestRunVerifyFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wide.p4")
	src := `
struct ctx_t { bit<1> f; }
struct meta_t { @semantic("rss") bit<96> h; }
@bind("CTX","ctx_t") @bind("META","meta_t")
control CmptDeparser<CTX,META>(cmpt_out co, in CTX ctx, in META m) {
    apply { co.emit(m.h); }
}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runVerifyOut(t, path)
	if err == nil {
		t.Fatalf("wide-field description verified:\n%s", out)
	}
	if !strings.Contains(out, "REJECTED") || !strings.Contains(out, "96 bits") {
		t.Errorf("rejection rendering:\n%s", out)
	}
}

// TestRunVerifyArgErrors: flag misuse is reported, not silently tolerated.
func TestRunVerifyArgErrors(t *testing.T) {
	if _, err := runVerifyOut(t); err == nil {
		t.Error("no target should fail")
	}
	if _, err := runVerifyOut(t, "-all", "e1000e"); err == nil {
		t.Error("-all with an explicit target should fail")
	}
	if _, err := runVerifyOut(t, "notanic"); err == nil {
		t.Error("unknown model should fail")
	}
}
