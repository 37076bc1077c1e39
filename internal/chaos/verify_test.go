package chaos

import (
	"strings"
	"testing"

	"opendesc/internal/diffverify"
	"opendesc/internal/nic"
)

// TestDiffverifyOracleFires: a description that fails differential
// verification trips the diffverify oracle before a single schedule event
// executes — the datapath never opens on an uncertified description.
func TestDiffverifyOracleFires(t *testing.T) {
	m := nic.MustLoad("e1000e")
	src, err := diffverify.WidenFirstSemantic(m.Source, 96)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(Config{NIC: "e1000e", VerifyOverride: src, Steps: 64}, 1)
	if res.Violation == nil {
		t.Fatal("unverifiable description ran without a violation")
	}
	if res.Violation.Oracle != "diffverify" {
		t.Fatalf("oracle %q fired, want diffverify", res.Violation.Oracle)
	}
	if !strings.Contains(res.Violation.Detail, "96 bits") {
		t.Errorf("violation detail %q does not carry the harness rejection", res.Violation.Detail)
	}
	if res.Events != 0 {
		t.Errorf("%d events executed on an uncertified description, want 0", res.Events)
	}
}

// TestDiffverifyOracleClean: every bundled description certifies, so the
// oracle is silent on ordinary runs (and the certificate cache keeps the
// per-run cost at one map lookup).
func TestDiffverifyOracleClean(t *testing.T) {
	for _, m := range nic.All() {
		res := Run(Config{NIC: m.Name, Steps: 32}, 7)
		if res.Violation != nil && res.Violation.Oracle == "diffverify" {
			t.Errorf("%s: diffverify oracle fired on a bundled description: %s", m.Name, res.Violation.Detail)
		}
	}
}

// TestFleetMutatedDescription is the S27 end-to-end gating scenario: one
// host republishes its description with a semantic field widened past the
// accessor domain (digest and capability claims recomputed, so structural
// validation passes). The run must bootstrap with that host quarantined for
// a verification reason, and the verified-gating oracle holds through the
// whole schedule — the host never receives a provision, trial, or
// promotion, while the rest of the fleet rolls out normally.
func TestFleetMutatedDescription(t *testing.T) {
	cfg := Config{Mode: ModeFleet, Queues: 6, Steps: 384, MutatedDescription: true}
	var promotions uint64
	for seed := uint64(1); seed <= 6; seed++ {
		res := Run(cfg, seed)
		if res.Violation != nil {
			t.Fatalf("seed %d: %v\ntrace tail:\n%s", seed, res.Violation, tail(res.Trace, 2000))
		}
		if res.Accepted != res.Delivered {
			t.Fatalf("seed %d: accepted %d != delivered %d", seed, res.Accepted, res.Delivered)
		}
		promotions += res.Promotions
	}
	// The fleet around the quarantined host must still make progress, or the
	// scenario proves gating by proving nothing rolled out at all.
	if promotions == 0 {
		t.Fatal("no promotions across the sweep — the healthy fleet made no progress")
	}
}

// TestFleetMutatedDescriptionDeterministic: the gating scenario replays to
// a byte-identical trace (the harness and certificate cache add no
// nondeterminism).
func TestFleetMutatedDescriptionDeterministic(t *testing.T) {
	cfg := Config{Mode: ModeFleet, Queues: 6, Steps: 192, MutatedDescription: true}
	a := Run(cfg, 11)
	b := Run(cfg, 11)
	if a.Violation != nil || b.Violation != nil {
		t.Fatalf("violations: %v / %v", a.Violation, b.Violation)
	}
	if string(a.Trace) != string(b.Trace) {
		t.Fatal("traces differ for identical (cfg, seed)")
	}
}
