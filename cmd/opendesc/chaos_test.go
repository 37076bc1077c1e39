package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunChaosClean: a small clean sweep exits zero and reports its summary.
func TestRunChaosClean(t *testing.T) {
	var out bytes.Buffer
	if err := runChaos([]string{"-cases", "3", "-steps", "96"}, &out, io.Discard); err != nil {
		t.Fatalf("clean sweep failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0 violations") {
		t.Errorf("summary missing violation count:\n%s", out.String())
	}
}

// TestRunChaosBugShrinkReplay drives the full CLI loop: -bug re-opens the
// resync liveness bug, -shrink emits a reproducer spec, and -replay runs the
// spec back to the same violation.
func TestRunChaosBugShrinkReplay(t *testing.T) {
	// Find a violating seed first (cheap — the bug trips quickly).
	var seed string
	var out bytes.Buffer
	for _, s := range []string{"1", "2", "3", "4", "5", "6", "7", "8"} {
		out.Reset()
		if err := runChaos([]string{"-seed", s, "-steps", "256", "-bug"}, &out, io.Discard); err != nil {
			seed = s
			break
		}
	}
	if seed == "" {
		t.Fatal("no seed in 1..8 tripped an oracle with -bug")
	}

	out.Reset()
	err := runChaos([]string{"-seed", seed, "-steps", "256", "-bug", "-shrink"}, &out, io.Discard)
	if err == nil {
		t.Fatalf("violating run exited zero:\n%s", out.String())
	}
	text := out.String()
	if !strings.Contains(text, "chaos FAIL") || !strings.Contains(text, "shrunk to") {
		t.Fatalf("missing failure/shrink report:\n%s", text)
	}
	// Extract the emitted spec (everything from the reproducer header on).
	i := strings.Index(text, "# opendesc chaos reproducer")
	if i < 0 {
		t.Fatalf("no reproducer spec in output:\n%s", text)
	}
	spec := filepath.Join(t.TempDir(), "repro.chaos")
	if err := os.WriteFile(spec, []byte(text[i:]), 0o644); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if err := runChaos([]string{"-replay", spec}, &out, io.Discard); err == nil {
		t.Fatalf("replayed reproducer did not violate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "chaos FAIL") {
		t.Errorf("replay report missing FAIL:\n%s", out.String())
	}
}

// TestRunChaosFlagErrors covers the argument-validation paths.
func TestRunChaosFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := runChaos([]string{"-mode", "yolo"}, &out, io.Discard); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := runChaos([]string{"stray"}, &out, io.Discard); err == nil {
		t.Error("stray positional argument accepted")
	}
	if err := runChaos([]string{"-replay", "/nonexistent/x.chaos"}, &out, io.Discard); err == nil {
		t.Error("missing replay file accepted")
	}
}
