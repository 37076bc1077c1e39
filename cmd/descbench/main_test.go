package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"opendesc/internal/obs/flight"
)

// TestUnknownExperimentExits2: an id the registry does not have is a usage
// error even beside one it does — nothing runs, the id is named and the
// registry listed. The retired `baseline` and `compare` subcommands are
// ordinary unknown ids now.
func TestUnknownExperimentExits2(t *testing.T) {
	for _, args := range [][]string{
		{"e99"},
		{"e1", "e99"},
		{"e11"},
		{"baseline", "-out", "."},
		{"compare", "old.json", "new.json"},
		{"-quick", "e17", "-flight-dump", "dir"}, // flags go before the ids
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("descbench %v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("descbench %v ran an experiment before rejecting the arguments:\n%s", args, &stdout)
		}
		msg := stderr.String()
		if !strings.Contains(msg, "unknown experiment") || !strings.Contains(msg, "e1 e2 e3") || !strings.Contains(msg, "e22") {
			t.Errorf("descbench %v: stderr %q does not name the id and list the registry", args, msg)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-packets", "512", "e1"}, &stdout, &stderr); code != 2 {
		t.Errorf("retired flag -packets: exit %d, want 2", code)
	}
}

// TestFlightDumpDecodes is CI's flight-smoke step: `-quick -flight-dump dir
// e17` prints the table and every postmortem it writes decodes.
func TestFlightDumpDecodes(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-flight-dump", dir, "E17"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, &stderr)
	}
	if !strings.Contains(stdout.String(), "== E17:") {
		t.Errorf("no E17 table on stdout:\n%s", &stdout)
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "*.odfl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) == 0 {
		t.Fatal("no .odfl dump written")
	}
	for _, path := range dumps {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := flight.ReadDump(f)
		f.Close()
		if err != nil {
			t.Errorf("%s does not decode: %v", path, err)
		} else if len(snap.Queues) == 0 {
			t.Errorf("%s decodes to an empty snapshot", path)
		}
	}
}
