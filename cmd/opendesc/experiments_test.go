package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"opendesc/internal/obs/flight"
)

// TestUnknownExperimentExits2: an id the registry does not have is a usage
// error even beside one it does — nothing runs, the id is named and the
// registry listed. The retired `baseline` and `compare` subcommands are
// ordinary unknown ids.
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
		if code := runExperiments(args, &stdout, &stderr); code != 2 {
			t.Errorf("experiments %v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("experiments %v ran an experiment before rejecting the arguments:\n%s", args, &stdout)
		}
		msg := stderr.String()
		if !strings.Contains(msg, "unknown experiment") || !strings.Contains(msg, "e1 e2 e3") || !strings.Contains(msg, "e22") {
			t.Errorf("experiments %v: stderr %q does not name the id and list the registry", args, msg)
		}
	}
}

// TestFlightDumpDecodes is CI's flight-smoke step: `-quick -flight-dump dir
// e17` prints the table and every postmortem it writes decodes.
func TestFlightDumpDecodes(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := runExperiments([]string{"-quick", "-flight-dump", dir, "E17"}, &stdout, &stderr); code != 0 {
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

// TestFleetTraceOfE20: E20's 16-host fleet artifacts rebuild into one
// timeline — the controller process with both rollouts, the rollback
// verdict and the telemetry sweep, and one process per host — and merge as
// flight dumps alone.
func TestFleetTraceOfE20(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := runExperiments([]string{"-quick", "-flight-dump", dir, "e20"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, &stderr)
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "*.odfl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 16 {
		t.Fatalf("%d host dumps, want 16", len(dumps))
	}
	var out bytes.Buffer
	if err := runFleetTrace(append([]string{filepath.Join(dir, "spans.json")}, dumps...), &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("fleet trace is not valid JSON: %v", err)
	}
	processes := map[string]int{}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
		if ev.Name == "process_name" {
			processes[ev.Args["name"].(string)] = ev.PID
		}
	}
	for _, want := range []string{"rollout widen gen 2", "rollout tampered gen 3", "rollback", "telemetry sweep"} {
		if !names[want] {
			t.Errorf("fleet trace has no %q span", want)
		}
	}
	if pid, ok := processes["controller"]; !ok || pid != 0 {
		t.Errorf("controller process: pid %d, present %v; want pid 0", pid, ok)
	}
	for _, d := range dumps {
		if host := strings.TrimSuffix(filepath.Base(d), ".odfl"); processes[host] == 0 {
			t.Errorf("no process for host %s", host)
		}
	}
	if len(processes) != 17 {
		t.Errorf("%d processes, want the controller and 16 hosts", len(processes))
	}
	if err := runFlight(append([]string{"-merge"}, dumps...), &bytes.Buffer{}); err != nil {
		t.Errorf("flight -merge of E20's dumps: %v", err)
	}
}
