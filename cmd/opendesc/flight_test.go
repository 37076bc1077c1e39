package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"opendesc/internal/fleet/telemetry"
	"opendesc/internal/obs/flight"
)

// testSnapshot is a deterministic flight snapshot covering the event shapes
// the decoder has to render: instants, a deliver span with latencies, and
// the degrade→reset→restore recovery arc.
func testSnapshot() *flight.Snapshot {
	return &flight.Snapshot{
		Reason: "watchdog-degrade",
		Epoch:  time.Unix(1700000000, 0).UTC(),
		Queues: []flight.QueueEvents{{
			ID:   0,
			Name: "q0",
			Events: []flight.Event{
				{TS: 1000, Code: flight.EvDMAEmit, Seq: 1, Arg0: 8, Arg1: 2},
				{TS: 1100, Code: flight.EvRingPush, Seq: 0, Arg0: 1},
				{TS: 2000, Code: flight.EvRingPop, Seq: 0, Arg0: 0},
				{TS: 2100, Code: flight.EvVerdict, Seq: 1, Arg0: 0, Arg1: 8},
				{TS: 2200, Code: flight.EvReadHW, Seq: 1, Arg0: flight.PackName("rss")},
				{TS: 2500, Code: flight.EvDeliver, Seq: 1, Arg0: 900, Arg1: 1500},
				{TS: 5000, Code: flight.EvDegrade, Seq: 1, Arg0: 8},
				{TS: 6000, Code: flight.EvResetAttempt, Seq: 1, Arg0: 1, Arg1: 1},
				{TS: 7000, Code: flight.EvRestore, Seq: 1, Arg0: 1},
			},
		}},
	}
}

// writeDump serializes the test snapshot to a temp .odfl file.
func writeDump(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.odfl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testSnapshot().WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunFlightText(t *testing.T) {
	path := writeDump(t)
	var out bytes.Buffer
	if err := runFlight([]string{path}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"reason: watchdog-degrade",
		`queue 0 "q0": 9 events`,
		"dma_emit", "verdict", "sem=rss",
		"dma→poll=900ns dma→deliver=1500ns",
		"degrade", "reset_attempt", "restore",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("decoded text missing %q:\n%s", want, text)
		}
	}
}

func TestRunFlightChromeGolden(t *testing.T) {
	path := writeDump(t)
	var out bytes.Buffer
	if err := runFlight([]string{"-chrome", path}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	// Well-formedness: the export must parse as trace_event JSON with the
	// expected top-level shape.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, out.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no traceEvents")
	}
	golden := filepath.Join("testdata", "flight_trace.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("chrome trace drifted from golden (run with -update-golden to refresh):\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}

func TestRunFlightErrors(t *testing.T) {
	if err := runFlight([]string{}, &bytes.Buffer{}, io.Discard); err == nil {
		t.Error("no arguments should fail")
	}
	if err := runFlight([]string{filepath.Join(t.TempDir(), "missing.odfl")}, &bytes.Buffer{}, io.Discard); err == nil {
		t.Error("missing file should fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.odfl")
	if err := os.WriteFile(bad, []byte("not a dump"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runFlight([]string{bad}, &bytes.Buffer{}, io.Discard); err == nil {
		t.Error("bad magic should fail")
	}
}

func TestRunFlightOutputFile(t *testing.T) {
	path := writeDump(t)
	outPath := filepath.Join(t.TempDir(), "decoded.txt")
	if err := runFlight([]string{"-o", outPath, path}, &bytes.Buffer{}, io.Discard); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "flight snapshot") {
		t.Errorf("-o output incomplete: %q", b)
	}
}

func TestRunFlightMergeGolden(t *testing.T) {
	dir := t.TempDir()
	a := writeSnapshotDump(t, dir, "host-a", testSnapshot())
	b := writeSnapshotDump(t, dir, "host-b", secondSnapshot())

	var out bytes.Buffer
	if err := runFlight([]string{a, b}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("merged export is not valid JSON: %v\n%s", err, out.String())
	}
	// Both dumps contribute, on distinct process tracks named by basename.
	pids := map[float64]bool{}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if pid, ok := ev["pid"].(float64); ok {
			pids[pid] = true
		}
		if ev["name"] == "process_name" {
			if args, ok := ev["args"].(map[string]any); ok {
				names[args["name"].(string)] = true
			}
		}
	}
	if len(pids) < 2 || !names["host-a"] || !names["host-b"] {
		t.Fatalf("merged trace lacks per-file process tracks: pids=%v names=%v", pids, names)
	}

	golden := filepath.Join("testdata", "flight_merge.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("merged trace drifted from golden (run with -update-golden to refresh):\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}

// TestRunFlightMergeErrors: one input that is neither a dump nor a span
// file refuses the whole merge, and the error names that input.
func TestRunFlightMergeErrors(t *testing.T) {
	dir := t.TempDir()
	a := writeSnapshotDump(t, dir, "host-a", testSnapshot())
	junk := filepath.Join(dir, "junk.odfl")
	if err := os.WriteFile(junk, []byte("not a dump"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := runFlight([]string{a, junk}, &out, io.Discard)
	if err == nil || out.Len() != 0 {
		t.Fatalf("merge with %s: err %v, %d bytes written; want a refusal", junk, err, out.Len())
	}
	if !strings.Contains(err.Error(), junk) || !strings.Contains(err.Error(), "neither a flight dump nor a span file") {
		t.Errorf("error %q does not name %s as neither input kind", err, junk)
	}
}

// secondSnapshot is a second deterministic host ring so merged traces have
// two distinct process tracks on one timeline.
func secondSnapshot() *flight.Snapshot {
	return &flight.Snapshot{
		Reason: "telemetry",
		Epoch:  time.Unix(1700000000, 0).UTC(),
		Queues: []flight.QueueEvents{{
			ID:   0,
			Name: "q0",
			Events: []flight.Event{
				{TS: 1500, Code: flight.EvRingPush, Seq: 0, Arg0: 1},
				{TS: 3100, Code: flight.EvDeliver, Seq: 1, Arg0: 400, Arg1: 900},
				{TS: 4200, Code: flight.EvGarbage, Seq: 2, Arg0: flight.PackName("rss"), Arg1: 3},
			},
		}},
	}
}

// writeSnapshotDump serializes one snapshot under the given basename; the
// basename becomes the merged trace's process name.
func writeSnapshotDump(t *testing.T, dir, base string, snap *flight.Snapshot) string {
	t.Helper()
	path := filepath.Join(dir, base+".odfl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// testSpans is a deterministic controller span tree: one rollout wrapping a
// trial and a bake, ending in a promote instant.
func testSpans() []telemetry.Span {
	return []telemetry.Span{
		{Name: "rollout widen gen 2", Cat: "rollout", Track: "rollout", StartNs: 1000, EndNs: 9000,
			Args: map[string]string{"gen": "2", "targets": "2"}},
		{Name: "trial host-a", Cat: "trial", Track: "host-a", StartNs: 1200, EndNs: 6000},
		{Name: "bake", Cat: "bake", Track: "bake", StartNs: 2000, EndNs: 8000},
		{Name: "promote", Cat: "verdict", Track: "rollout", StartNs: 9000, EndNs: 9000,
			Args: map[string]string{"hosts": "2"}},
	}
}

func writeSpanFile(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "spans.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteSpans(f, testSpans()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunFleetTraceGolden: a span file among the dumps puts the
// controller's span tree on process 0 of the merged trace, whatever the
// span file's position and with -chrome implied or given.
func TestRunFleetTraceGolden(t *testing.T) {
	dir := t.TempDir()
	spans := writeSpanFile(t, dir)
	hostA := writeSnapshotDump(t, dir, "host-a", testSnapshot())
	hostB := writeSnapshotDump(t, dir, "host-b", secondSnapshot())

	var out bytes.Buffer
	if err := runFlight([]string{"-chrome", spans, hostA, hostB}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("fleet trace is not valid JSON: %v\n%s", err, out.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("fleet trace has no traceEvents")
	}
	text := out.String()
	for _, want := range []string{
		`"controller"`, `"rollout widen gen 2"`, `"trial host-a"`, `"promote"`,
		`"host-a"`, `"host-b"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet trace missing %s", want)
		}
	}

	golden := filepath.Join("testdata", "fleet_trace.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("fleet trace drifted from golden (run with -update-golden to refresh):\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
	var moved bytes.Buffer
	if err := runFlight([]string{hostA, spans, hostB}, &moved, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(moved.Bytes(), want) {
		t.Error("the span file's position among the inputs changed the trace")
	}
}

// TestRunFleetTraceSpansAlone: a span file with no dumps is still a merge,
// the controller process only.
func TestRunFleetTraceSpansAlone(t *testing.T) {
	var out bytes.Buffer
	if err := runFlight([]string{writeSpanFile(t, t.TempDir())}, &out, io.Discard); err != nil {
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
		t.Fatalf("span-only trace is not valid JSON: %v\n%s", err, out.String())
	}
	var processes []string
	for _, ev := range doc.TraceEvents {
		if ev.PID != 0 {
			t.Errorf("event %q on process %d, want the controller's 0", ev.Name, ev.PID)
		}
		if ev.Name == "process_name" {
			processes = append(processes, ev.Args["name"].(string))
		}
	}
	if len(processes) != 1 || processes[0] != "controller" || len(doc.TraceEvents) != 1+3+len(testSpans()) {
		t.Errorf("processes %v, %d events; want the controller's 3 tracks and %d spans", processes, len(doc.TraceEvents), len(testSpans()))
	}
}

// TestRunFleetTraceErrors: a trace has one controller, and a JSON file of
// another schema is neither input kind; both are refused naming the file.
func TestRunFleetTraceErrors(t *testing.T) {
	dir := t.TempDir()
	spans := writeSpanFile(t, dir)
	host := writeSnapshotDump(t, dir, "host-a", testSnapshot())
	other := filepath.Join(dir, "other.json")
	if err := os.WriteFile(other, []byte(`{"schema":"wrong/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		says []string
	}{
		{[]string{spans, host, spans}, []string{"two span files", spans}},
		{[]string{other, host}, []string{other, "neither a flight dump nor a span file", "wrong/v9"}},
	} {
		var out bytes.Buffer
		err := runFlight(tc.args, &out, io.Discard)
		if err == nil || out.Len() != 0 {
			t.Errorf("%v: err %v, %d bytes written; want a refusal before any output", tc.args, err, out.Len())
			continue
		}
		for _, s := range tc.says {
			if !strings.Contains(err.Error(), s) {
				t.Errorf("%v: error %q does not name %q", tc.args, err, s)
			}
		}
	}
}
