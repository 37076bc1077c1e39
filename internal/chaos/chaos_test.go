package chaos

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestDeterministicTrace is the central determinism guarantee: the same
// (seed, config) pair produces a byte-identical trace on every run. The two
// runs execute concurrently so `go test -race` also proves the harness
// shares no hidden mutable state between runs.
func TestDeterministicTrace(t *testing.T) {
	scenarios := []Config{
		{Mode: ModeHarden, Steps: 256},
		{Mode: ModeHarden, Steps: 256, Queues: 3},
		{Mode: ModeEvolve, Steps: 256, NIC: "ice"},
	}
	for _, cfg := range scenarios {
		for seed := uint64(1); seed <= 3; seed++ {
			var wg sync.WaitGroup
			out := make([]*Result, 2)
			for i := range out {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					out[i] = Run(cfg, seed)
				}(i)
			}
			wg.Wait()
			if !bytes.Equal(out[0].Trace, out[1].Trace) {
				t.Fatalf("%s seed=%d: traces differ across runs:\n--- run A\n%s\n--- run B\n%s",
					cfg, seed, out[0].Trace, out[1].Trace)
			}
			if out[0].Violation != nil {
				t.Fatalf("%s seed=%d: unexpected violation: %v", cfg, seed, out[0].Violation)
			}
		}
	}
}

// TestCleanSweep runs a small seed corpus over every bundled NIC in both
// modes and expects every oracle to hold (`opendesc experiments e18` is the
// 10k-case version of this).
func TestCleanSweep(t *testing.T) {
	for _, nic := range []string{"e1000", "e1000e", "ice", "ixgbe", "mlx5", "qdma"} {
		for _, mode := range []Mode{ModeHarden, ModeEvolve} {
			cfg := Config{NIC: nic, Mode: mode, Steps: 192}
			for seed := uint64(1); seed <= 4; seed++ {
				if res := Run(cfg, seed); res.Violation != nil {
					t.Errorf("%s seed=%d: %v\ntrace tail:\n%s",
						cfg, seed, res.Violation, tail(res.Trace, 12))
				}
			}
		}
	}
}

// TestComposedSweep holds the evolve mode to what it now is — the hardened
// driver with the renegotiation control plane under it, on the full fault
// matrix. The intent carries the rss/ip_checksum tension, so the shifting mix
// keeps moving the layout, and the sweep must actually reach every mechanism
// at once: switchovers, rollbacks (NAKs and hangs mid-switch), quarantines
// and watchdog restores, with every oracle holding.
func TestComposedSweep(t *testing.T) {
	sems := []string{"rss", "ip_checksum", "vlan", "pkt_len"}
	for _, nic := range []string{"e1000e", "ice", "mlx5", "qdma"} {
		var sum Result
		for seed := uint64(1); seed <= 24; seed++ {
			cfg := Config{NIC: nic, Mode: ModeEvolve, Steps: 512, Semantics: sems, Queues: 1 + int(seed%2)}
			res := Run(cfg, seed)
			if res.Violation != nil {
				t.Fatalf("%s seed=%d: %v\ntrace tail:\n%s", cfg, seed, res.Violation, tail(res.Trace, 12))
			}
			sum.Switchovers += res.Switchovers
			sum.Rollbacks += res.Rollbacks
			sum.Quarantined += res.Quarantined
			sum.Restores += res.Restores
		}
		if sum.Switchovers == 0 || sum.Rollbacks == 0 || sum.Quarantined == 0 || sum.Restores == 0 {
			t.Errorf("%s: sweep missed a mechanism: %d switchovers, %d rollbacks, %d quarantined, %d restores",
				nic, sum.Switchovers, sum.Rollbacks, sum.Quarantined, sum.Restores)
		}
	}
}

// TestResyncBugCaughtAndShrunk re-opens the known pre-resync liveness bug
// (DisableResync: a lost completion leaves its packet pending forever) and
// proves the pipeline end to end: an oracle catches it, the shrinker
// minimizes it to a handful of events, and the emitted spec replays to the
// same violation.
func TestResyncBugCaughtAndShrunk(t *testing.T) {
	cfg := Config{Mode: ModeHarden, Steps: 256, DisableResync: true}
	var seed uint64
	var res *Result
	for s := uint64(1); s <= 64; s++ {
		if r := Run(cfg, s); r.Violation != nil {
			seed, res = s, r
			break
		}
	}
	if res == nil {
		t.Fatal("no seed in 1..64 tripped an oracle with the resync path disabled")
	}
	if o := res.Violation.Oracle; o != "stuck-pending" && o != "delivery-complete" {
		t.Fatalf("expected the liveness bug to trip stuck-pending or delivery-complete, got %v", res.Violation)
	}

	sh := ShrinkToSpec(cfg, Generate(cfg, seed), res.Violation)
	t.Logf("shrunk %d -> %d events (oracle %s)", cfg.Steps, len(sh.Schedule.Events), sh.Result.Violation.Oracle)
	if len(sh.Schedule.Events) > 10 {
		t.Errorf("shrunk reproducer has %d events, want <= 10:\n%s", len(sh.Schedule.Events), sh.Spec)
	}
	if sh.Result.Violation.Oracle != res.Violation.Oracle {
		t.Errorf("shrink drifted from oracle %s to %s", res.Violation.Oracle, sh.Result.Violation.Oracle)
	}

	// The spec must replay to the same oracle.
	cfg2, s2, err := ParseSpec(sh.Spec)
	if err != nil {
		t.Fatalf("parsing emitted spec: %v\n%s", err, sh.Spec)
	}
	replay := RunSchedule(cfg2, s2)
	if replay.Violation == nil || replay.Violation.Oracle != res.Violation.Oracle {
		t.Fatalf("spec replay got %v, want oracle %s\n%s", replay.Violation, res.Violation.Oracle, sh.Spec)
	}
	// And a shrunk schedule replays deterministically: same trace both times.
	if again := RunSchedule(cfg2, s2); !bytes.Equal(again.Trace, replay.Trace) {
		t.Error("shrunk reproducer replays with a different trace")
	}
}

// TestSpecRoundTrip checks FormatSpec/ParseSpec over generated schedules of
// every cell: the config line carries everything the cell's setup reads, so
// the parsed spec replays to Run's trace byte for byte.
func TestSpecRoundTrip(t *testing.T) {
	cfg := Config{NIC: "mlx5", Mode: ModeEvolve, Queues: 2, Steps: 64, DisableResync: true}
	s := Generate(cfg, 77)
	spec := FormatSpec(cfg, s, &Violation{Oracle: "exactly-once", Step: 3, Detail: "x"})
	cfg2, s2, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec: %v\n%s", err, spec)
	}
	if cfg2.NIC != "mlx5" || cfg2.Mode != ModeEvolve || cfg2.Queues != 2 ||
		cfg2.RingEntries != 64 || !cfg2.DisableResync {
		t.Errorf("config did not round-trip: %+v", cfg2)
	}
	if got, want := strings.Join(cfg2.Semantics, ","), "rss,vlan,pkt_len"; got != want {
		t.Errorf("semantics round-trip: got %s, want %s", got, want)
	}
	if s2.Seed != 77 || !reflect.DeepEqual(s.Events, s2.Events) {
		t.Errorf("schedule did not round-trip (seed %d, %d vs %d events)", s2.Seed, len(s.Events), len(s2.Events))
	}

	for _, cfg := range []Config{
		{Mode: ModeHarden, Queues: 3, Steps: 128},
		{Mode: ModeTenant, Tenants: 6, Queues: 3, Steps: 192},
		{Mode: ModeFleet, Queues: 6, Steps: 192},
		{Mode: ModeFleet, Queues: 6, Steps: 128, ForgedTelemetry: true, MutatedDescription: true},
	} {
		s := Generate(cfg, 5)
		cfg2, s2, err := ParseSpec(FormatSpec(cfg, s, nil))
		if err != nil {
			t.Fatalf("%s: ParseSpec: %v", cfg, err)
		}
		run, replay := Run(cfg, 5), RunSchedule(cfg2, s2)
		if run.Violation != nil {
			t.Fatalf("%s: %v", cfg, run.Violation)
		}
		if !reflect.DeepEqual(run, replay) {
			t.Errorf("%s: the parsed spec replays differently:\n--- run\n%s\n--- replay\n%s", cfg, tail(run.Trace, 8), tail(replay.Trace, 8))
		}
	}
}

// TestSpecParseErrors exercises the spec parser's failure modes.
func TestSpecParseErrors(t *testing.T) {
	for _, bad := range []string{
		"event rx q0\n",                               // no config line
		"config nic=e1000e\nevent frob q0\n",          // unknown event
		"config nic=e1000e\nevent fault q0 zap\n",     // unknown fault class
		"config bogus=1\n",                            // unknown config key
		"config queues\n",                             // not key=value
		"banana split\n",                              // unknown directive
		"config mode=tenant nic=mlx5\n",               // a key the tenant cell does not read
		"config mode=harden steps=64\n",               // only the tenant cell reads steps
		"config mode=fleet queues=4\nevent poll q4\n", // lane out of range
		"config mode=tenant\nevent reneg 4\n",         // tenant out of range
		"config mode=fleet\nevent mixshift q0 1\n",    // an event the cell does not run
	} {
		if _, _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
}

// TestViolationDump checks that a violating run with a dump directory writes
// a non-empty .odfl flight postmortem.
func TestViolationDump(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Mode: ModeHarden, Steps: 256, DisableResync: true, DumpDir: dir}
	var res *Result
	for s := uint64(1); s <= 64; s++ {
		if r := Run(cfg, s); r.Violation != nil {
			res = r
			break
		}
	}
	if res == nil {
		t.Fatal("no violating seed found")
	}
	if len(res.DumpFiles) == 0 {
		t.Fatal("violation produced no dump files")
	}
	for _, f := range res.DumpFiles {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatalf("dump file: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("dump file %s is empty", f)
		}
	}
}

// TestParseMode covers the mode parser.
func TestParseMode(t *testing.T) {
	if m, err := ParseMode("evolve"); err != nil || m != ModeEvolve {
		t.Errorf("ParseMode(evolve) = %v, %v", m, err)
	}
	if m, err := ParseMode("harden"); err != nil || m != ModeHarden {
		t.Errorf("ParseMode(harden) = %v, %v", m, err)
	}
	for _, m := range []Mode{ModeTenant, ModeFleet} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%s) = %v, %v", m, got, err)
		}
	}
	if _, err := ParseMode("yolo"); err == nil {
		t.Error("ParseMode(yolo) succeeded")
	}
}

// tail returns the last n lines of a trace for failure messages.
func tail(trace []byte, n int) string {
	lines := strings.Split(strings.TrimRight(string(trace), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
