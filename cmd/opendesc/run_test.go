package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestFlagOutsideItsModeExits2: each mode parses its own flags, so a flag
// it does not read — the retired demo and trace flags included — is a usage
// error naming the flag, and so is an unknown experiment id or a flag placed
// after one, a stray argument, and a compiler command line without a NIC,
// with two intents or with an unknown backend. Nothing runs and nothing is
// written.
func TestFlagOutsideItsModeExits2(t *testing.T) {
	dir := t.TempDir()
	in := func(name string) string { return filepath.Join(dir, name) }
	for _, tc := range []struct {
		mode string
		args []string
		says string // what stderr must name
	}{
		{"run", []string{"-fleet", "2"}, "-fleet"},
		{"run", []string{"-tenants", "2"}, "-tenants"},
		{"run", []string{"-trace", in("t.json")}, "-trace"},
		{"run", []string{"-spans", in("s.json"), "-flight-dump", in("dumps")}, "-spans"},
		{"run", []string{"-dump-flight", in("dumps"), "-evolve"}, "-dump-flight"},
		{"run", []string{"-packets", "64", "extra"}, "unexpected arguments"},
		{"experiments", []string{"-faults", "drop=1e-3"}, "-faults"},
		{"experiments", []string{"-packets", "512", "e1"}, "-packets"},
		{"experiments", []string{"e99"}, `unknown experiment "e99"`},
		{"experiments", []string{"-quick", "e17", "-flight-dump", in("dumps")}, `unknown experiment "-flight-dump"`},
		{"chaos", []string{"-mode", "tenant", "-nic", "ice"}, "does not read NIC"},
		{"chaos", []string{"-mode", "fleet", "-dump", in("dumps")}, "does not read DumpDir"},
		{"flight", []string{"-spans", in("s.json"), in("a.odfl")}, "-spans"},
		{"flight", []string{"-o", in("t.json")}, "one or more input files"},
		{"describe", []string{"-nic", "e1000", "-host", "web-07", "extra"}, "unexpected arguments"},
		{"verify", []string{"-all", "e1000"}, "mutually exclusive"},
		{"", []string{"-req", "rss", "-o", in("gen")}, "missing -nic"},
		{"", []string{"-nic", "e1000", "-intent", in("app.p4"), "-req", "rss", "-o", in("gen")}, "mutually exclusive"},
		{"", []string{"-nic", "e1000", "-o", in("gen")}, "missing intent"},
		{"", []string{"-nic", "e1000", "extra", "-req", "rss", "-o", in("gen")}, "unexpected arguments"},
		{"", []string{"-nic", "e1000", "-req", "rss", "-backend", "rust", "-o", in("gen")}, `unknown backend "rust"`},
		{"", []string{"-diff", "e1000", "e1000e", "extra", "-req", "rss"}, "unexpected arguments"},
		{"", []string{"-req", "rss", "-diff", "e1000"}, "-diff takes two NIC descriptions"},
		{"", []string{"-diff", "e1000", "-req", "rss"}, "-diff takes two NIC descriptions"},
	} {
		var stdout, stderr bytes.Buffer
		if code := dispatch(commandLine(tc.mode, tc.args...), &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%q %v: exit %d, stdout %q; want exit 2 before anything runs", tc.mode, tc.args, code, &stdout)
		}
		if !strings.Contains(stderr.String(), tc.says) {
			t.Errorf("%q %v: stderr %q does not name %s", tc.mode, tc.args, &stderr, tc.says)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("%q %v wrote %d files before refusing", tc.mode, tc.args, len(left))
		}
	}
}

// TestEveryModeRuns is one small run of the driver under each arming: exit 0,
// the compilation report first, and the lines that say the run checked
// itself — exactly-once, in-order delivery and zero garbage reads. Only the
// evolving driver instruments its shims, so only its counters carry the
// opendesc_softnic series. The tenant and fleet rows run the scenarios that
// serve those demos, E19 and E20, through `experiments -quick -v`: their
// transcript opens stdout, ahead of the tables.
func TestEveryModeRuns(t *testing.T) {
	const evolving, report = "rss,ip_checksum,vlan,pkt_len", "OpenDesc compilation: "
	for _, tc := range []struct {
		name   string
		sub    func(args []string, stdout, stderr io.Writer) error
		args   []string
		opens  string // the first line's prefix
		want   []string
		absent string
	}{
		{"plain", runDriver, []string{"-packets", "64", "-stats"}, report,
			[]string{"pushing 64 packets through mlx5", "rx=64 drops=0", "delivered 64/64 exactly once", " 0 garbage metadata reads",
				`opendesc_dev_rx_packets_total{nic="mlx5",queue="0"}`, "TX descriptor formats accepted by mlx5"},
			"opendesc_softnic_"},
		{"kv", runDriver, []string{"-nic", "qdma", "-req", "kv_key,rss", "-kv", "-packets", "64", "-v"}, report,
			[]string{"accessor kv_key", "pkt   63  kv_key       = 0x", "delivered 64/64 exactly once", " 0 garbage metadata reads"}, ""},
		{"evolve", runDriver, []string{"-nic", "e1000e", "-req", evolving, "-packets", "1024", "-evolve", "-stats"}, report,
			[]string{"switchover -> generation 1", "switch-drops=0", "delivered 1024/1024 exactly once",
				`opendesc_softnic_calls_total{nic="e1000e",queue="0",semantic="ip_checksum"}`}, ""},
		{"faults", runDriver, []string{"-nic", "e1000e", "-req", "rss,vlan,pkt_len", "-packets", "4000", "-faults", "corrupt=1e-3,drop=5e-4,hang=1@1500", "-seed", "7"}, report,
			[]string{"delivered 4000/4000 exactly once", " 0 garbage metadata reads", "hardware-restores=1", "final mode: hardware"}, ""},
		{"evolve+faults", runDriver, []string{"-nic", "e1000e", "-req", evolving, "-packets", "4000", "-evolve", "-faults", "corrupt=1e-3,replay=1e-3,drop=5e-4,nak=0.2,hang=1@1500", "-seed", "7"}, report,
			[]string{"switchover -> generation", "switch-drops=0", "delivered 4000/4000 exactly once", " 0 garbage metadata reads", "final mode: hardware"}, ""},
		{"tenants", runExperiments, []string{"-quick", "-v", "e19"}, "serving 1 tenants on 1 cores",
			[]string{"serving 4 tenants on 2 cores", "tenant00 renegotiates", "tenant03    20003", "Jain service fairness: 1.0000", "== E19: "}, ""},
		{"fleet", runExperiments, []string{"-quick", "-v", "e20"}, "fleet: 17 hosts inventoried",
			[]string{"digest mismatch", `rollout "tampered": rolled back`, "telemetry sweep: 16 collected, 0 skipped, 0 rejected", "== E20: "}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := tc.sub(tc.args, &stdout, &stderr); err != nil {
				t.Fatalf("%v\n%s%s", err, &stdout, &stderr)
			}
			out := stdout.String()
			if !strings.HasPrefix(out, tc.opens) {
				t.Errorf("stdout does not open with %q:\n%s", tc.opens, out)
			}
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("stdout lacks %q:\n%s", w, out)
				}
			}
			if tc.absent != "" && strings.Contains(out, tc.absent) {
				t.Errorf("stdout carries %q:\n%s", tc.absent, out)
			}
		})
	}
}

// TestRejectClassesPrintSorted: the validator's reject classes print in
// class order, so two runs of one seed print the same lines.
func TestRejectClassesPrintSorted(t *testing.T) {
	rejects := func() []string {
		var stdout, stderr bytes.Buffer
		args := []string{"-nic", "e1000e", "-req", "rss,vlan,pkt_len", "-packets", "4000", "-faults", "corrupt=1e-3,drop=5e-4,hang=1@1500", "-seed", "7"}
		if err := runDriver(args, &stdout, &stderr); err != nil {
			t.Fatalf("%v\n%s%s", err, &stdout, &stderr)
		}
		var lines []string
		for _, l := range strings.Split(stdout.String(), "\n") {
			if strings.Contains(l, "validator rejects[") {
				lines = append(lines, strings.TrimSpace(l))
			}
		}
		return lines
	}
	first := rejects()
	if len(first) < 2 {
		t.Fatalf("want at least two reject classes to order, got %q", first)
	}
	if !slices.IsSorted(first) {
		t.Errorf("reject classes out of order: %q", first)
	}
	if again := rejects(); !slices.Equal(first, again) {
		t.Errorf("two runs of one seed print %q and %q", first, again)
	}
}

// TestStatsCounterRowsGolden: the device and ring counter rows of one seeded
// ice run under every fault class are byte-stable. The device derives these
// series from per-route and per-engine-set counts, so this pins every count
// to what per-packet counters read. Flight histogram rows are timing and
// stay out.
func TestStatsCounterRowsGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-nic", "ice", "-req", "rss,vlan,pkt_len", "-packets", "20000",
		"-faults", "corrupt=1e-3,truncate=1e-3,dup=1e-3,replay=1e-3,drop=5e-4,hang=2@5000", "-seed", "7", "-stats"}
	if err := runDriver(args, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s%s", err, &stdout, &stderr)
	}
	var rows strings.Builder
	for _, l := range strings.SplitAfter(stdout.String(), "\n") {
		if strings.HasPrefix(l, "opendesc_dev_") || strings.HasPrefix(l, "opendesc_ring_") {
			rows.WriteString(l)
		}
	}
	checkGolden(t, "stats_faults.golden", rows.String())
}
