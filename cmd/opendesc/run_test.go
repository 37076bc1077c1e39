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

// TestFlagOutsideItsModeExits2: each subcommand parses its own flags, so a
// flag it does not read — the retired demo and trace flags included — is a
// usage error naming the flag, and so is an unknown experiment id or a flag
// placed after one. Nothing runs and nothing is written.
func TestFlagOutsideItsModeExits2(t *testing.T) {
	dir := t.TempDir()
	in := func(name string) string { return filepath.Join(dir, name) }
	for _, tc := range []struct {
		sub  func(args []string, stdout, stderr io.Writer) int
		args []string
		says string // what stderr must name
	}{
		{runDriver, []string{"-fleet", "2"}, "-fleet"},
		{runDriver, []string{"-tenants", "2"}, "-tenants"},
		{runDriver, []string{"-trace", in("t.json")}, "-trace"},
		{runDriver, []string{"-spans", in("s.json"), "-flight-dump", in("dumps")}, "-spans"},
		{runDriver, []string{"-dump-flight", in("dumps"), "-evolve"}, "-dump-flight"},
		{runDriver, []string{"-packets", "64", "extra"}, "unexpected arguments"},
		{runExperiments, []string{"-faults", "drop=1e-3"}, "-faults"},
		{runExperiments, []string{"-packets", "512", "e1"}, "-packets"},
		{runExperiments, []string{"e99"}, `unknown experiment "e99"`},
		{runExperiments, []string{"-quick", "e17", "-flight-dump", in("dumps")}, `unknown experiment "-flight-dump"`},
		{subcommands["chaos"], []string{"-mode", "tenant", "-nic", "ice"}, "does not read NIC"},
		{subcommands["chaos"], []string{"-mode", "fleet", "-dump", in("dumps")}, "does not read DumpDir"},
		{subcommands["flight"], []string{"-spans", in("s.json"), in("a.odfl")}, "-spans"},
		{subcommands["flight"], []string{"-o", in("t.json")}, "one or more input files"},
	} {
		var stdout, stderr bytes.Buffer
		if code := tc.sub(tc.args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 before anything runs", tc.args, code, &stdout)
		}
		if !strings.Contains(stderr.String(), tc.says) {
			t.Errorf("%v: stderr %q does not name %s", tc.args, &stderr, tc.says)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("%v wrote %d files before refusing", tc.args, len(left))
		}
	}
}

// TestHelpExits0: -h prints a subcommand's flags and exits 0, as asking
// for help is not a usage error.
func TestHelpExits0(t *testing.T) {
	for name, sub := range map[string]func(args []string, stdout, stderr io.Writer) int{
		"run": runDriver, "experiments": runExperiments, "chaos": subcommands["chaos"], "flight": subcommands["flight"],
	} {
		var stdout, stderr bytes.Buffer
		if code := sub([]string{"-h"}, &stdout, &stderr); code != 0 {
			t.Errorf("%s -h: exit %d, stderr %q; want 0", name, code, &stderr)
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
		sub    func(args []string, stdout, stderr io.Writer) int
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
			if code := tc.sub(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\n%s%s", code, &stdout, &stderr)
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
		if code := runDriver(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d\n%s%s", code, &stdout, &stderr)
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
