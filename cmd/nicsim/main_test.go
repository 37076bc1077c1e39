package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// nicsim prints from every run path and exits from fatal, so the tests drive
// the built command: one `go build` per test binary, then plain executions.
var nicsimExe string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "nicsim-test")
	if err != nil {
		panic(err)
	}
	nicsimExe = filepath.Join(dir, "nicsim")
	if out, err := exec.Command("go", "build", "-o", nicsimExe, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("go build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runNicsim runs the command in a scratch directory and returns its exit status
// and streams.
func runNicsim(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(nicsimExe, args...)
	cmd.Dir = dir
	var o, e bytes.Buffer
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), o.String(), e.String()
	}
	if err != nil {
		t.Fatalf("nicsim %v: %v", args, err)
	}
	return 0, o.String(), e.String()
}

// TestFlagOutsideItsModeExits2: a flag the chosen run would silently drop is
// a usage error naming the flag and the runs it applies to; nothing runs and
// nothing is written.
func TestFlagOutsideItsModeExits2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string // the flag refused
		home string // a run it applies to
	}{
		{[]string{"-evolve", "-tenants", "2"}, "-evolve", "-evolve/-faults driver run"},
		{[]string{"-fleet", "2", "-faults", "drop=1e-3"}, "-faults", "-evolve/-faults driver run"},
		{[]string{"-trace", "t.json"}, "-trace", "-fleet demo"},
		{[]string{"-spans", "s.json", "-tenants", "2"}, "-spans", "-fleet demo"},
		{[]string{"-dump-flight", "dumps", "-evolve"}, "-dump-flight", "-fleet demo"},
		{[]string{"-tenants", "2", "-fleet", "2"}, "-tenants", "-tenants demo"},
		{[]string{"-seed", "3"}, "-seed", "-evolve/-faults driver run"},
		{[]string{"-kv", "-faults", "drop=1e-3"}, "-kv", "default cross-check run"},
	} {
		dir := t.TempDir()
		code, stdout, stderr := runNicsim(t, dir, tc.args...)
		if code != 2 || stdout != "" {
			t.Errorf("nicsim %v: exit %d, stdout %q; want exit 2 before anything runs", tc.args, code, stdout)
		}
		if !strings.Contains(stderr, tc.flag+" is not read by") || !strings.Contains(stderr, "it applies to") || !strings.Contains(stderr, tc.home) {
			t.Errorf("nicsim %v: stderr %q does not name %s and %s", tc.args, stderr, tc.flag, tc.home)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("nicsim %v wrote %d files before refusing", tc.args, len(left))
		}
	}
}

// TestEveryModeRuns is one small run of each of the four runs (the driver
// run in its three arming combinations): exit 0 and the line that says the
// run checked itself.
func TestEveryModeRuns(t *testing.T) {
	const evolving = "rss,ip_checksum,vlan,pkt_len"
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"plain", []string{"-packets", "64"},
			[]string{"rx=64 drops=0", " 0 mismatches", "TX descriptor formats accepted by mlx5"}},
		{"evolve", []string{"-nic", "e1000e", "-req", evolving, "-packets", "1024", "-evolve"},
			[]string{"switchover -> generation 1", "switch-drops=0", "delivered=1024"}},
		{"faults", []string{"-nic", "e1000e", "-req", "rss,vlan,pkt_len", "-packets", "4000", "-faults", "corrupt=1e-3,drop=5e-4,hang=1@1500", "-seed", "7"},
			[]string{"delivered 4000/4000 exactly once", " 0 garbage metadata reads", "hardware-restores=1", "final mode: hardware"}},
		{"evolve+faults", []string{"-nic", "e1000e", "-req", evolving, "-packets", "4000", "-evolve", "-faults", "corrupt=1e-3,replay=1e-3,drop=5e-4,nak=0.2,hang=1@1500", "-seed", "7"},
			[]string{"switchover -> generation", "switch-drops=0", "delivered 4000/4000 exactly once", " 0 garbage metadata reads", "final mode: hardware"}},
		{"tenants", []string{"-tenants", "6", "-packets", "512"},
			[]string{"serving 6 tenants on 4 cores", "tenant00 renegotiates", "Jain service fairness: 1.0000"}},
		{"fleet", []string{"-fleet", "6"},
			[]string{"digest mismatch", `rollout "tampered-push": rolled back`, "telemetry sweep: 6 collected, 0 skipped, 0 rejected"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runNicsim(t, t.TempDir(), tc.args...)
			if code != 0 {
				t.Fatalf("exit %d\n%s%s", code, stdout, stderr)
			}
			for _, w := range tc.want {
				if !strings.Contains(stdout, w) {
					t.Errorf("stdout lacks %q:\n%s", w, stdout)
				}
			}
		})
	}
}
