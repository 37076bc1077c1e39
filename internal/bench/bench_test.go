package bench

import (
	"fmt"
	"math"
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"os"
	"sort"
	"strings"
	"testing"

	"opendesc/internal/diffverify"
	"opendesc/internal/semantics"
)

// flightDir receives E17's postmortem dumps for the life of the test binary.
var flightDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-flight-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	flightDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// ran holds one run of each registry entry per test binary, at the parameters
// `descbench -quick` uses. The shape tests and TestEveryExperiment share it,
// so E16's fault matrix and E18's corpus are driven once.
var ran = map[string]*outcome{}

type outcome struct {
	tab *Table
	err error
}

func runExp(t *testing.T, id string) *Table {
	t.Helper()
	if testing.Short() && (id == "e4" || id == "e9") {
		t.Skip("timing experiment")
	}
	o, ok := ran[id]
	if !ok {
		for _, e := range Experiments {
			if e.ID == id {
				o = &outcome{}
				o.tab, o.err = e.Run(Params{Quick: true, FlightDump: flightDir})
			}
		}
		if o == nil {
			t.Fatalf("no experiment %q in the registry", id)
		}
		ran[id] = o
	}
	if o.err != nil {
		t.Fatal(o.err)
	}
	return o.tab
}

// eq is an exact assertion on a typed field of a run struct.
func eq[T comparable](t *testing.T, name string, got, want T) {
	t.Helper()
	if got != want {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

// exact holds, per experiment, every cell that repeats run to run, asserted
// with == on the typed run struct (E4's are in TestE4ShapeOpenDescWins beside
// its ordering checks). A wall-clock number, a scheduler-dependent count (E19
// steals) or a formatted cell is asserted nowhere. An acceptance invariant an
// experiment enforces itself — exactly-once delivery, per-tenant conservation,
// zero oracle violations, byte-identical traces — fails its run, so a run that
// reaches these checks has already held them.
var exact = map[string]func(*testing.T, *Table){
	"e15": func(t *testing.T, tab *Table) {
		run := tab.run.(*e15Run)
		csum, hash := run.phases[0], run.phases[1]
		eq(t, "csum-heavy pinned cost", csum.pinnedCost, 12.125)
		eq(t, "csum-heavy evolving cost", csum.evolCost, 12.125)
		eq(t, "csum-heavy adapt", csum.adapt, -1)
		eq(t, "hash-heavy pinned cost", hash.pinnedCost, 29)
		eq(t, "hash-heavy evolving cost", hash.evolCost, 12.625)
		eq(t, "hash-heavy adapt packets", hash.adapt, 256)
		eq(t, "csum-heavy footprint", csum.evolved.CompletionBytes(), 11)
		eq(t, "hash-heavy footprint", hash.evolved.CompletionBytes(), 11)
		eq(t, "switchovers", run.stats.Switchovers, 1)
		eq(t, "switch drops", run.stats.SwitchDrops, 0)
		eq(t, "packets drained", run.stats.PacketsDrained, 0)
	},
	"e16": func(t *testing.T, tab *Table) {
		res := tab.run.(*e16Result)
		want := []struct {
			name               string
			injected, detected uint64
		}{
			{"corrupt", 6, 6}, {"truncate", 8, 8}, {"replay", 4, 8},
			{"duplicate", 3, 3}, {"drop", 3, 3}, {"hang", 2, 16},
		}
		eq(t, "fault classes", len(res.classes), len(want))
		for i, c := range res.classes {
			eq(t, "class", c.name, want[i].name)
			eq(t, c.name+" injected", c.injected, want[i].injected)
			eq(t, c.name+" detected", c.detected, want[i].detected)
			eq(t, c.name+" garbage", c.run.garbage, 0)
		}
		eq(t, "combined garbage", res.combined.run.garbage, 0)
		eq(t, "combined restores", res.combined.run.hard.HardwareRestores, 2)
	},
	"e17": func(t *testing.T, tab *Table) {
		eq(t, "postmortems", tab.run.(*e17Run).postmortems, 3)
	},
	"e19": func(t *testing.T, tab *Table) {
		res := tab.run.(*e19Result)
		eq(t, "plane shapes", len(res.rows), 4)
		for _, r := range res.rows {
			pfx := fmt.Sprintf("%d tenants: ", r.tenants)
			eq(t, pfx+"delivered", r.delivered, 4096)
			eq(t, pfx+"service fairness", r.fairness, 1)
		}
		eq(t, "chaos cases", res.chaosCases, 9)
		eq(t, "chaos renegotiations", res.chaosRenegs, 473)
	},
	"e20": func(t *testing.T, tab *Table) {
		res := tab.run.(*e20Result)
		want := []struct {
			hosts     int
			hitRate   float64
			delivered uint64
		}{{16, 0.625, 768}, {64, 0.90625, 3072}}
		eq(t, "fleet sizes", len(res.fleets), len(want))
		for i, f := range res.fleets {
			pfx := fmt.Sprintf("%d hosts: ", want[i].hosts)
			eq(t, pfx+"hosts", f.hosts, want[i].hosts)
			eq(t, pfx+"compiles", f.compiles, 18)
			eq(t, pfx+"provisioning hit rate", f.hitRate, want[i].hitRate)
			eq(t, pfx+"delivered", f.delivered, want[i].delivered)
			eq(t, pfx+"hosts that read garbage", f.canaries, 2)
		}
		eq(t, "chaos cases", res.chaos.cases, 12)
		eq(t, "chaos rollouts", res.chaos.rollouts, 195)
		eq(t, "chaos promotions", res.chaos.promotions, 5)
		eq(t, "chaos rollbacks", res.chaos.rollbacks, 190)
		eq(t, "chaos lease reverts", res.chaos.leaseReverts, 245)
	},
	"e21": func(t *testing.T, tab *Table) {
		res := tab.run.(*e21Result)
		// 70 ns lands in the [64,127] log2 bucket, 920 ns in [512,1023].
		eq(t, "baseline p99", res.caught.baselineP99, 127)
		eq(t, "budget", res.caught.budgetNs, 764)
		eq(t, "stripped trial p99", res.missed.trialP99, 1023)
		eq(t, "evidence bake rolled back", res.caught.rolledBack, true)
		eq(t, "counter-only bake rolled back", res.missed.rolledBack, false)
		eq(t, "chaos cases", res.chaosCases, 16)
		eq(t, "chaos reports", res.chaosReports, 1821)
		eq(t, "chaos forged rejects", res.chaosRejects, 16)
	},
	"e22": func(t *testing.T, tab *Table) {
		run := tab.run.(*e22Run)
		eq(t, "paths", run.paths, 18)
		eq(t, "cases", run.cases, 892)
		eq(t, "checks", run.checks, 16642)
		eq(t, "ablation catches", run.ablationCaught, 6)
		eq(t, "mutants screened", run.screened, 192)
		eq(t, "mutants pass", run.outcomes[diffverify.OutcomePass], 174)
		eq(t, "mutants rejected", run.outcomes[diffverify.OutcomeRejected], 18)
		eq(t, "mutants disagree", run.outcomes[diffverify.OutcomeDisagree], 0)
		eq(t, "certificate passed", run.cert.Passed, true)
	},
}

// TestEveryExperiment runs the whole registry — what `descbench -quick`
// prints — and holds every deterministic cell to its exact value.
func TestEveryExperiment(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			tab := runExp(t, e.ID)
			if len(tab.Rows) == 0 || !strings.EqualFold(tab.ID, e.ID) {
				t.Fatalf("registry entry %s rendered table %q with %d rows", e.ID, tab.ID, len(tab.Rows))
			}
			if check := exact[e.ID]; check != nil {
				check(t, tab)
			}
		})
	}
	for id := range exact {
		if _, ok := ran[id]; !ok {
			t.Errorf("exact checks for %s, which is not in the registry", id)
		}
	}
}

func TestE1ShapeMatchesPaper(t *testing.T) {
	tab := runExp(t, "e1")
	// Find the {rss, ip_checksum} row: the selected branch must be csum and
	// the software column must be rss.
	found := false
	for _, r := range tab.Rows {
		if r[0] == "rss+ip_checksum" {
			found = true
			if !strings.Contains(r[1], "csum") {
				t.Errorf("Fig. 6 row selected %q, want csum branch", r[1])
			}
			if r[3] != "rss" {
				t.Errorf("software column = %q, want rss", r[3])
			}
		}
	}
	if !found {
		t.Fatalf("rss+ip_checksum row missing:\n%s", tab)
	}
}

func TestE2CoversAllNICs(t *testing.T) {
	tab := runExp(t, "e2")
	intents := len(standardIntents())
	if len(tab.Rows) != intents*6 {
		t.Errorf("rows = %d, want %d", len(tab.Rows), intents*6)
	}
	// The telemetry intent (timestamp) must be unsat on all fixed Intel NICs
	// and satisfiable on mlx5/qdma.
	unsat := map[string]bool{}
	for _, r := range tab.Rows {
		if r[0] == "telemetry" && r[len(r)-1] == "unsat" {
			unsat[r[1]] = true
		}
	}
	for _, n := range []string{"e1000", "e1000e", "ixgbe"} {
		if !unsat[n] {
			t.Errorf("telemetry should be unsat on %s", n)
		}
	}
	for _, n := range []string{"ice", "mlx5", "qdma"} {
		if unsat[n] {
			t.Errorf("telemetry should compile on %s", n)
		}
	}
}

func TestE3XDPThreeOfTwelve(t *testing.T) {
	tab := runExp(t, "e3")
	for _, r := range tab.Rows {
		if r[0] == "mlx5" {
			if r[1] != "12" {
				t.Errorf("mlx5 providable = %s, want 12", r[1])
			}
			if r[2] != "3/12" {
				t.Errorf("mlx5 xdp coverage = %s, want 3/12 (the paper's claim)", r[2])
			}
			if r[5] != "12/12" {
				t.Errorf("mlx5 opendesc coverage = %s, want 12/12", r[5])
			}
			return
		}
	}
	t.Fatal("mlx5 row missing")
}

func TestE5CrossoverExists(t *testing.T) {
	// With a small request, raising α (DMA weight) must eventually pull the
	// selection toward a smaller completion, or the small format is already
	// optimal at low α and a crossover in the other direction shows up in
	// the sweep. Pin that the sweep spans at least two distinct sizes.
	tab := runExp(t, "e5")
	sizes := map[string]bool{}
	for _, r := range tab.Rows {
		sizes[r[2]] = true
	}
	if len(sizes) < 2 {
		t.Errorf("footprint sweep selected a single size only:\n%s", tab)
	}
}

func TestCrossoverAlphaRichRequest(t *testing.T) {
	// A rich request sits on the full CQE at low α and must cross to a
	// smaller format as DMA gets expensive.
	alpha, from, to, err := CrossoverAlpha([]semantics.Name{
		semantics.RSS, semantics.VLAN, semantics.IPChecksum, semantics.PktLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(alpha, 1) {
		t.Fatalf("no crossover found (stuck at %dB)", from)
	}
	if !(from > to) {
		t.Errorf("crossover %dB → %dB at α=%.2f; expected shrink as α grows", from, to, alpha)
	}
}

func TestE6RejectsTimestampEverywhere(t *testing.T) {
	tab := runExp(t, "e6")
	for _, r := range tab.Rows {
		if r[0] == "timestamp" {
			switch r[1] {
			case "e1000", "e1000e", "ixgbe":
				if !strings.HasPrefix(r[2], "rejected") {
					t.Errorf("%s should reject timestamp: %q", r[1], r[2])
				}
			case "mlx5", "qdma":
				if !strings.HasPrefix(r[2], "ok") {
					t.Errorf("%s should accept timestamp: %q", r[1], r[2])
				}
			}
		}
	}
}

func TestE8SmallestFormatWins(t *testing.T) {
	tab := runExp(t, "e8")
	byIntent := map[string]string{}
	for _, r := range tab.Rows {
		byIntent[r[0]] = r[1]
	}
	if byIntent["basic"] != "8" {
		t.Errorf("basic intent → %sB, want the 8B format", byIntent["basic"])
	}
	if byIntent["kv-store"] != "16" {
		t.Errorf("kv-store intent → %sB, want the 16B format", byIntent["kv-store"])
	}
	if byIntent["telemetry"] != "32" {
		t.Errorf("telemetry intent → %sB, want the 32B format", byIntent["telemetry"])
	}
}

func TestE4ShapeOpenDescWins(t *testing.T) {
	run := runExp(t, "e4").run.(*e4Run)
	if len(run.rows) != len(E4Intents) {
		t.Fatalf("rows = %d", len(run.rows))
	}
	// Shape assertions, robust to machine speed: on every intent OpenDesc
	// must beat the sk_buff eager-extraction baseline; and on the fw intent
	// (checksums outside XDP's 3 hints) XDP must be the slowest by far.
	for _, r := range run.rows {
		sk, od := r.ns["skbuff"], r.ns["opendesc"]
		if od >= sk {
			t.Errorf("intent %s: opendesc %.1f ns !< skbuff %.1f ns", r.intent, od, sk)
		}
		if xdp := r.ns["xdp"]; r.intent == "fw" && xdp < 2*od {
			t.Errorf("fw: xdp %.1f ns should collapse vs opendesc %.1f ns", xdp, od)
		}
	}
	// Exact facts: the layout the compiler selects per intent, a read path
	// that never allocates, and a capture the device lost nothing of.
	for i, want := range []int{8, 8, 8, 64, 64} {
		r := run.rows[i]
		eq(t, r.intent+" footprint bytes", r.stacks.selBytes, want)
		n := 0
		allocs := testing.AllocsPerRun(200, func() { r.stacks.StepOpenDesc(n % r.stacks.Samples()); n++ })
		eq(t, r.intent+" opendesc allocs/packet", allocs, 0)
	}
	eq(t, "ring full-stalls", run.capture.fullStalls, 0)
	eq(t, "device drops", run.capture.drops, 0)
}

func TestE9MonotoneCost(t *testing.T) {
	tab := runExp(t, "e9")
	// mbuf cost with 8 dynfields must exceed cost with 0 (indirection grows).
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	var f0, fN float64
	fmtSscan(first[1], &f0)
	fmtSscan(last[1], &fN)
	if fN <= f0 {
		t.Errorf("mbuf cost should grow with dynfields: %0.1f → %0.1f", f0, fN)
	}
}

func TestE10Runs(t *testing.T) {
	tab := runExp(t, "e10")
	if len(tab.Rows) != 6 {
		t.Errorf("rows = %d", len(tab.Rows))
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "T", Title: "test", Header: []string{"a", "bb"}}
	tab.AddRow("x", 1.25)
	s := tab.String()
	if !strings.Contains(s, "== T: test ==") || !strings.Contains(s, "1.2") {
		t.Errorf("render:\n%s", s)
	}
}

// fmtSscan parses a float cell from a rendered table row.
func fmtSscan(s string, f *float64) (int, error) { return fmt.Sscan(s, f) }

func TestE12CostModelRuns(t *testing.T) {
	tab := runExp(t, "e12")
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The calibrated-rss column must hold a positive finite measurement.
	var wc float64
	fmtSscan(tab.Rows[0][5], &wc)
	if wc <= 0 {
		t.Errorf("calibrated rss cost = %v", wc)
	}
}

func TestE13PruningShape(t *testing.T) {
	tab := runExp(t, "e13")
	counts := map[string][2]string{}
	for _, r := range tab.Rows {
		counts[r[0]] = [2]string{r[1], r[2]}
	}
	// Bundled NICs: pruning changes nothing (independent branches).
	for _, n := range []string{"e1000", "e1000e", "ixgbe", "mlx5", "qdma"} {
		c := counts[n]
		if c[0] != c[1] {
			t.Errorf("%s: pruned %s != unpruned %s (branches are independent)", n, c[0], c[1])
		}
	}
	// Correlated synthetic: 4^n unpruned vs 2^n feasible.
	if c := counts["synthetic-4-correlated"]; c[0] != "16" || c[1] != "256" {
		t.Errorf("synthetic-4: %v, want 16/256", c)
	}
	if c := counts["synthetic-6-correlated"]; c[0] != "64" || c[1] != "4096" {
		t.Errorf("synthetic-6: %v, want 64/4096", c)
	}
}

func TestE14OffloadPlanShape(t *testing.T) {
	tab := runExp(t, "e14")
	for _, r := range tab.Rows {
		switch {
		case r[0] == "e1000" || r[0] == "e1000e":
			if r[3] != "" {
				t.Errorf("%s pushed %q to a fixed-function pipeline", r[0], r[3])
			}
		case r[0] == "mlx5" && strings.Contains(r[1], "flow_id"):
			// Whichever of rss/flow_id misses the selected mini CQE must be
			// pushed to the pipeline, leaving no software residue.
			if r[3] == "" || r[4] != "" {
				t.Errorf("mlx5 should push the missing feature, got pipeline=%q software=%q", r[3], r[4])
			}
		case r[0] == "mlx5" && strings.Contains(r[1], "kv_key"):
			if strings.Contains(r[3], "kv_key") {
				t.Error("mlx5 (no payload externs) must not push kv_key")
			}
		}
	}
}

func TestE16FaultMatrixShape(t *testing.T) {
	// E16Faults itself errors on any violated acceptance invariant
	// (exactly-once, zero garbage, missed corruption, missing restore); the
	// injected/detected counts are in TestEveryExperiment.
	tab := runExp(t, "e16")
	res := tab.run.(*e16Result)
	if len(tab.Rows) != 7 || len(res.classes) != 6 {
		t.Fatalf("rows = %d, want 6 per-class + 1 combined:\n%s", len(tab.Rows), tab)
	}
	for _, c := range append(res.classes, res.combined) {
		if c.run.delivered != c.run.accepted || c.run.accepted < c.pkts {
			t.Errorf("%s: delivered %d of %d accepted, %d offered", c.name, c.run.delivered, c.run.accepted, c.pkts)
		}
		if c.name == "hang" && c.run.hard.HardwareRestores != 2 {
			t.Errorf("hang: restores = %d, want 2", c.run.hard.HardwareRestores)
		}
	}
}

func TestE15EvolveShape(t *testing.T) {
	run := runExp(t, "e15").run.(*e15Run)
	csum, hash := run.phases[0], run.phases[1]
	// Phase 1 is the mix the static compile is optimal for: the evolving
	// driver must hold the pinned layout, not flap.
	if csum.evolCost != csum.pinnedCost || csum.adapt >= 0 {
		t.Errorf("phase 1: evolving cost %.3f vs pinned %.3f, generation changed after %d packets (should stay pinned)",
			csum.evolCost, csum.pinnedCost, csum.adapt)
	}
	// After the mid-run shift the evolving driver must end the phase on a
	// strictly cheaper steady-state layout than the pinned one.
	if hash.evolCost >= hash.pinnedCost || hash.adapt < 0 {
		t.Errorf("phase 2: evolving cost %.3f not below pinned %.3f (adapted after %d packets)",
			hash.evolCost, hash.pinnedCost, hash.adapt)
	}
}

func TestE17FlightShape(t *testing.T) {
	// E17Flight itself errors on any violated acceptance invariant (lost
	// packets, missing postmortem, no deliver latencies in the dump), so the
	// shape test needs the recovery arc in order and the dumps on disk.
	tab := runExp(t, "e17")
	run := tab.run.(*e17Run)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4:\n%s", len(tab.Rows), tab)
	}
	if !(0 < run.degradeAt && run.degradeAt < run.resetAt && run.resetAt < run.restoreAt) {
		t.Errorf("recovery arc degrade@%d reset_attempt@%d restore@%d is not in causal order",
			run.degradeAt, run.resetAt, run.restoreAt)
	}
	if len(run.dumpFiles) == 0 {
		t.Error("no .odfl postmortem dumps written")
	}
	for _, f := range run.dumpFiles {
		if !strings.HasPrefix(f, flightDir) {
			t.Errorf("dump %s landed outside %s", f, flightDir)
		}
		if _, err := os.Stat(f); err != nil {
			t.Errorf("dump listed but not on disk: %v", err)
		}
	}
}

// CrossoverAlpha computes, for a given request on mlx5, the α at which the
// selected format flips between two sizes (used by tests to pin the E5
// shape). It returns the smallest α in the scanned grid where the selection
// differs from α=0+.
func CrossoverAlpha(req []semantics.Name) (float64, int, int, error) {
	m := nic.MustLoad("mlx5")
	sel := func(alpha float64) (int, error) {
		res, err := m.Compile(mustIntent(req...), core.CompileOptions{
			Select: core.SelectOptions{Alpha: alpha},
		})
		if err != nil {
			return 0, err
		}
		return res.CompletionBytes(), nil
	}
	base, err := sel(0.01)
	if err != nil {
		return 0, 0, 0, err
	}
	alphas := make([]float64, 0, 64)
	for a := 0.05; a <= 64; a *= 1.2 {
		alphas = append(alphas, a)
	}
	sort.Float64s(alphas)
	for _, a := range alphas {
		b, err := sel(a)
		if err != nil {
			return 0, 0, 0, err
		}
		if b != base {
			return a, base, b, nil
		}
	}
	return math.Inf(1), base, base, nil
}
