package bench

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"opendesc/internal/chaos"
	"opendesc/internal/fleet"
	"opendesc/internal/fleet/telemetry"
	"opendesc/internal/nic"
	"opendesc/internal/vclock"
	"opendesc/internal/workload"
)

// e20Fleet is one full fleet control-plane scenario (DESIGN.md S25):
// inventory a heterogeneous fleet (hosts round-robin over the six bundled
// NICs, plus one rogue whose describe handshake lies about its digest),
// provision through the content-addressed compile cache, promote a benign
// upgrade, then push tampered descriptions whose canary trips the
// golden-metadata oracle and verify the automatic rollback left every
// non-canary host untouched with exactly-once delivery fleet-wide; last, one
// telemetry sweep must collect every healthy host's evidence and reject none.
type e20Run struct {
	hosts       int
	quarantined int
	digests     int
	hitRate     float64
	compiles    uint64

	promoteElapsed  time.Duration
	rollbackElapsed time.Duration

	accepted, delivered uint64
	garbage             uint64
	canaries            int
	leaseReverts        uint64

	collected, rejected int // the post-rollback telemetry sweep
}

// e20Scenario runs one fleet of the given size. A non-nil w receives its
// transcript; a non-empty dumpDir receives the controller's span tree as
// spans.json and every member's flight ring as <host>.odfl, the inputs of
// `opendesc flight`, which merges them into one timeline.
func e20Scenario(hosts int, w io.Writer, dumpDir string) (*e20Run, error) {
	if w == nil {
		w = io.Discard
	}
	clk := vclock.NewVirtual(1)
	models := nic.All()
	ctrl := fleet.NewController(fleet.Options{
		Clock:      clk,
		Intent:     []string{"rss", "pkt_len"},
		Seed:       1,
		BakeTarget: 32,
	})
	var members []*fleet.Host
	for i := 0; i < hosts; i++ {
		m := models[i%len(models)]
		h, err := fleet.NewHost(fmt.Sprintf("%s-%02d", m.Name, i), m, fleet.HostOptions{Clock: clk})
		if err != nil {
			return nil, err
		}
		members = append(members, h)
		ctrl.AddHost(h, fleet.NewLink(clk, 1000))
	}
	rogue, err := fleet.NewHost("rogue-00", models[0], fleet.HostOptions{Clock: clk})
	if err != nil {
		return nil, err
	}
	rogue.SetDescribeMutator(func(d *fleet.Description) { d.Digest = "bad" })
	ctrl.AddHost(rogue, fleet.NewLink(clk, 1000))

	rep := ctrl.Inventory()
	if rep.Healthy != hosts || len(rep.Quarantined) != 1 {
		return nil, fmt.Errorf("inventory: %d/%d healthy, %d quarantined (want %d/1)",
			rep.Healthy, rep.Total, len(rep.Quarantined), hosts)
	}
	fmt.Fprintf(w, "fleet: %d hosts inventoried, %d healthy, %d distinct descriptions, %d quarantined\n",
		rep.Total, rep.Healthy, len(rep.Digests), len(rep.Quarantined))
	for _, q := range rep.Quarantined {
		fmt.Fprintf(w, "  quarantined %s: %s\n", q.Host, q.Reason)
	}
	if err := ctrl.Provision(); err != nil {
		return nil, err
	}
	// The hit-rate acceptance is about provisioning: N hosts, ≤ 6 distinct
	// descriptions, one compile each — everything else a cache hit. Later
	// rollouts add one compulsory miss per (new digest, intent) pair.
	pcs := ctrl.CacheStats()
	run := &e20Run{
		hosts:       hosts,
		quarantined: len(rep.Quarantined),
		digests:     len(rep.Digests),
		hitRate:     pcs.HitRate(),
	}
	fmt.Fprintf(w, "provisioned gen 1: compile cache %d gets, %d misses, hit rate %.0f%%\n",
		pcs.Gets, pcs.Misses, 100*pcs.HitRate())

	tr, err := workload.Generate(workload.DefaultSpec())
	if err != nil {
		return nil, err
	}
	next := 0
	pump := func() {
		for i := 0; i < 4; i++ {
			for _, h := range members {
				h.Rx(tr.Packets[next%len(tr.Packets)])
				next++
			}
			for _, h := range members {
				h.Poll()
			}
		}
	}

	// Benign upgrade: widen the intent; must canary, bake, and promote on
	// every healthy host with zero garbage anywhere.
	start := time.Now()
	widen := fleet.Upgrade{Name: "widen", Semantics: []string{"rss", "pkt_len", "flow_id"}}
	r, err := ctrl.StartRollout(widen)
	if err != nil {
		return nil, err
	}
	if err := r.Run(pump); err != nil {
		return nil, fmt.Errorf("benign rollout failed: %w", err)
	}
	run.promoteElapsed = time.Since(start)
	goodGen := r.Gen()
	fmt.Fprintf(w, "rollout %q (gen %d): promoted fleet-wide\n", widen.Name, goodGen)
	for _, h := range members {
		if h.Generation() != goodGen {
			return nil, fmt.Errorf("host %s on gen %d after promote, want %d", h.Name, h.Generation(), goodGen)
		}
	}

	// Tampered upgrade: ip_checksum/pkt_len annotations swapped on every
	// model — structurally valid, only the canary bake catches it.
	bad := fleet.Upgrade{Name: "tampered", Descriptions: map[string]string{}}
	for _, m := range models {
		src, err := fleet.SwapSemantics(m.Source, "ip_checksum", "pkt_len")
		if err != nil {
			return nil, err
		}
		bad.Descriptions[m.Name] = src
	}
	start = time.Now()
	r2, err := ctrl.StartRollout(bad)
	if err != nil {
		return nil, err
	}
	err = r2.Run(pump)
	if err == nil {
		return nil, fmt.Errorf("tampered rollout promoted — canary oracle never fired")
	}
	run.rollbackElapsed = time.Since(start)
	fmt.Fprintf(w, "rollout %q (gen %d): %v\n", bad.Name, r2.Gen(), err)
	pump()

	badGen := r2.Gen()
	for _, h := range members {
		hl := h.Health()
		run.accepted += hl.Accepted
		run.delivered += hl.Delivered
		run.garbage += hl.Garbage
		run.leaseReverts += hl.LeaseReverts
		if h.Generation() != goodGen {
			return nil, fmt.Errorf("host %s on gen %d after rollback, want last-known-good %d",
				h.Name, h.Generation(), goodGen)
		}
		if hl.Garbage > 0 {
			run.canaries++
		}
		for gen := range h.GarbageByGen() {
			if gen != badGen {
				return nil, fmt.Errorf("host %s: garbage on gen %d, only the tampered gen %d may read garbage",
					h.Name, gen, badGen)
			}
		}
	}
	if run.accepted != run.delivered {
		return nil, fmt.Errorf("conservation: accepted %d != delivered %d", run.accepted, run.delivered)
	}
	if run.garbage == 0 {
		return nil, fmt.Errorf("tampered rollout produced no canary garbage — detection was vacuous")
	}
	if run.canaries > run.digests {
		return nil, fmt.Errorf("%d hosts saw garbage, want at most the %d canaries", run.canaries, run.digests)
	}

	cs := ctrl.CacheStats()
	run.compiles = cs.Misses
	if cs.Gets != cs.Hits+cs.Misses || cs.Misses != uint64(cs.Entries) {
		return nil, fmt.Errorf("cache counters do not reconcile: %+v", cs)
	}
	fmt.Fprintf(w, "fleet after rollback: %d hosts on gen %d, %d/%d packets delivered exactly once, %d garbage reads on %d canaries\n",
		hosts, goodGen, run.delivered, run.accepted, run.garbage, run.canaries)

	// Every cell above is taken; the sweep moves none of them. Each healthy
	// host ships its flight evidence, which the controller validates,
	// cross-checks against its own Health view and rolls up.
	sw := ctrl.CollectTelemetry()
	run.collected, run.rejected = sw.Collected, sw.Rejected
	if sw.Collected != hosts || sw.Rejected != 0 {
		return nil, fmt.Errorf("telemetry sweep: %d collected, %d rejected (want %d, 0)", sw.Collected, sw.Rejected, hosts)
	}
	ru := ctrl.Rollup()
	fmt.Fprintf(w, "telemetry sweep: %d collected, %d skipped, %d rejected\n", sw.Collected, sw.Skipped, sw.Rejected)
	fmt.Fprintf(w, "fleet rollup: %d hosts, p99 poll→deliver %dns, anomaly rate %.4f\n",
		ru.Hosts(), ru.FleetP99(), ru.AnomalyRate())
	for _, fs := range ru.Families() {
		fmt.Fprintf(w, "  family %-8s %2d hosts  %6d delivered  p99 %4dns  %d anomalies\n",
			fs.Family, fs.Hosts, fs.Delivered, fs.P99Ns, fs.Anomalies)
	}
	for _, gs := range ru.Generations() {
		fmt.Fprintf(w, "  gen %d: %d hosts, %d delivered, p99 %dns\n", gs.Gen, gs.Hosts, gs.Delivered, gs.P99Ns)
	}
	fmt.Fprintln(w, "controller transcript:")
	for _, line := range ctrl.Transcript() {
		fmt.Fprintf(w, "  %s\n", line)
	}
	fmt.Fprintln(w)
	if dumpDir != "" {
		if err := e20Dump(dumpDir, ctrl, members); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// e20Dump writes a fleet's artifacts into dir: spans.json and one
// <host>.odfl per member.
func e20Dump(dir string, ctrl *fleet.Controller, members []*fleet.Host) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	if err := telemetry.WriteSpans(&b, ctrl.Trace().Spans()); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), b.Bytes(), 0o644); err != nil {
		return err
	}
	for _, h := range members {
		b.Reset()
		if _, err := h.FlightSnapshot().WriteTo(&b); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, h.Name+".odfl"), b.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// e20Result is the whole experiment: one scenario per fleet size and the
// fleet chaos sweep's totals (a violation fails the experiment).
type e20Result struct {
	fleets []*e20Run
	chaos  struct{ cases, rollouts, promotions, rollbacks, leaseReverts uint64 }
}

// E20Fleet is the fleet control-plane experiment (EXPERIMENTS.md E20): a
// 64-host mixed-NIC inventory with a quarantined rogue, compile-cache hit
// rate across provisioning and two rollouts, a benign promote, a tampered
// push auto-rolled-back by the canary oracle with zero disruption off the
// canaries, and the seeded fleet chaos sweep. Promote/rollback wall-clock is
// context (dominated by the six compiles; no cmd/benchmark workload reaches
// fleet.Host yet); counts and rates repeat exactly. The 16-host fleet
// writes its transcript to a non-nil w and its artifacts into a non-empty
// dumpDir.
func E20Fleet(w io.Writer, dumpDir string) (*Table, error) {
	res := &e20Result{}
	for _, hosts := range []int{16, 64} {
		run, err := e20Scenario(hosts, w, dumpDir)
		w, dumpDir = nil, ""
		if err != nil {
			return nil, fmt.Errorf("e20 hosts=%d: %w", hosts, err)
		}
		res.fleets = append(res.fleets, run)
	}

	// Fleet chaos sweep (S25 × S23): seeded schedules interleaving traffic,
	// partitions/heals, and alternating benign/tampered rollouts; every
	// oracle must hold and tampered pushes must never promote.
	c := &res.chaos
	for seed := uint64(1); seed <= 12; seed++ {
		r := chaos.Run(chaos.Config{Mode: chaos.ModeFleet, Queues: 8, Steps: 512}, seed)
		if r.Violation != nil {
			return nil, fmt.Errorf("e20 chaos seed=%d: %v", seed, r.Violation)
		}
		c.cases++
		c.rollouts += r.Rollouts
		c.promotions += r.Promotions
		c.rollbacks += r.Rollbacks
		c.leaseReverts += r.LeaseReverts
	}

	tab := &Table{
		ID:     "E20",
		Title:  "fleet control plane: describe inventory, canary rollout + auto-rollback, LKG degradation",
		Header: []string{"fleet", "quarantined", "descriptions", "cache hits", "promote", "rollback", "garbage"},
		Note: fmt.Sprintf(
			"one compile per (description digest, intent) through the content-addressed cache\n"+
				"tampered push = ip_checksum/pkt_len @semantic swap: passes structural validation, caught only by canary bake\n"+
				"rollback blast radius = canaries only (one per distinct description); all other hosts never left last-known-good\n"+
				"chaos sweep: %d cases, %d rollouts (%d promoted, %d rolled back), %d lease reverts, 0 violations",
			c.cases, c.rollouts, c.promotions, c.rollbacks, c.leaseReverts),
		run: res,
	}
	for _, run := range res.fleets {
		tab.AddRow(
			fmt.Sprintf("%d hosts", run.hosts),
			run.quarantined,
			run.digests,
			fmt.Sprintf("%.1f%% (%d compiles)", 100*run.hitRate, run.compiles),
			fmt.Sprintf("%.1f ms", float64(run.promoteElapsed.Microseconds())/1e3),
			fmt.Sprintf("%.1f ms", float64(run.rollbackElapsed.Microseconds())/1e3),
			fmt.Sprintf("%d reads on %d/%d canaries", run.garbage, run.canaries, run.digests))
	}
	tab.AddRow("chaos", "-", "-", "-", "-", "-",
		fmt.Sprintf("%d rollouts / %d cases / 0 violations", c.rollouts, c.cases))
	return tab, nil
}
