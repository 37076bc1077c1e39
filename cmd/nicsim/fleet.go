package main

import (
	"fmt"
	"os"
	"path/filepath"

	"opendesc/internal/fleet"
	"opendesc/internal/fleet/telemetry"
	"opendesc/internal/nic"
	"opendesc/internal/vclock"
	"opendesc/internal/workload"
)

// runFleet is the fleet-control-plane demo (DESIGN.md S25 and S26): it boots
// a heterogeneous fleet of simulated hosts (round-robin over the bundled
// NIC models, plus one rogue whose describe handshake lies about its
// digest), inventories them over the describe protocol, provisions a
// fleet-wide layout through the content-addressed compile cache, then runs
// two rollouts — a benign intent widening that canaries, bakes, and
// promotes, and a tampered description push whose canary trips the
// golden-metadata oracle and triggers an automatic fleet-wide rollback —
// printing the controller transcript as it goes. A telemetry sweep then
// collects every host's flight evidence into the controller rollup, and
// -trace writes the merged fleet timeline (controller span tree + every
// host's flight ring) as Chrome trace JSON. -spans and -dump-flight ship
// the raw artifacts instead — the span tree and per-host .odfl rings —
// so the same timeline can be rebuilt offline with 'opendesc fleettrace'.
func runFleet(hosts, packets int, dump bool, traceOut, spansOut, dumpDir string) {
	if hosts < 2 {
		fatal(fmt.Errorf("-fleet needs at least 2 hosts"))
	}
	clk := vclock.NewVirtual(1)
	models := nic.All()

	ctrl := fleet.NewController(fleet.Options{
		Clock:      clk,
		Intent:     []string{"rss", "pkt_len"},
		Seed:       1,
		BakeTarget: 32,
	})
	var fleetHosts []*fleet.Host
	for i := 0; i < hosts; i++ {
		m := models[i%len(models)]
		h, err := fleet.NewHost(fmt.Sprintf("%s-%02d", m.Name, i), m, fleet.HostOptions{Clock: clk})
		if err != nil {
			fatal(err)
		}
		fleetHosts = append(fleetHosts, h)
		ctrl.AddHost(h, fleet.NewLink(clk, 1000))
	}
	// The rogue: claims a digest its own description doesn't hash to —
	// exactly the kind of structurally-invalid host the inventory sweep
	// must quarantine rather than provision.
	rogue, err := fleet.NewHost("rogue-00", models[0], fleet.HostOptions{Clock: clk})
	if err != nil {
		fatal(err)
	}
	rogue.SetDescribeMutator(func(d *fleet.Description) {
		d.Digest = "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
	})
	ctrl.AddHost(rogue, fleet.NewLink(clk, 1000))

	rep := ctrl.Inventory()
	fmt.Printf("fleet: %d hosts inventoried, %d healthy, %d distinct descriptions, %d quarantined\n",
		rep.Total, rep.Healthy, len(rep.Digests), len(rep.Quarantined))
	for _, q := range rep.Quarantined {
		fmt.Printf("  quarantined %s: %s\n", q.Host, q.Reason)
	}
	if err := ctrl.Provision(); err != nil {
		fatal(err)
	}
	cs := ctrl.CacheStats()
	fmt.Printf("provisioned gen 1: compile cache %d gets, %d misses, hit rate %.0f%%\n\n",
		cs.Gets, cs.Misses, 100*cs.HitRate())

	// pump pushes deterministic traffic through every healthy host and
	// polls — the same traffic the canary bake measures.
	tr, err := workload.Generate(workload.DefaultSpec())
	if err != nil {
		fatal(err)
	}
	next := 0
	pump := func() {
		for i := 0; i < 8; i++ {
			for _, h := range fleetHosts {
				h.Rx(tr.Packets[next%len(tr.Packets)])
				next++
			}
			for _, h := range fleetHosts {
				h.Poll()
			}
		}
	}

	run := func(up fleet.Upgrade) {
		r, err := ctrl.StartRollout(up)
		if err != nil {
			fmt.Printf("rollout %q refused: %v\n", up.Name, err)
			return
		}
		if err := r.Run(pump); err != nil {
			fmt.Printf("rollout %q (gen %d): %v\n", up.Name, r.Gen(), err)
		} else {
			fmt.Printf("rollout %q (gen %d): promoted fleet-wide\n", up.Name, r.Gen())
		}
	}

	// Rollout 1: benign — widen the fleet intent. Canary → bake → promote.
	run(fleet.Upgrade{Name: "widen-intent", Semantics: []string{"rss", "pkt_len", "flow_id"}})

	// Rollout 2: tampered — push replacement descriptions whose
	// @semantic("ip_checksum") and @semantic("pkt_len") annotations are
	// swapped. Structurally valid, passes every static check; only the
	// canary bake against the SoftNIC golden values catches it.
	bad := fleet.Upgrade{Name: "tampered-push", Descriptions: map[string]string{}}
	for _, m := range models {
		src, err := fleet.SwapSemantics(m.Source, "ip_checksum", "pkt_len")
		if err != nil {
			fatal(err)
		}
		bad.Descriptions[m.Name] = src
	}
	run(bad)
	pump()

	var accepted, delivered, garbage uint64
	promoted := 0
	for _, h := range fleetHosts {
		hl := h.Health()
		accepted += hl.Accepted
		delivered += hl.Delivered
		garbage += hl.Garbage
		if h.Generation() == 2 {
			promoted++
		}
	}
	fmt.Printf("\nfleet after rollback: %d/%d hosts serving promoted gen 2, %d/%d packets delivered exactly once, %d garbage reads (canaries only, during bake)\n",
		promoted, len(fleetHosts), delivered, accepted, garbage)

	// Telemetry sweep: every healthy host ships its flight evidence; the
	// controller validates, cross-checks, and rolls it up fleet-wide.
	sw := ctrl.CollectTelemetry()
	ru := ctrl.Rollup()
	fmt.Printf("\ntelemetry sweep: %d reports collected, %d skipped, %d rejected\n",
		sw.Collected, sw.Skipped, sw.Rejected)
	fmt.Printf("fleet rollup: %d hosts, p99 poll→deliver %dns, anomaly rate %.4f\n",
		ru.Hosts(), ru.FleetP99(), ru.AnomalyRate())
	for _, fs := range ru.Families() {
		fmt.Printf("  family %-8s %2d hosts  %6d delivered  p99 %4dns  %d anomalies\n",
			fs.Family, fs.Hosts, fs.Delivered, fs.P99Ns, fs.Anomalies)
	}
	for _, gs := range ru.Generations() {
		fmt.Printf("  gen %d: %d hosts, %d delivered, p99 %dns\n",
			gs.Gen, gs.Hosts, gs.Delivered, gs.P99Ns)
	}

	fmt.Println("\ncontroller transcript:")
	for _, line := range ctrl.Transcript() {
		fmt.Printf("  %s\n", line)
	}
	if dump {
		fmt.Println()
		fmt.Printf("cache: %+v\n", ctrl.CacheStats())
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fatal(err)
		}
		if err := ctrl.FleetTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nfleet trace: %s (open in https://ui.perfetto.dev)\n", traceOut)
	}
	if spansOut != "" {
		f, err := os.Create(spansOut)
		if err != nil {
			fatal(err)
		}
		if err := telemetry.WriteSpans(f, ctrl.Trace().Spans()); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("controller spans: %s (%d spans)\n", spansOut, len(ctrl.Trace().Spans()))
	}
	if dumpDir != "" {
		if err := os.MkdirAll(dumpDir, 0o755); err != nil {
			fatal(err)
		}
		for _, h := range fleetHosts {
			path := filepath.Join(dumpDir, h.Name+".odfl")
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if _, err := h.FlightSnapshot().WriteTo(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("flight dumps: %d hosts under %s (merge with 'opendesc flight -merge %s/*.odfl')\n",
			len(fleetHosts), dumpDir, dumpDir)
	}
	_ = packets
	if accepted != delivered {
		fmt.Fprintf(os.Stderr, "nicsim: conservation violated: accepted %d != delivered %d\n", accepted, delivered)
		os.Exit(1)
	}
}
