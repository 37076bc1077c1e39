package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"opendesc/internal/codegen"
	"opendesc/internal/fleet/telemetry"
	"opendesc/internal/nic"
	"opendesc/internal/obs"
	"opendesc/internal/obs/flight"
	"opendesc/internal/semantics"
	"opendesc/internal/vclock"
)

// TestLinkPayloadDeadline: a telemetry-sized payload whose transfer cost
// exceeds the deadline expires mid-flight — the caller burns the whole
// deadline and receives nothing — while a roomier deadline delivers and
// charges the payload cost to the shared clock.
func TestLinkPayloadDeadline(t *testing.T) {
	clk := vclock.NewVirtual(0)
	l := NewLink(clk, 100)
	l.SetPerByteNs(10)

	// 200 bytes: 100 + 200×10 = 2100ns > 1000ns deadline.
	err := l.transfer(1000, func() (int, error) { return 200, nil })
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("mid-transfer expiry returned %v, want ErrDeadline", err)
	}
	if !strings.Contains(err.Error(), "200 bytes") {
		t.Errorf("expiry error %q does not cite the payload size", err)
	}
	if l.Bytes() != 0 {
		t.Errorf("expired transfer counted %d bytes delivered", l.Bytes())
	}
	if clk.Now() != 1000 {
		t.Errorf("expired transfer burned %dns, want the full 1000ns deadline", clk.Now())
	}
	if _, timeouts := l.Stats(); timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", timeouts)
	}

	if err := l.transfer(4000, func() (int, error) { return 200, nil }); err != nil {
		t.Fatalf("roomy deadline failed: %v", err)
	}
	if l.Bytes() != 200 {
		t.Errorf("delivered bytes = %d, want 200", l.Bytes())
	}
	if clk.Now() != 1000+2100 {
		t.Errorf("clock at %dns, want 3100 (deadline burn + payload cost)", clk.Now())
	}
}

// TestTelemetryRetryAfterPartition: a partitioned host is skipped by the
// sweep (absence of evidence is a network property, not a host property)
// and delivers its report on the first sweep after the partition heals.
func TestTelemetryRetryAfterPartition(t *testing.T) {
	c, hosts, links, _ := newTestFleet(t, 3, Options{})
	c.Inventory()
	if err := c.Provision(); err != nil {
		t.Fatal(err)
	}
	pump(t, hosts, 8)

	links[0].Partition()
	sw := c.CollectTelemetry()
	if sw.Collected != 2 || sw.Skipped != 1 || sw.Rejected != 0 {
		t.Fatalf("sweep under partition = %+v", sw)
	}
	if !sw.Outcomes[0].Skipped || sw.Outcomes[0].Accepted {
		t.Fatalf("partitioned host outcome = %+v, want skipped", sw.Outcomes[0])
	}
	if c.QuarantinedCount() != 0 {
		t.Fatal("partition quarantined a host; only divergent evidence may")
	}
	if c.Rollup().Hosts() != 2 {
		t.Fatalf("rollup hosts = %d, want 2", c.Rollup().Hosts())
	}

	links[0].Heal()
	sw = c.CollectTelemetry()
	if sw.Collected != 3 || sw.Skipped != 0 {
		t.Fatalf("post-heal sweep = %+v", sw)
	}
	if c.Rollup().Hosts() != 3 {
		t.Fatalf("rollup hosts = %d, want 3 after heal", c.Rollup().Hosts())
	}
}

// TestTelemetryStalenessRejection: a host replaying a non-advancing report
// sequence is quarantined on the second sweep.
func TestTelemetryStalenessRejection(t *testing.T) {
	c, hosts, _, _ := newTestFleet(t, 2, Options{})
	c.Inventory()
	if err := c.Provision(); err != nil {
		t.Fatal(err)
	}
	pump(t, hosts, 8)

	hosts[0].SetTelemetryMutator(func(r *telemetry.Report) { r.Seq = 1 })
	if sw := c.CollectTelemetry(); sw.Collected != 2 {
		t.Fatalf("first sweep = %+v (seq 1 advances from 0, must be accepted)", sw)
	}
	sw := c.CollectTelemetry()
	if sw.Rejected != 1 || sw.Collected != 1 {
		t.Fatalf("replay sweep = %+v, want 1 rejected", sw)
	}
	if !strings.Contains(sw.Outcomes[0].Reason, "stale") {
		t.Errorf("rejection reason %q does not cite staleness", sw.Outcomes[0].Reason)
	}
	if c.QuarantinedCount() != 1 {
		t.Fatalf("quarantined = %d, want 1", c.QuarantinedCount())
	}
}

// TestForgedTelemetryQuarantined: a forged-clean report re-seals with a
// valid digest, so only the controller's counter cross-check against its
// own Health observation can expose it.
func TestForgedTelemetryQuarantined(t *testing.T) {
	c, hosts, _, _ := newTestFleet(t, 2, Options{})
	c.Inventory()
	if err := c.Provision(); err != nil {
		t.Fatal(err)
	}
	pump(t, hosts, 8)

	hosts[1].SetTelemetryMutator(func(r *telemetry.Report) {
		r.Counters.Delivered, r.Counters.Garbage = 0, 0
		r.Anomalies, r.Truncated = nil, 0
	})
	sw := c.CollectTelemetry()
	if sw.Rejected != 1 || sw.Collected != 1 {
		t.Fatalf("sweep = %+v, want the forged host rejected", sw)
	}
	if !strings.Contains(sw.Outcomes[1].Reason, "diverge") {
		t.Errorf("rejection reason %q does not cite counter divergence", sw.Outcomes[1].Reason)
	}
	if c.QuarantinedCount() != 1 {
		t.Fatalf("quarantined = %d, want 1", c.QuarantinedCount())
	}
	// The honest host's report was absorbed; the forged one was not.
	if c.Rollup().Hosts() != 1 {
		t.Fatalf("rollup hosts = %d, want 1", c.Rollup().Hosts())
	}
}

// TestEvidenceBakeCatchesLatencyRegression is E21's core scenario in
// miniature: a tampered description that stops advertising rss and pkt_len
// still delivers bit-correct metadata through SoftNIC shims — zero oracle
// violations, so Health-counter bakes promote it — but every read now pays
// the soft path. Only the flight-evidence latency gate catches it, citing
// p99 numbers and the slowest flight deliveries in the rollback reason.
func TestEvidenceBakeCatchesLatencyRegression(t *testing.T) {
	run := func(t *testing.T, disabled bool) (*Controller, *Host, error) {
		t.Helper()
		clk := vclock.NewVirtual(0)
		c := NewController(Options{Clock: clk, BakeTarget: 16, DisableEvidenceBake: disabled, LeaseNs: 1 << 40})
		// e1000e advertises both intent semantics in hardware — the all-hw
		// baseline the tampered push degrades.
		h, err := NewHost("e1000e-a", nic.All()[1], HostOptions{Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		c.AddHost(h, NewLink(clk, 1000))
		hosts := []*Host{h}
		c.Inventory()
		if err := c.Provision(); err != nil {
			t.Fatal(err)
		}
		pump(t, hosts, 32) // baseline window on the all-hardware layout
		if got := h.DeliverCostNs(); got != 70 {
			t.Fatalf("baseline deliver cost %dns, want 70 (all-hardware rss+pkt_len)", got)
		}
		src, err := StripSemantics(h.Model.Source, "rss", "pkt_len")
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.StartRollout(Upgrade{Name: "fw-refresh", Descriptions: map[string]string{h.Model.Name: src}})
		if err != nil {
			t.Fatalf("stripped-but-structurally-valid upgrade must pass static validation: %v", err)
		}
		return c, h, r.Run(func() { pump(t, hosts, 8) })
	}

	t.Run("evidence", func(t *testing.T) {
		c, h, err := run(t, false)
		if err == nil {
			t.Fatal("latency-degrading upgrade promoted under evidence bake")
		}
		for _, want := range []string{"latency evidence", "slowest deliveries", "deliver["} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("rollback reason %q does not cite %q", err, want)
			}
		}
		if c.Phase() != PhaseRolledBack {
			t.Fatalf("phase = %s, want rolled-back", c.Phase())
		}
		if got := h.DeliverCostNs(); got != 70 {
			t.Errorf("host serves at %dns after rollback, want the 70ns last-known-good", got)
		}
		hl := h.Health()
		if hl.Garbage != 0 || hl.OrderViolations != 0 {
			t.Fatalf("soft-shim deliveries must be bit-correct, got %+v", hl)
		}
	})

	t.Run("counter-bake-misses-it", func(t *testing.T) {
		c, h, err := run(t, true)
		if err != nil {
			t.Fatalf("counter-only bake unexpectedly rolled back: %v", err)
		}
		if c.Phase() != PhasePromoted {
			t.Fatalf("phase = %s, want promoted", c.Phase())
		}
		if got := h.DeliverCostNs(); got != 920 {
			t.Errorf("promoted trial serves at %dns, want 920 (two soft reads)", got)
		}
	})
}

// TestPerRolloutPhaseGauge: the unlabeled fleet_rollout_phase gauge is
// last-writer-wins across rollouts; the labeled per-rollout series keeps
// every rollout's terminal phase visible.
func TestPerRolloutPhaseGauge(t *testing.T) {
	c, hosts, _, _ := newTestFleet(t, 4, Options{BakeTarget: 8})
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	c.Inventory()
	if err := c.Provision(); err != nil {
		t.Fatal(err)
	}
	pump(t, hosts, 8)

	// Same read set, new generation: promotes cleanly and keeps every
	// baseline layout (and its latency budget) unchanged for the second
	// rollout.
	good, err := c.StartRollout(Upgrade{Name: "rebase", Semantics: []string{"rss", "pkt_len"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Run(func() { pump(t, hosts, 8) }); err != nil {
		t.Fatalf("good rollout: %v", err)
	}

	src, err := StripSemantics(hosts[1].Model.Source, "rss", "pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := c.StartRollout(Upgrade{Name: "refresh", Descriptions: map[string]string{hosts[1].Model.Name: src}})
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Run(func() { pump(t, hosts, 8) }); err == nil {
		t.Fatal("bad rollout promoted")
	}
	if good.Phase() != PhasePromoted || bad.Phase() != PhaseRolledBack {
		t.Fatalf("rollout phases = %s/%s", good.Phase(), bad.Phase())
	}

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`fleet_rollout_phase{rollout="rebase",gen="2"} 4`,
		`fleet_rollout_phase{rollout="refresh",gen="3"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}
}

// TestFleetTraceMergedTimeline: the controller's span tree and every
// host's flight ring land in one Chrome trace on the shared virtual
// timeline.
func TestFleetTraceMergedTimeline(t *testing.T) {
	c, hosts, _, _ := newTestFleet(t, 2, Options{BakeTarget: 8})
	c.Inventory()
	if err := c.Provision(); err != nil {
		t.Fatal(err)
	}
	pump(t, hosts, 8)
	r, err := c.StartRollout(Upgrade{Name: "widen", Semantics: []string{"rss", "pkt_len", "flow_id"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(func() { pump(t, hosts, 8) }); err != nil {
		t.Fatal(err)
	}
	c.CollectTelemetry()

	var buf bytes.Buffer
	if err := c.FleetTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"name":"controller"`, `"name":"rollout widen gen 2"`,
		`"name":"trial ` + hosts[0].Name + `"`, `"name":"bake"`, `"name":"promote"`,
		`"name":"telemetry sweep"`, `"name":"` + hosts[1].Name + `"`, `"name":"completion"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet trace missing %s", want)
		}
	}
}

// TestAnomalousDeliveryOffGridCarriesNoRxStamp: the host's queue stamps Rx
// on the flight sampling grid only, so the deliver event of an anomalous
// delivery off the grid carries DMA→poll 0 and the layout's service cost as
// its poll→deliver, a grid delivery the real wait — and the telemetry
// report still renders both as deliver[...] exhibits.
func TestAnomalousDeliveryOffGridCarriesNoRxStamp(t *testing.T) {
	clk := vclock.NewVirtual(1000)
	h, err := NewHost("e1000e-a", nic.All()[1], HostOptions{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	// The layout reads pkt_len wrong for the first packet alone: one garbage
	// anomaly, at sequence 1.
	first := testPacket(0)
	h.lkg.lane.RT = codegen.NewSoftRuntime(h.lkg.res, map[semantics.Name]codegen.SoftFunc{
		semantics.PktLen: func(p []byte) uint64 {
			if &p[0] == &first[0] {
				return ^uint64(len(p))
			}
			return uint64(len(p))
		},
	})
	const wait = 500
	for i := 0; i < flight.SamplePeriod; i++ {
		pk := first
		if i > 0 {
			pk = testPacket(i)
		}
		if !h.Rx(pk) {
			t.Fatalf("rx %d refused", i)
		}
	}
	clk.Advance(wait)
	if n := h.Poll(); n != flight.SamplePeriod {
		t.Fatalf("delivered %d of %d", n, flight.SamplePeriod)
	}
	if hl := h.Health(); hl.Garbage != 1 || hl.OrderViolations != 0 {
		t.Fatalf("want exactly the planted garbage read, got %+v", hl)
	}
	cost := h.DeliverCostNs()
	want := map[uint32][2]uint64{ // seq → DMA→poll, DMA→deliver
		1:                   {0, cost},
		flight.SamplePeriod: {wait + (flight.SamplePeriod-1)*cost, wait + flight.SamplePeriod*cost},
	}
	for _, q := range h.rec.Snapshot().Queues {
		for _, ev := range q.Events {
			if ev.Code != flight.EvDeliver {
				continue
			}
			w, ok := want[ev.Seq]
			if !ok || ev.Arg0 != w[0] || ev.Arg1 != w[1] {
				t.Errorf("deliver event seq %d carries %d/%d, want one of %v", ev.Seq, ev.Arg0, ev.Arg1, want)
			}
			delete(want, ev.Seq)
		}
	}
	if len(want) != 0 {
		t.Errorf("deliver events missing for %v", want)
	}
	var exhibits []string
	for _, a := range h.TelemetryReport().Slowest {
		exhibits = append(exhibits, a.String())
	}
	if got, want := strings.Join(exhibits, " "), fmt.Sprintf("deliver[seq 1 poll→deliver %dns @", cost); !strings.Contains(got, want) {
		t.Errorf("slowest-delivery exhibits %q do not render the off-grid anomaly as %q…", got, want)
	}
}

// SetPerByteNs charges payload-carrying calls (telemetry reports) this much
// per byte on top of the base latency. Zero (the default) keeps plain
// control RPCs and every pre-existing scenario byte-identical.
func (l *Link) SetPerByteNs(ns uint64) { l.perByteNs = ns }
