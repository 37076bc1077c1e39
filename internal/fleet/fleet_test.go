package fleet

import (
	"strings"
	"testing"

	"opendesc/internal/nic"
	"opendesc/internal/pkt"
	"opendesc/internal/vclock"
)

func testPacket(i int) []byte {
	return pkt.NewBuilder().
		WithIPv4([4]byte{10, 0, byte(i >> 8), byte(i)}, [4]byte{10, 1, 2, 3}).
		WithUDP(uint16(1000+i%53), 443).
		WithPayload(make([]byte, 16+i%97)).
		Build()
}

// pump pushes n packets through every host and polls them dry.
func pump(t *testing.T, hosts []*Host, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		for _, h := range hosts {
			if !h.Rx(testPacket(i)) {
				t.Fatalf("%s rejected packet %d", h.Name, i)
			}
		}
		if i%4 == 3 {
			for _, h := range hosts {
				h.Poll()
			}
		}
	}
	for _, h := range hosts {
		h.Poll()
	}
}

// requireClean asserts the embedded oracles saw nothing and conservation
// holds exactly.
func requireClean(t *testing.T, hosts []*Host) {
	t.Helper()
	for _, h := range hosts {
		hl := h.Health()
		if hl.Garbage != 0 || hl.OrderViolations != 0 {
			t.Fatalf("%s: oracle violations: %+v", h.Name, hl)
		}
		if hl.Accepted != hl.Delivered || h.PendingCount() != 0 {
			t.Fatalf("%s: conservation broken: accepted %d delivered %d pending %d",
				h.Name, hl.Accepted, hl.Delivered, h.PendingCount())
		}
	}
}

// newTestFleet boots hosts round-robin over every bundled NIC on a shared
// virtual clock, wired to a controller with per-host links.
func newTestFleet(t *testing.T, n int, opts Options) (*Controller, []*Host, []*Link, *vclock.Virtual) {
	t.Helper()
	clk := vclock.NewVirtual(0)
	opts.Clock = clk
	if opts.LeaseNs == 0 {
		opts.LeaseNs = 1 << 40 // effectively infinite unless a test shrinks it
	}
	c := NewController(opts)
	models := nic.All()
	hosts := make([]*Host, 0, n)
	links := make([]*Link, 0, n)
	for i := 0; i < n; i++ {
		m := models[i%len(models)]
		h, err := NewHost(m.Name+"-"+string(rune('a'+i/len(models))), m, HostOptions{Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		l := NewLink(clk, 1000)
		c.AddHost(h, l)
		hosts = append(hosts, h)
		links = append(links, l)
	}
	return c, hosts, links, clk
}

// TestInventoryAndProvision: a mixed fleet inventories healthy, compiles
// once per distinct description (cache misses == digests), and serves the
// provisioned layout cleanly.
func TestInventoryAndProvision(t *testing.T) {
	c, hosts, _, _ := newTestFleet(t, 12, Options{})
	rep := c.Inventory()
	if rep.Healthy != 12 || len(rep.Quarantined) != 0 {
		t.Fatalf("inventory = %+v", rep)
	}
	if len(rep.Digests) != 6 {
		t.Fatalf("distinct digests = %d, want 6", len(rep.Digests))
	}
	if err := c.Provision(); err != nil {
		t.Fatal(err)
	}
	st := c.CacheStats()
	if st.Misses != 6 {
		t.Fatalf("provision compiled %d times for 6 distinct descriptions", st.Misses)
	}
	if st.Gets != 12 || st.Hits != 6 {
		t.Fatalf("cache counters = %+v, want 12 gets / 6 hits", st)
	}
	for _, h := range hosts {
		if h.CommittedGeneration() != 1 {
			t.Fatalf("%s on gen %d after provision", h.Name, h.CommittedGeneration())
		}
	}
	pump(t, hosts, 64)
	requireClean(t, hosts)
}

// TestQuarantine: hosts publishing tampered or lying descriptions are
// quarantined with operator-visible reasons and never provisioned; the
// rest of the fleet is unaffected.
func TestQuarantine(t *testing.T) {
	c, hosts, _, _ := newTestFleet(t, 8, Options{})
	hosts[2].SetDescribeMutator(func(d *Description) { d.Digest = strings.Repeat("f", 64) })
	hosts[5].SetDescribeMutator(func(d *Description) {
		d.Capabilities.Semantics = append(d.Capabilities.Semantics, "warp_speed")
	})
	rep := c.Inventory()
	if rep.Healthy != 6 || len(rep.Quarantined) != 2 {
		t.Fatalf("inventory = %+v", rep)
	}
	reasons := map[string]string{}
	for _, q := range rep.Quarantined {
		reasons[q.Host] = q.Reason
	}
	if !strings.Contains(reasons[hosts[2].Name], "digest mismatch") {
		t.Fatalf("host 2 reason = %q", reasons[hosts[2].Name])
	}
	if !strings.Contains(reasons[hosts[5].Name], "capability claim mismatch") {
		t.Fatalf("host 5 reason = %q", reasons[hosts[5].Name])
	}
	if err := c.Provision(); err != nil {
		t.Fatal(err)
	}
	if hosts[2].CommittedGeneration() != 0 || hosts[5].CommittedGeneration() != 0 {
		t.Fatal("quarantined hosts must not be provisioned")
	}
	// Quarantined hosts still serve on their boot layout.
	pump(t, hosts, 32)
	requireClean(t, hosts)
	if c.QuarantinedCount() != 2 {
		t.Fatalf("quarantined count = %d", c.QuarantinedCount())
	}
}

// TestGoodRolloutPromotes: a benign upgrade canaries, bakes clean, and
// promotes fleet-wide with zero oracle noise.
func TestGoodRolloutPromotes(t *testing.T) {
	c, hosts, _, _ := newTestFleet(t, 12, Options{BakeTarget: 32})
	c.Inventory()
	if err := c.Provision(); err != nil {
		t.Fatal(err)
	}
	pump(t, hosts, 16)

	r, err := c.StartRollout(Upgrade{Name: "widen-reads", Semantics: []string{"rss", "pkt_len", "flow_id"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Phase(); got != PhaseCanary {
		t.Fatalf("phase = %s after start", got)
	}
	if err := r.Run(func() { pump(t, hosts, 8) }); err != nil {
		t.Fatalf("good rollout failed: %v", err)
	}
	if got := c.Phase(); got != PhasePromoted {
		t.Fatalf("phase = %s, want promoted", got)
	}
	for _, h := range hosts {
		if h.CommittedGeneration() != r.Gen() {
			t.Fatalf("%s on gen %d, want %d", h.Name, h.CommittedGeneration(), r.Gen())
		}
	}
	pump(t, hosts, 32)
	requireClean(t, hosts)
}

// TestBadRolloutRollsBack is the tentpole scenario: a structurally valid
// upgrade whose descriptions lie about field meaning trips the canary
// oracle and auto-rolls back — with zero disruption on non-canary hosts
// and exactly-once delivery fleet-wide throughout.
func TestBadRolloutRollsBack(t *testing.T) {
	c, hosts, _, _ := newTestFleet(t, 12, Options{BakeTarget: 32})
	c.Inventory()
	if err := c.Provision(); err != nil {
		t.Fatal(err)
	}
	pump(t, hosts, 16)

	bad := Upgrade{Name: "vendor-push-v2", Descriptions: map[string]string{}}
	for _, m := range nic.All() {
		src, err := SwapSemantics(m.Source, "ip_checksum", "pkt_len")
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		bad.Descriptions[m.Name] = src
	}
	r, err := c.StartRollout(bad)
	if err != nil {
		t.Fatalf("tampered-but-structurally-valid upgrade must pass static validation: %v", err)
	}
	if err := r.Run(func() { pump(t, hosts, 8) }); err == nil {
		t.Fatal("bad rollout promoted; canary oracle failed to fire")
	}
	if got := c.Phase(); got != PhaseRolledBack {
		t.Fatalf("phase = %s, want rolled-back", got)
	}

	canaryGarbage := uint64(0)
	for _, h := range hosts {
		hl := h.Health()
		if hl.Gen == r.Gen() || hl.Trial {
			t.Fatalf("%s still serving the aborted gen %d", h.Name, r.Gen())
		}
		if lkg := h.CommittedGeneration(); lkg != 1 {
			t.Fatalf("%s LKG moved to gen %d", h.Name, lkg)
		}
		if hl.OrderViolations != 0 {
			t.Fatalf("%s: order violations during rollback: %s", h.Name, hl.Detail)
		}
		// Garbage is allowed ONLY on the known-bad trial generation (that is
		// the detection signal); any other generation reading garbage is a
		// real failure.
		for gen, n := range h.GarbageByGen() {
			if gen != r.Gen() && n > 0 {
				t.Fatalf("%s: %d garbage reads on gen %d (only bad gen %d may read garbage)",
					h.Name, n, gen, r.Gen())
			}
		}
		canaryGarbage += hl.Garbage
	}
	if canaryGarbage == 0 {
		t.Fatal("no canary read garbage; what triggered the rollback?")
	}
	// Non-canary hosts (second host per model, indexes 6..11) never saw the
	// trial: zero garbage, zero disruption.
	for _, h := range hosts[6:] {
		if hl := h.Health(); hl.Garbage != 0 {
			t.Fatalf("non-canary %s read garbage: %+v", h.Name, hl)
		}
	}
	// Exactly-once conservation holds fleet-wide after a final drain.
	pump(t, hosts, 8)
	for _, h := range hosts {
		hl := h.Health()
		if hl.Accepted != hl.Delivered || h.PendingCount() != 0 {
			t.Fatalf("%s: conservation broken after rollback: %+v pending %d", h.Name, hl, h.PendingCount())
		}
		if hl.OrderViolations != 0 {
			t.Fatalf("%s: order violation: %s", h.Name, hl.Detail)
		}
	}
	// A follow-up good rollout proceeds from the rolled-back state.
	r2, err := c.StartRollout(Upgrade{Name: "retry-good"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Run(func() { pump(t, hosts, 8) }); err != nil {
		t.Fatalf("post-rollback rollout failed: %v", err)
	}
}

// TestLeaseRevertOnControllerSilence: a host whose controller vanishes
// mid-trial reverts to last-known-good when the lease expires and keeps
// serving cleanly.
func TestLeaseRevertOnControllerSilence(t *testing.T) {
	c, hosts, links, clk := newTestFleet(t, 6, Options{LeaseNs: 10_000, BakeTarget: 8})
	c.Inventory()
	if err := c.Provision(); err != nil {
		t.Fatal(err)
	}
	r, err := c.StartRollout(Upgrade{Name: "doomed"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Step(); err != nil { // canary applies
		t.Fatal(err)
	}
	if c.Phase() != PhaseBake {
		t.Fatalf("phase = %s", c.Phase())
	}
	// Controller goes silent: partition every link, outlive the lease.
	for _, l := range links {
		l.Partition()
	}
	clk.Advance(20_000)
	pump(t, hosts, 16) // hosts keep serving; tick reverts expired trials
	reverts := uint64(0)
	for _, h := range hosts {
		hl := h.Health()
		if hl.Trial {
			t.Fatalf("%s trial survived its lease", h.Name)
		}
		if hl.Gen != h.CommittedGeneration() {
			t.Fatalf("%s serving gen %d but LKG is %d", h.Name, hl.Gen, h.CommittedGeneration())
		}
		reverts += hl.LeaseReverts
	}
	if reverts == 0 {
		t.Fatal("no lease reverts recorded")
	}
	requireClean(t, hosts)
	// The controller, once healed, observes the revert and rolls back.
	for _, l := range links {
		l.Heal()
	}
	if err := r.Step(); err == nil {
		t.Fatal("bake over lease-reverted canaries must roll the rollout back")
	}
	if c.Phase() != PhaseRolledBack {
		t.Fatalf("phase = %s", c.Phase())
	}
}

// TestRPCRetryAgainstFlappingLink: a flapping link (fails first attempts)
// is survived by the bounded backoff, and a dead link surfaces ErrDeadline
// after the attempt budget.
func TestRPCRetryAgainstFlappingLink(t *testing.T) {
	c, _, links, _ := newTestFleet(t, 2, Options{})
	links[0].FailNext(2) // third attempt succeeds, within the default 4
	rep := c.Inventory()
	if rep.Healthy != 2 {
		t.Fatalf("flapping link not retried through: %+v", rep)
	}
	calls, timeouts := links[0].Stats()
	if timeouts != 2 || calls < 3 {
		t.Fatalf("link stats calls=%d timeouts=%d, want 2 timeouts then success", calls, timeouts)
	}

	links[1].Partition()
	rep = c.Inventory()
	if rep.Healthy != 1 || len(rep.Quarantined) != 1 {
		t.Fatalf("dead link host not quarantined: %+v", rep)
	}
	if !strings.Contains(rep.Quarantined[0].Reason, "unreachable") {
		t.Fatalf("reason = %q", rep.Quarantined[0].Reason)
	}
}

// TestTranscript: the operator log narrates quarantine, canary, rollback.
func TestTranscript(t *testing.T) {
	c, hosts, _, _ := newTestFleet(t, 6, Options{BakeTarget: 8})
	hosts[1].SetDescribeMutator(func(d *Description) { d.Digest = "lie" })
	c.Inventory()
	if err := c.Provision(); err != nil {
		t.Fatal(err)
	}
	bad := Upgrade{Name: "bad-push", Descriptions: map[string]string{}}
	for _, m := range nic.All() {
		src, err := SwapSemantics(m.Source, "ip_checksum", "pkt_len")
		if err != nil {
			t.Fatal(err)
		}
		bad.Descriptions[m.Name] = src
	}
	r, err := c.StartRollout(bad)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(func() { pump(t, hosts, 8) })
	log := strings.Join(c.Transcript(), "\n")
	for _, want := range []string{"quarantine", "digest mismatch", "inventory:", "provision gen",
		"rollout \"bad-push\"", "oracle violation", "rolled back", "last-known-good"} {
		if !strings.Contains(log, want) {
			t.Errorf("transcript lacks %q:\n%s", want, log)
		}
	}
}

// FailNext scripts the next n calls to time out even on a healed link
// (flapping/lossy behavior).
func (l *Link) FailNext(n int) { l.failNext = n }
