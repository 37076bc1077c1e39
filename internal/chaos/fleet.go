package chaos

import (
	"fmt"
	"strings"

	"opendesc/internal/diffverify"
	"opendesc/internal/fleet"
	"opendesc/internal/fleet/telemetry"
	"opendesc/internal/nic"
	"opendesc/internal/pkt"
	"opendesc/internal/vclock"
)

// FleetConfig describes one fleet-control-plane chaos scenario (S25): a
// heterogeneous fleet of self-describing hosts behind flaky control links,
// a controller running canary rollouts — alternating benign upgrades with
// deliberately tampered ones — while the scheduler interleaves traffic,
// polls, clock advances, link partitions/heals, and rollout steps. The
// oracle family: exactly-once in-order delivery on every host through
// every rollout and rollback; golden-metadata reads clean on every
// generation except a known-bad trial (where garbage on the canary IS the
// detection signal, and only there); hosts surviving controller partitions
// on their last-known-good layout; exact conservation after the final
// drain.
type FleetConfig struct {
	// Hosts is the fleet size, round-robin over the six bundled NICs
	// (default 6, max 64).
	Hosts int
	// Steps is the schedule length (default 512).
	Steps int
	// ForgedTelemetry arms host index 1 with a forged-clean telemetry
	// mutator: its reports hide garbage/order counters and anomaly evidence
	// (re-sealed with a valid digest, so only the controller's counter
	// cross-check can expose them). The telemetry oracle then requires the
	// controller to quarantine that host the moment its forgery actually
	// lies, and to never quarantine an honest one.
	ForgedTelemetry bool
	// MutatedDescription arms host index 2 with a rogue describe mutator: it
	// republishes its own description with an emitted semantic field widened
	// past the accessor domain, digest and capability claims recomputed so
	// the document is structurally self-consistent — only the S27
	// verification gate can reject it. The verified-gating oracle then
	// requires that host to be quarantined at bootstrap with a
	// "verification:" reason and to stay on its boot generation for the
	// whole run: no provision, no trial, no promotion ever reaches it.
	MutatedDescription bool
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.Hosts <= 0 {
		c.Hosts = 6
	}
	if c.Hosts > 64 {
		c.Hosts = 64
	}
	if c.Steps <= 0 {
		c.Steps = 512
	}
	return c
}

// The fleet scenario's hosts and rollouts: each host's completion ring holds
// 128 entries, a canary bakes 24 deliveries before promotion, and the trial
// lease is 2^20 virtual nanoseconds, short enough that partition events
// actually expire trials.
const (
	fleetRing       = 128
	fleetBakeTarget = 24
	fleetLeaseNs    = 1 << 20
)

// fleetUpgrades alternates benign intent widenings with tampered
// description pushes, so every long schedule exercises both promotion and
// automatic rollback.
var fleetGoodIntents = [2][]string{
	{"rss", "pkt_len"},
	{"rss", "pkt_len", "flow_id"},
}

// FleetResult is the outcome of one fleet chaos run.
type FleetResult struct {
	Violation *Violation
	// Trace is the deterministic run log: same (cfg, seed) ⇒ identical.
	Trace  []byte
	Events int

	Accepted   uint64
	Delivered  uint64
	Rollouts   uint64
	Promotions uint64
	Rollbacks  uint64
	// LeaseReverts counts hosts that unilaterally degraded to
	// last-known-good after controller silence.
	LeaseReverts uint64
	// CacheHitRate is the controller compile-cache hit rate at the end.
	CacheHitRate float64
	// TelemetryReports / TelemetryRejects count sweep outcomes: reports
	// validated+cross-checked+absorbed vs rejected (forged or stale).
	TelemetryReports uint64
	TelemetryRejects uint64
}

// fleetRunner executes one fleet schedule.
type fleetRunner struct {
	cfg   FleetConfig
	clk   *vclock.Virtual
	ctrl  *fleet.Controller
	hosts []*fleet.Host
	links []*fleet.Link

	rollout  *fleet.Rollout
	upgradeN int
	// badGens marks generations installed by tampered upgrades: garbage
	// reads are legal (expected, even) on exactly these and fatal anywhere
	// else.
	badGens map[uint64]bool
	// lastGarbage tracks each host's garbage counter so the oracle can
	// attribute every increment to the generation that produced it.
	lastGarbage []map[uint64]uint64

	nextPkt int
	log     strings.Builder
	res     *FleetResult
	viol    *Violation
}

// RunFleet executes the fleet-control-plane chaos scenario for (cfg, seed).
// Fully deterministic: virtual clock, splitmix64 schedule, single-threaded
// interleaving.
func RunFleet(cfg FleetConfig, seed uint64) *FleetResult {
	cfg = cfg.withDefaults()
	r := &fleetRunner{cfg: cfg, clk: vclock.NewVirtual(1), res: &FleetResult{}}
	if err := r.setup(seed); err != nil {
		r.res.Violation = &Violation{Oracle: "setup", Detail: err.Error()}
		return r.res
	}
	rng := &rng{s: seed ^ 0x51c3a9b2e7d40f86}
	for step := 0; step < cfg.Steps; step++ {
		if r.viol != nil {
			break
		}
		r.exec(step, rng)
		r.checkOracles(step)
		r.res.Events++
	}
	if r.viol == nil {
		r.finish(cfg.Steps)
	}
	r.res.Violation = r.viol
	for _, h := range r.hosts {
		hl := h.Health()
		r.res.Accepted += hl.Accepted
		r.res.Delivered += hl.Delivered
		r.res.LeaseReverts += hl.LeaseReverts
	}
	st := r.ctrl.CacheStats()
	r.res.CacheHitRate = st.HitRate()
	r.res.Trace = []byte(r.log.String())
	return r.res
}

func (r *fleetRunner) setup(seed uint64) error {
	cfg := r.cfg
	r.ctrl = fleet.NewController(fleet.Options{
		Clock:      r.clk,
		Seed:       seed,
		LeaseNs:    fleetLeaseNs,
		BakeTarget: fleetBakeTarget,
	})
	models := nic.All()
	for i := 0; i < cfg.Hosts; i++ {
		m := models[i%len(models)]
		h, err := fleet.NewHost(fmt.Sprintf("%s-%d", m.Name, i), m, fleet.HostOptions{
			RingEntries: fleetRing,
			Clock:       r.clk,
		})
		if err != nil {
			return err
		}
		l := fleet.NewLink(r.clk, 500)
		r.ctrl.AddHost(h, l)
		r.hosts = append(r.hosts, h)
		r.links = append(r.links, l)
	}
	if cfg.MutatedDescription && len(r.hosts) > 2 {
		src, err := diffverify.WidenFirstSemantic(r.hosts[2].Model.Source, 96)
		if err != nil {
			return fmt.Errorf("mutated description: %v", err)
		}
		r.hosts[2].SetDescribeMutator(func(d *fleet.Description) {
			if rd, rerr := d.RewriteSource(src); rerr == nil {
				*d = *rd
			}
		})
	}
	if cfg.ForgedTelemetry && len(r.hosts) > 1 {
		// Clean-slate forgery: the report claims nothing was delivered and
		// nothing went wrong. It re-seals with a valid digest, so it lies
		// undetectably — until the controller's own Health observation says
		// the host has served traffic.
		r.hosts[1].SetTelemetryMutator(func(rep *telemetry.Report) {
			rep.Counters = telemetry.Counters{}
			rep.Anomalies, rep.Slowest, rep.Truncated = nil, nil, 0
		})
	}
	r.badGens = make(map[uint64]bool)
	r.lastGarbage = make([]map[uint64]uint64, cfg.Hosts)
	for i := range r.lastGarbage {
		r.lastGarbage[i] = make(map[uint64]uint64)
	}
	// Bootstrap with links up: discovery + provision are the precondition
	// the schedule then attacks.
	wantHealthy := cfg.Hosts
	if cfg.MutatedDescription && cfg.Hosts > 2 {
		wantHealthy--
	}
	rep := r.ctrl.Inventory()
	if rep.Healthy != wantHealthy {
		return fmt.Errorf("bootstrap inventory: %d/%d healthy, want %d", rep.Healthy, cfg.Hosts, wantHealthy)
	}
	if cfg.MutatedDescription && cfg.Hosts > 2 {
		found := false
		for _, q := range rep.Quarantined {
			if q.Host == r.hosts[2].Name {
				found = true
				if !strings.HasPrefix(q.Reason, "verification: ") {
					return fmt.Errorf("mutated host quarantined for %q, want a verification reason", q.Reason)
				}
			}
		}
		if !found {
			return fmt.Errorf("mutated-description host %s not quarantined at bootstrap", r.hosts[2].Name)
		}
	}
	if err := r.ctrl.Provision(); err != nil {
		return fmt.Errorf("bootstrap provision: %v", err)
	}
	fmt.Fprintf(&r.log, "boot: %d hosts provisioned, cache hit rate %.3f\n",
		cfg.Hosts, r.ctrl.CacheStats().HitRate())
	return nil
}

func (r *fleetRunner) exec(step int, rng *rng) {
	switch roll := rng.intn(100); {
	case roll < 45:
		r.rx(step, rng)
	case roll < 70:
		h := rng.intn(len(r.hosts))
		if n := r.hosts[h].Poll(); n > 0 {
			fmt.Fprintf(&r.log, "%4d poll h%d -> %d\n", step, h, n)
		}
	case roll < 80:
		ns := uint64(1 + rng.intn(1<<14))
		r.clk.Advance(ns)
		fmt.Fprintf(&r.log, "%4d advance %d\n", step, ns)
	case roll < 88:
		i := rng.intn(len(r.links))
		l := r.links[i]
		if l.Partitioned() {
			l.Heal()
			fmt.Fprintf(&r.log, "%4d heal link %d\n", step, i)
		} else {
			l.Partition()
			fmt.Fprintf(&r.log, "%4d partition link %d\n", step, i)
		}
	case roll < 93:
		r.telemetryEvent(step)
	default:
		r.rolloutEvent(step)
	}
}

// telemetryEvent sweeps the fleet for telemetry reports and runs the
// telemetry oracle: an honest host is never quarantined by the sweep, and
// a forged-clean report is rejected the moment it actually hides evidence.
func (r *fleetRunner) telemetryEvent(step int) {
	sw := r.ctrl.CollectTelemetry()
	r.res.TelemetryReports += uint64(sw.Collected)
	r.res.TelemetryRejects += uint64(sw.Rejected)
	fmt.Fprintf(&r.log, "%4d telemetry sweep: %d collected %d skipped %d rejected, fleet p99 %d\n",
		step, sw.Collected, sw.Skipped, sw.Rejected, r.ctrl.Rollup().FleetP99())
	var forgedName string
	if r.cfg.ForgedTelemetry && len(r.hosts) > 1 {
		forgedName = r.hosts[1].Name
	}
	for _, o := range sw.Outcomes {
		if !o.Accepted && !o.Skipped && o.Host != forgedName {
			r.fail(&Violation{Oracle: "telemetry", Step: step,
				Detail: fmt.Sprintf("honest host %s quarantined by telemetry sweep: %s", o.Host, o.Reason)})
			return
		}
		if o.Accepted && o.Host == forgedName {
			hl := r.hosts[1].Health()
			if hl.Delivered > 0 || hl.Garbage > 0 || hl.OrderViolations > 0 {
				r.fail(&Violation{Oracle: "telemetry", Step: step,
					Detail: fmt.Sprintf("forged clean-slate report from %s absorbed despite %d delivered / %d garbage reads",
						o.Host, hl.Delivered, hl.Garbage)})
				return
			}
		}
	}
}

func (r *fleetRunner) rx(step int, rng *rng) {
	i := r.nextPkt
	r.nextPkt++
	h := rng.intn(len(r.hosts))
	pk := pkt.NewBuilder().
		WithIPv4([4]byte{10, byte(h), byte(i >> 8), byte(i)}, [4]byte{10, 0, 0, 1}).
		WithUDP(uint16(2000+i%251), uint16(53+i%7)).
		WithPayload(make([]byte, 4+i%119)).
		Build()
	if r.hosts[h].Rx(pk) {
		fmt.Fprintf(&r.log, "%4d rx h%d\n", step, h)
	} else {
		fmt.Fprintf(&r.log, "%4d rx h%d REJECT\n", step, h)
	}
}

// rolloutEvent advances the control plane: start an upgrade when idle
// (alternating benign and tampered), otherwise step the active rollout.
func (r *fleetRunner) rolloutEvent(step int) {
	if r.rollout == nil {
		bad := r.upgradeN%2 == 1
		up := fleet.Upgrade{Name: fmt.Sprintf("up%d", r.upgradeN)}
		if bad {
			up.Descriptions = map[string]string{}
			for _, m := range nic.All() {
				src, err := fleet.SwapSemantics(m.Source, "ip_checksum", "pkt_len")
				if err != nil {
					r.fail(&Violation{Oracle: "setup", Step: step, Detail: err.Error()})
					return
				}
				up.Descriptions[m.Name] = src
			}
		} else {
			up.Semantics = fleetGoodIntents[(r.upgradeN/2)%2]
		}
		ro, err := r.ctrl.StartRollout(up)
		if err != nil {
			// Start can legitimately fail only when a prior rollout is still
			// active (it is not) — anything else is a harness bug, but a
			// partitioned fleet can also leave zero healthy targets.
			fmt.Fprintf(&r.log, "%4d rollout start %q refused: %v\n", step, up.Name, err)
			return
		}
		r.rollout = ro
		if bad {
			r.badGens[ro.Gen()] = true
		}
		r.upgradeN++
		fmt.Fprintf(&r.log, "%4d rollout start %q gen %d bad=%t\n", step, up.Name, ro.Gen(), bad)
		return
	}
	wasBad := r.badGens[r.rollout.Gen()]
	err := r.rollout.Step()
	phase := r.ctrl.Phase()
	fmt.Fprintf(&r.log, "%4d rollout step -> %s (err=%v)\n", step, phase, err)
	switch phase {
	case fleet.PhasePromoted:
		if wasBad {
			r.fail(&Violation{Oracle: "canary", Step: step,
				Detail: fmt.Sprintf("tampered upgrade gen %d promoted fleet-wide", r.rollout.Gen())})
			return
		}
		r.res.Promotions++
		r.rollout = nil
	case fleet.PhaseRolledBack:
		r.res.Rollbacks++
		r.rollout = nil
	}
}

// feed pushes one deterministic packet into every host (finish-phase bake
// traffic, when the random schedule is over).
func (r *fleetRunner) feed() {
	for h := range r.hosts {
		i := r.nextPkt
		r.nextPkt++
		pk := pkt.NewBuilder().
			WithIPv4([4]byte{10, byte(h), byte(i >> 8), byte(i)}, [4]byte{10, 0, 0, 1}).
			WithUDP(uint16(2000+i%251), 53).
			WithPayload(make([]byte, 4+i%119)).
			Build()
		r.hosts[h].Rx(pk)
	}
}

// checkOracles runs the continuous invariants after every step: no order
// violations anywhere, and garbage-read increments attributable only to
// known-bad trial generations.
func (r *fleetRunner) checkOracles(step int) {
	if r.viol != nil {
		return
	}
	if r.cfg.MutatedDescription && len(r.hosts) > 2 {
		// Verified-gating oracle: the quarantined host never advances past
		// its boot generation — no provision, trial, or promotion reached it.
		h := r.hosts[2]
		if g, cg := h.Generation(), h.CommittedGeneration(); g != 0 || cg != 0 {
			r.fail(&Violation{Oracle: "verified-gating", Step: step, Queue: 2,
				Detail: fmt.Sprintf("unverified host %s advanced to gen %d (committed %d); the certificate gate leaked", h.Name, g, cg)})
			return
		}
	}
	for i, h := range r.hosts {
		hl := h.Health()
		if hl.OrderViolations != 0 {
			r.fail(&Violation{Oracle: "exactly-once", Step: step, Queue: i, Detail: hl.Detail})
			return
		}
		for gen, n := range h.GarbageByGen() {
			if n > r.lastGarbage[i][gen] && !r.badGens[gen] {
				r.fail(&Violation{Oracle: "golden-metadata", Step: step, Queue: i,
					Detail: fmt.Sprintf("host %s read garbage on gen %d (not a tampered generation): %s",
						h.Name, gen, hl.Detail)})
				return
			}
			r.lastGarbage[i][gen] = n
		}
	}
}

// finish heals every link, resolves any in-flight rollout, drains every
// host, and checks conservation: every accepted packet delivered exactly
// once, no expectation left behind, cache counters reconciled.
func (r *fleetRunner) finish(step int) {
	for _, l := range r.links {
		l.Heal()
	}
	// Let any expired trial lease fire before the controller reconnects.
	r.clk.Advance(fleetLeaseNs + 1)
	if r.rollout != nil {
		for i := 0; r.viol == nil && r.rollout != nil && i < 1024; i++ {
			wasBad := r.badGens[r.rollout.Gen()]
			r.rollout.Step()
			switch r.ctrl.Phase() {
			case fleet.PhasePromoted:
				if wasBad {
					r.fail(&Violation{Oracle: "canary", Step: step,
						Detail: fmt.Sprintf("tampered upgrade gen %d promoted at finish", r.rollout.Gen())})
					return
				}
				r.res.Promotions++
				r.rollout = nil
			case fleet.PhaseRolledBack:
				r.res.Rollbacks++
				r.rollout = nil
			default:
				// Mid-bake: canaries need traffic to accumulate deliveries.
				r.feed()
				for h := range r.hosts {
					r.hosts[h].Poll()
				}
			}
		}
		if r.rollout != nil {
			r.fail(&Violation{Oracle: "liveness", Step: step,
				Detail: fmt.Sprintf("rollout stuck in phase %s after links healed", r.ctrl.Phase())})
			return
		}
	}
	for drained := true; drained && r.viol == nil; {
		drained = false
		for _, h := range r.hosts {
			if h.Poll() > 0 {
				drained = true
			}
		}
	}
	r.checkOracles(step)
	if r.viol != nil {
		return
	}
	for i, h := range r.hosts {
		hl := h.Health()
		if hl.Accepted != hl.Delivered || h.PendingCount() != 0 {
			r.fail(&Violation{Oracle: "conservation", Step: step, Queue: i,
				Detail: fmt.Sprintf("host %s: accepted %d, delivered %d, pending %d",
					h.Name, hl.Accepted, hl.Delivered, h.PendingCount())})
			return
		}
	}
	st := r.ctrl.CacheStats()
	if st.Hits+st.Misses != st.Gets || st.Misses != uint64(st.Entries) {
		r.fail(&Violation{Oracle: "cache-counters", Step: step,
			Detail: fmt.Sprintf("gets %d, hits %d, misses %d, entries %d: want gets = hits + misses and misses = entries",
				st.Gets, st.Hits, st.Misses, st.Entries)})
		return
	}
	r.res.Rollouts = uint64(r.upgradeN)
}

func (r *fleetRunner) fail(v *Violation) {
	if r.viol == nil {
		r.viol = v
		fmt.Fprintf(&r.log, "VIOLATION %s h%d: %s\n", v.Oracle, v.Queue, v.Detail)
	}
}
