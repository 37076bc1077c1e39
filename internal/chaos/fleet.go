package chaos

import (
	"fmt"
	"strings"

	"opendesc/internal/diffverify"
	"opendesc/internal/fleet"
	"opendesc/internal/fleet/telemetry"
	"opendesc/internal/nic"
	"opendesc/internal/pkt"
)

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

// fleetCell is the fleet cell: a heterogeneous fleet of self-describing
// hosts, the lanes, behind flaky control links, and a controller running
// canary rollouts that alternate benign upgrades with deliberately tampered
// ones (its oracles are in the package comment).
type fleetCell struct {
	*runner
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
}

// fleetEvent draws one fleet-cell event: an arrival at a host, a host's
// poll, a clock advance, a link toggle, a telemetry sweep, or a rollout
// event — each one's effect is decided when it executes.
func fleetEvent(rng *rng, cfg Config) Event {
	switch roll := rng.intn(100); {
	case roll < 45:
		return Event{Op: OpRx, Q: uint8(rng.intn(cfg.Queues))}
	case roll < 70:
		return Event{Op: OpPoll, Q: uint8(rng.intn(cfg.Queues))}
	case roll < 80:
		return Event{Op: OpAdvance, Arg: uint64(1 + rng.intn(1<<14))}
	case roll < 88:
		return Event{Op: OpLink, Q: uint8(rng.intn(cfg.Queues))}
	case roll < 93:
		return Event{Op: OpTelemetry}
	}
	return Event{Op: OpRollout}
}

func (r *fleetCell) setup(s Schedule) error {
	cfg := r.cfg
	r.ctrl = fleet.NewController(fleet.Options{
		Clock:      r.clk,
		Seed:       s.Seed,
		LeaseNs:    fleetLeaseNs,
		BakeTarget: fleetBakeTarget,
	})
	models := nic.All()
	for i := range cfg.Queues {
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
	r.lastGarbage = make([]map[uint64]uint64, cfg.Queues)
	for i := range r.lastGarbage {
		r.lastGarbage[i] = make(map[uint64]uint64)
	}
	// Bootstrap with links up: discovery + provision are the precondition
	// the schedule then attacks.
	rep, wantHealthy := r.ctrl.Inventory(), cfg.Queues
	if cfg.MutatedDescription && cfg.Queues > 2 {
		wantHealthy--
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
	if rep.Healthy != wantHealthy {
		return fmt.Errorf("bootstrap inventory: %d/%d healthy, want %d", rep.Healthy, cfg.Queues, wantHealthy)
	}
	if err := r.ctrl.Provision(); err != nil {
		return fmt.Errorf("bootstrap provision: %v", err)
	}
	fmt.Fprintf(&r.log, "boot: %d hosts provisioned, cache hit rate %.3f\n",
		cfg.Queues, r.ctrl.CacheStats().HitRate())
	return nil
}

func (r *fleetCell) exec(step int, ev Event) {
	switch h := int(ev.Q); ev.Op {
	case OpRx:
		r.rx(step, h)
	case OpPoll:
		if n := r.hosts[h].Poll(); n > 0 {
			fmt.Fprintf(&r.log, "%4d poll h%d -> %d\n", step, h, n)
		}
	case OpAdvance:
		r.clk.Advance(ev.Arg)
		fmt.Fprintf(&r.log, "%4d advance %d\n", step, ev.Arg)
	case OpLink:
		if l := r.links[h]; l.Partitioned() {
			l.Heal()
			fmt.Fprintf(&r.log, "%4d heal link %d\n", step, h)
		} else {
			l.Partition()
			fmt.Fprintf(&r.log, "%4d partition link %d\n", step, h)
		}
	case OpTelemetry:
		r.telemetryEvent(step)
	case OpRollout:
		r.rolloutEvent(step)
	}
}

// telemetryEvent sweeps the fleet for telemetry reports and runs the
// telemetry oracle: an honest host is never quarantined by the sweep, and
// a forged-clean report is rejected the moment it actually hides evidence.
func (r *fleetCell) telemetryEvent(step int) {
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

func (r *fleetCell) rx(step, h int) {
	if r.hosts[h].Rx(r.packet(h, 7)) {
		fmt.Fprintf(&r.log, "%4d rx h%d\n", step, h)
	} else {
		fmt.Fprintf(&r.log, "%4d rx h%d REJECT\n", step, h)
	}
}

// rolloutEvent advances the control plane: start an upgrade when idle
// (alternating benign and tampered), otherwise step the active rollout.
func (r *fleetCell) rolloutEvent(step int) {
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
	phase, err := r.stepRollout(step, "fleet-wide")
	fmt.Fprintf(&r.log, "%4d rollout step -> %s (err=%v)\n", step, phase, err)
}

// stepRollout steps the active rollout and settles a terminal phase: a
// tampered upgrade that promoted fires the canary oracle (where says when),
// and a promotion or a rollback clears the rollout.
func (r *fleetCell) stepRollout(step int, where string) (fleet.Phase, error) {
	gen := r.rollout.Gen()
	err := r.rollout.Step()
	phase := r.ctrl.Phase()
	switch phase {
	case fleet.PhasePromoted:
		if r.badGens[gen] {
			r.fail(&Violation{Oracle: "canary", Step: step,
				Detail: fmt.Sprintf("tampered upgrade gen %d promoted %s", gen, where)})
			return phase, err
		}
		r.res.Promotions++
		r.rollout = nil
	case fleet.PhaseRolledBack:
		r.res.Rollbacks++
		r.rollout = nil
	}
	return phase, err
}

// packet builds the next deterministic packet for host h, its destination
// port one of ports from 53 up.
func (r *fleetCell) packet(h, ports int) []byte {
	i := r.nextPkt
	r.nextPkt++
	return pkt.NewBuilder().
		WithIPv4([4]byte{10, byte(h), byte(i >> 8), byte(i)}, [4]byte{10, 0, 0, 1}).
		WithUDP(uint16(2000+i%251), uint16(53+i%ports)).
		WithPayload(make([]byte, 4+i%119)).
		Build()
}

// feed pushes one packet into every host (finish-phase bake traffic, when
// the schedule is over).
func (r *fleetCell) feed() {
	for h, host := range r.hosts {
		host.Rx(r.packet(h, 1))
	}
}

// check runs the continuous invariants after every step: no order
// violations anywhere, and garbage-read increments attributable only to
// known-bad trial generations.
func (r *fleetCell) check(step int, _ Event) *Violation {
	if r.cfg.MutatedDescription && len(r.hosts) > 2 {
		// Verified-gating oracle: the quarantined host never advances past
		// its boot generation — no provision, trial, or promotion reached it.
		h := r.hosts[2]
		if g, cg := h.Generation(), h.CommittedGeneration(); g != 0 || cg != 0 {
			return &Violation{Oracle: "verified-gating", Step: step, Queue: 2,
				Detail: fmt.Sprintf("unverified host %s advanced to gen %d (committed %d); the certificate gate leaked", h.Name, g, cg)}
		}
	}
	for i, h := range r.hosts {
		hl := h.Health()
		if hl.OrderViolations != 0 {
			return &Violation{Oracle: "exactly-once", Step: step, Queue: i, Detail: hl.Detail}
		}
		for gen, n := range h.GarbageByGen() {
			if n > r.lastGarbage[i][gen] && !r.badGens[gen] {
				return &Violation{Oracle: "golden-metadata", Step: step, Queue: i,
					Detail: fmt.Sprintf("host %s read garbage on gen %d (not a tampered generation): %s",
						h.Name, gen, hl.Detail)}
			}
			r.lastGarbage[i][gen] = n
		}
	}
	return nil
}

// drain heals every link, resolves any in-flight rollout, drains every
// host, and checks conservation: every accepted packet delivered exactly
// once, no expectation left behind, cache counters reconciled.
func (r *fleetCell) drain(step int) {
	for _, l := range r.links {
		l.Heal()
	}
	// Let any expired trial lease fire before the controller reconnects.
	r.clk.Advance(fleetLeaseNs + 1)
	for i := 0; r.res.Violation == nil && r.rollout != nil && i < 1024; i++ {
		if phase, _ := r.stepRollout(step, "at finish"); phase != fleet.PhasePromoted && phase != fleet.PhaseRolledBack {
			// Mid-bake: canaries need traffic to accumulate deliveries.
			r.feed()
			for _, h := range r.hosts {
				h.Poll()
			}
		}
	}
	if r.rollout != nil {
		r.fail(&Violation{Oracle: "liveness", Step: step,
			Detail: fmt.Sprintf("rollout stuck in phase %s after links healed", r.ctrl.Phase())})
		return
	}
	for drained := true; drained && r.res.Violation == nil; {
		drained = false
		for _, h := range r.hosts {
			if h.Poll() > 0 {
				drained = true
			}
		}
	}
	if r.fail(r.check(step, Event{})); r.res.Violation != nil {
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
}

func (r *fleetCell) fold() {
	for _, h := range r.hosts {
		hl := h.Health()
		r.res.Accepted += hl.Accepted
		r.res.Delivered += hl.Delivered
		r.res.Rejected += h.Rejected()
		r.res.LeaseReverts += hl.LeaseReverts
	}
	r.res.CacheHitRate = r.ctrl.CacheStats().HitRate()
	r.res.Rollouts = uint64(r.upgradeN)
}
