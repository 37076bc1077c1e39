// Package chaos is a deterministic simulation harness for the full OpenDesc
// stack, in the FoundationDB style: devices (nicsim), the hardened driver
// (Harden), the live renegotiation control plane (evolve), the multi-tenant
// plane (tenant), the fleet control plane (fleet), fault injection (faults)
// and shifting application read-mixes (workload) all run under a single
// seeded virtual-time scheduler, so any run of any cell — including any
// *failing* run — is reproducible from (seed, config) alone, and from its
// replayable spec once shrunk.
//
// A cell is the set of lanes a run builds (Config.Mode): one or more
// hardened driver queues, pinned (harden) or evolving (evolve); the RSS cores
// of one multi-tenant plane (tenant); or the hosts of a fleet behind flaky
// control links (fleet). Generate draws a finite schedule from a splitmix64
// PRNG before anything runs — packet arrivals, polls, virtual-clock advances,
// and each cell's own events — every one naming its lane. RunSchedule
// executes it and checks the cell's invariant oracles after every event.
//
// Queue cells (harden, evolve): exactly-once — every accepted packet is
// delivered once, in order, per queue; golden-metadata — every semantic read
// returns its reference value (rxpath.Want) on the hardware and the soft
// path; stuck-pending — after a Poll on a healthy device no packet waits on
// an empty ring (the liveness invariant the resync path exists for);
// generation-monotonic — the evolve generation never decreases and advances
// at most one epoch per step; bounded-degraded — SoftNIC degraded mode ends
// within a bounded number of operations once the device is healthy;
// metrics-consistency — driver, device, ring, injector and flight-recorder
// counters agree with each other and with the harness's accounting;
// delivery-complete — the final drain delivers every accepted packet;
// diffverify — the description holds a passing S27 differential-verification
// certificate before any event runs.
//
// Tenant cell: exactly-once and golden-metadata per core queue;
// tenant-isolation — every packet reaches its own tenant, and a
// renegotiation delivers nothing and conserves pending traffic; reneg — a
// renegotiation succeeds; conservation — each tenant's accepted count is
// delivered by the final drain.
//
// Fleet cell: exactly-once per host; golden-metadata — garbage reads only on
// a known-bad trial generation; canary — a tampered upgrade never promotes;
// telemetry — an honest host is never quarantined by a sweep, and a forged
// report is rejected once it hides evidence; verified-gating — a host with an
// unverifiable description never leaves its boot generation; liveness — a
// rollout resolves once the links heal; conservation and cache-counters after
// the final drain.
//
// A violating run can be handed to the shrinker (shrink.go), which
// delta-debugs the event schedule down to a minimal reproducer and renders
// it as a replayable spec, plus an .odfl flight dump for a queue cell.
package chaos

import (
	"fmt"
	"strings"

	"opendesc"
	"opendesc/internal/diffverify"
	"opendesc/internal/faults"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
	"opendesc/internal/rxpath"
	"opendesc/internal/vclock"
	"opendesc/internal/workload"
)

// Mode selects the cell a chaos run exercises.
type Mode int

const (
	// ModeHarden runs pinned hardened drivers (validator, watchdog, SoftNIC
	// degraded mode) and throws the full fault-class matrix at them.
	ModeHarden Mode = iota
	// ModeEvolve runs hardened evolving drivers: the same fault matrix while
	// shifting read-mixes make the control plane renegotiate the layout
	// underneath the validator and the watchdog.
	ModeEvolve
	// ModeTenant runs one multi-tenant serving plane (DESIGN.md S24): tenants
	// share one jointly compiled layout over RSS-sharded cores while
	// per-tenant renegotiations re-solve it under Zipf traffic.
	ModeTenant
	// ModeFleet runs a heterogeneous fleet (DESIGN.md S25): self-describing
	// hosts behind flaky control links and a controller running canary
	// rollouts that alternate benign upgrades with tampered ones.
	ModeFleet
)

var modeNames = [...]string{"harden", "evolve", "tenant", "fleet"}

func (m Mode) String() string {
	if m >= 0 && int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode parses a cell name: harden, evolve, tenant or fleet.
func ParseMode(s string) (Mode, error) {
	for m, name := range modeNames {
		if s == name {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown mode %q (have %s)", s, strings.Join(modeNames[:], ", "))
}

// Config describes one chaos scenario. The zero value is a usable default
// (single hardened e1000e queue, rss+vlan+pkt_len). A field the cell does not
// read must stay zero: a run that sets one reports a setup violation.
type Config struct {
	// Mode selects the cell under test.
	Mode Mode
	// Queues is how many lanes the scheduler interleaves: driver queues
	// (harden and evolve: default 1, max 8; queue i's device reports
	// QueueID i), plane cores (tenant: default 2, max 8) or hosts (fleet:
	// default 6, max 64, round-robin over the six bundled NICs).
	Queues int
	// Steps is the schedule length Generate draws (default 512). The tenant
	// cell also sizes its Zipf trace by it.
	Steps int

	// NIC is the bundled model name (queue cells; default "e1000e").
	NIC string
	// Semantics is the compiled intent (queue cells; default rss, vlan,
	// pkt_len).
	Semantics []string
	// RingEntries sizes each device's completion ring (queue cells; default
	// 64 — small rings expose wrap-around and backpressure interleavings).
	RingEntries int
	// DisableResync deliberately re-opens the lost-completion liveness bug
	// the resync path fixed (HardenOptions.DisableResync), so tests can
	// prove the oracles catch it (queue cells). Never set outside a test or
	// a canary run.
	DisableResync bool
	// VerifyOverride, when non-empty, substitutes this P4 source for the
	// bundled description in the S27 diffverify oracle (queue cells) — a
	// test hook proving the oracle fires. The datapath still runs the
	// bundled model: in production an unverified description never gets
	// that far, which is exactly the property the hook demonstrates.
	VerifyOverride string
	// DumpDir, when non-empty, receives an .odfl flight dump of the
	// violating queue when an oracle fires (queue cells: plane and fleet
	// queues run clocked and record nothing).
	DumpDir string

	// Tenants is the tenant cell's tenant count (default 4, max 64).
	Tenants int

	// ForgedTelemetry arms fleet host 1 with a forged-clean telemetry
	// mutator: its reports hide garbage/order counters and anomaly evidence
	// (re-sealed with a valid digest, so only the controller's counter
	// cross-check can expose them). The telemetry oracle then requires the
	// controller to quarantine that host the moment its forgery actually
	// lies, and to never quarantine an honest one.
	ForgedTelemetry bool
	// MutatedDescription arms fleet host 2 with a rogue describe mutator: it
	// republishes its own description with an emitted semantic field widened
	// past the accessor domain, digest and capability claims recomputed so
	// the document is structurally self-consistent — only the S27
	// verification gate can reject it. The verified-gating oracle then
	// requires that host to be quarantined at bootstrap with a
	// "verification:" reason and to stay on its boot generation for the
	// whole run: no provision, no trial, no promotion ever reaches it.
	MutatedDescription bool
}

func (c Config) withDefaults() Config {
	lanes, maxLanes := 1, 8
	switch c.Mode {
	case ModeTenant:
		lanes = 2
		if c.Tenants <= 0 {
			c.Tenants = 4
		}
		c.Tenants = min(c.Tenants, 64)
	case ModeFleet:
		lanes, maxLanes = 6, 64
	default:
		if c.NIC == "" {
			c.NIC = "e1000e"
		}
		if len(c.Semantics) == 0 {
			c.Semantics = []string{"rss", "vlan", "pkt_len"}
		}
		if c.RingEntries <= 0 {
			c.RingEntries = 64
		}
	}
	if c.Queues <= 0 {
		c.Queues = lanes
	}
	c.Queues = min(c.Queues, maxLanes)
	if c.Steps <= 0 {
		c.Steps = 512
	}
	return c
}

// Check reports the first field set that c's cell does not read.
func (c Config) Check() error {
	drivers := c.Mode == ModeHarden || c.Mode == ModeEvolve
	for _, f := range []struct {
		name      string
		set, read bool
	}{
		{"NIC", c.NIC != "", drivers},
		{"Semantics", len(c.Semantics) > 0, drivers},
		{"RingEntries", c.RingEntries != 0, drivers},
		{"DisableResync", c.DisableResync, drivers},
		{"VerifyOverride", c.VerifyOverride != "", drivers},
		{"DumpDir", c.DumpDir != "", drivers},
		{"Tenants", c.Tenants != 0, c.Mode == ModeTenant},
		{"ForgedTelemetry", c.ForgedTelemetry, c.Mode == ModeFleet},
		{"MutatedDescription", c.MutatedDescription, c.Mode == ModeFleet},
	} {
		if f.set && !f.read {
			return fmt.Errorf("mode %s does not read %s", c.Mode, f.name)
		}
	}
	return nil
}

// The hardened watchdog's tuning under chaos: small, so the recovery ladder
// runs often and the degraded-residency bound stays tight.
const (
	degradeThreshold = 4
	maxResetBackoff  = 64
)

// String renders the scenario as the key=value line the reproducer spec and
// the trace header carry: every setting the cell's setup reads, so a shrunk
// spec rebuilds the same lanes. Deterministic (no maps).
func (c Config) String() string {
	c = c.withDefaults()
	switch c.Mode {
	case ModeTenant:
		return fmt.Sprintf("mode=%s queues=%d tenants=%d steps=%d", c.Mode, c.Queues, c.Tenants, c.Steps)
	case ModeFleet:
		s := fmt.Sprintf("mode=%s queues=%d", c.Mode, c.Queues)
		if c.ForgedTelemetry {
			s += " forged=on"
		}
		if c.MutatedDescription {
			s += " mutated=on"
		}
		return s
	}
	s := fmt.Sprintf("nic=%s mode=%s queues=%d ring=%d sems=%s",
		c.NIC, c.Mode, c.Queues, c.RingEntries, strings.Join(c.Semantics, ","))
	if c.DisableResync {
		s += " resync=off"
	}
	return s
}

// Violation reports one invariant breach: which oracle fired, at which
// schedule step, on which lane, and why.
type Violation struct {
	Oracle string
	Step   int
	Queue  int
	Detail string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("chaos: oracle %s violated at step %d (q%d): %s", v.Oracle, v.Step, v.Queue, v.Detail)
}

// Result is the outcome of one chaos run. Every exit path folds every
// counter the cell keeps; a counter another cell keeps stays zero.
type Result struct {
	// Violation is nil when every oracle held through the whole schedule
	// plus the final drain.
	Violation *Violation
	// Trace is the deterministic step-by-step run log: same (seed, config)
	// ⇒ byte-identical Trace.
	Trace []byte
	// Events is how many schedule events executed (less than the schedule
	// length when a violation stopped the run early).
	Events int

	Accepted  uint64 // packets the lanes accepted
	Delivered uint64 // packets handed to a delivery handler
	Rejected  uint64 // Rx refusals (ring backpressure or a wedged device)

	Switchovers uint64 // completed evolve generation swaps
	Restores    uint64 // hardened watchdog hardware restores
	Quarantined uint64 // completion records quarantined
	Resyncs     uint64 // lost completions resynchronized in software
	Rollbacks   uint64 // evolve switchovers (queue cells) or rollouts (fleet cell) rolled back

	Renegs     uint64 // tenant renegotiations that switched the layout
	FastRenegs uint64 // tenant renegotiations that swapped accessors only
	Steals     uint64 // deliveries a core polled from a neighbour's queue

	Rollouts         uint64  // fleet upgrades started
	Promotions       uint64  // fleet upgrades promoted
	LeaseReverts     uint64  // hosts back on last-known-good after controller silence
	CacheHitRate     float64 // the fleet controller's compile-cache hit rate at the end
	TelemetryReports uint64  // sweep reports validated, cross-checked and absorbed
	TelemetryRejects uint64  // sweep reports rejected (forged or stale)

	// DumpFiles lists the .odfl flight dumps written for a violation (only
	// when Config.DumpDir was set).
	DumpFiles []string
}

// runner is the scaffolding every cell shares: the configuration, the
// virtual clock, the trace and the result.
type runner struct {
	cfg Config
	clk *vclock.Virtual
	log strings.Builder
	res *Result
}

// cell is the lane set under test: it builds its lanes, executes the events
// that name them, checks its oracles, drains, and folds its counters.
type cell interface {
	// setup builds the lanes. An error that is a *Violation is an oracle
	// that fired before the first event; any other is a setup error.
	setup(s Schedule) error
	exec(step int, ev Event)             // run one event, write its trace line
	check(step int, ev Event) *Violation // the per-step oracles after exec
	drain(step int)                      // flush every lane, run the final oracles
	fold()                               // add the cell's counters into the result
}

// queue is the per-driver-queue harness state.
type queue struct {
	drv *opendesc.Driver
	inj *faults.Injector

	fifo      rxpath.FIFO
	accepted  uint64
	delivered uint64
	rejected  uint64

	mixPhase int
	lastGen  uint64
	// degradedHealthyOps counts consecutive events observed with the driver
	// degraded while the injector is NOT wedged — the bounded-degraded
	// oracle's residency clock.
	degradedHealthyOps int

	// viol records the first violation the delivery handler detected (the
	// handler cannot abort the Poll that invoked it).
	viol *Violation
}

// queueCell is the harden and evolve cell: one hardened driver per lane.
type queueCell struct {
	*runner
	// mixes is the read-mix phase schedule mix-shift events walk: three
	// phases derived from Config.Semantics (mixPhases).
	mixes   workload.MixSchedule
	trace   *workload.Trace
	queues  []*queue
	nextPkt int
}

// Run generates the schedule for (cfg, seed) and executes it. Any failure is
// reproducible from the same (cfg, seed) pair.
func Run(cfg Config, seed uint64) *Result {
	return RunSchedule(cfg, Generate(cfg, seed))
}

// RunSchedule executes an explicit event schedule (the replay and shrink
// entry point) on the cell cfg selects. The schedule's seed feeds the cell's
// setup — the fault injectors, the Zipf trace, the fleet controller — so a
// replay rebuilds the same lanes.
func RunSchedule(cfg Config, s Schedule) *Result {
	cfg = cfg.withDefaults()
	r := &runner{cfg: cfg, clk: vclock.NewVirtual(1), res: &Result{}}
	var c cell
	switch cfg.Mode {
	case ModeTenant:
		c = &planeCell{runner: r}
	case ModeFleet:
		c = &fleetCell{runner: r}
	default:
		c = &queueCell{runner: r}
	}
	err := validate(cfg, s)
	if err == nil {
		err = c.setup(s)
	}
	if err != nil {
		// A scenario that cannot even build its lanes is a configuration
		// error, reported as a violation of the "setup" pseudo-oracle so
		// sweeps surface it instead of panicking.
		v, ok := err.(*Violation)
		if !ok {
			v = &Violation{Oracle: "setup", Detail: err.Error()}
		}
		r.fail(v)
		r.res.Trace = []byte(r.log.String())
		return r.res
	}
	for i, ev := range s.Events {
		if c.exec(i, ev); r.res.Violation == nil {
			r.fail(c.check(i, ev))
		}
		r.res.Events = i + 1
		if r.res.Violation != nil {
			break
		}
	}
	if r.res.Violation == nil {
		c.drain(len(s.Events))
	}
	c.fold()
	r.res.Trace = []byte(r.log.String())
	return r.res
}

// fail records the run's first violation and writes its trace line; a nil
// violation is a no-op.
func (r *runner) fail(v *Violation) {
	if v != nil && r.res.Violation == nil {
		r.res.Violation = v
		fmt.Fprintf(&r.log, "VIOLATION %s step=%d q%d: %s\n", v.Oracle, v.Step, v.Queue, v.Detail)
	}
}

// verifyDescription is the S27 diffverify oracle: before the schedule runs,
// the description of record must hold a passing differential-verification
// certificate. Certificates are digest-cached process-wide, so repeated runs
// and sweeps pay for one harness execution per distinct description.
func (r *queueCell) verifyDescription() *Violation {
	name, src := r.cfg.NIC, r.cfg.VerifyOverride
	if src == "" {
		m, err := nic.Load(r.cfg.NIC)
		if err != nil {
			return nil // setup will report the load failure with full context
		}
		src = m.Source
	}
	if cert := diffverify.CertifyCached(name, src); !cert.Passed {
		return &Violation{Oracle: "diffverify", Detail: cert.Reason}
	}
	return nil
}

// setup runs the diffverify oracle, then opens one driver per queue on the
// shared virtual clock.
func (r *queueCell) setup(s Schedule) error {
	if v := r.verifyDescription(); v != nil {
		return v
	}
	r.mixes = phaseMixes(r.cfg.Semantics)
	spec := workload.DefaultSpec()
	spec.Packets = 256 // reused modulo
	tr, err := workload.Generate(spec)
	if err != nil {
		return err
	}
	r.trace = tr

	intent, err := opendesc.NewIntent("chaos_intent", r.cfg.Semantics...)
	if err != nil {
		return err
	}
	for qi := 0; qi < r.cfg.Queues; qi++ {
		devCfg := nicsim.Config{
			RingEntries: r.cfg.RingEntries,
			QueueID:     uint16(qi),
			Clock:       r.clk,
		}
		opts := opendesc.OpenOptions{
			Harden: &opendesc.HardenOptions{
				// The golden-metadata oracle asserts the deep-validation
				// guarantee (zero garbage reads even under record
				// corruption), so chaos always arms the deep tier —
				// structural validation alone cannot catch a flipped bit
				// in a non-redundant field like rss.
				Deep:             true,
				DegradeThreshold: degradeThreshold,
				MaxResetBackoff:  maxResetBackoff,
				DisableResync:    r.cfg.DisableResync,
				Clock:            r.clk,
			},
			Device: devCfg,
		}
		if r.cfg.Mode == ModeEvolve {
			opts.Evolve = &opendesc.EvolveOptions{
				// Short windows: a 128-step case delivers ~60 packets.
				Interval:  16,
				MinWindow: 8,
				// Never let wall-clock shim measurements into the re-solve:
				// renegotiation decisions must be a pure function of the
				// schedule.
				MinShimSamples: ^uint64(0),
				Clock:          r.clk,
			}
		}
		drv, err := opendesc.OpenWith(r.cfg.NIC, intent, opts)
		if err != nil {
			return fmt.Errorf("queue %d: %w", qi, err)
		}
		inj := faults.New(faults.Plan{Seed: s.Seed ^ uint64(qi)<<32})
		drv.InjectFaults(inj)
		r.queues = append(r.queues, &queue{drv: drv, inj: inj})
	}
	fmt.Fprintf(&r.log, "chaos %s seed=%d events=%d\n", r.cfg, s.Seed, len(s.Events))
	return nil
}

// handler returns the Poll delivery handler for queue qi: it enforces the
// exactly-once and golden-metadata oracles on every delivery, reading the
// semantics of the queue's current mix phase (on an evolving driver those
// reads are the read mix the control plane re-solves for).
func (r *queueCell) handler(qi int, step int) func([]byte, opendesc.Meta) {
	q := r.queues[qi]
	mix := r.mixes.Phase(q.mixPhase)
	return func(p []byte, m opendesc.Meta) {
		q.delivered++
		if q.viol != nil {
			return
		}
		if !q.fifo.Pop(p) {
			q.viol = &Violation{Oracle: "exactly-once", Step: step, Queue: qi,
				Detail: fmt.Sprintf("delivery %d out of order, duplicated or spurious (%d outstanding)", q.delivered, len(q.fifo))}
			return
		}
		for _, sem := range mix {
			v, ok := m.Get(sem)
			if !ok {
				q.viol = &Violation{Oracle: "golden-metadata", Step: step, Queue: qi,
					Detail: fmt.Sprintf("read of %s not linked", sem)}
				return
			}
			if want, ok := rxpath.Want(m, sem); ok && v != want {
				q.viol = &Violation{Oracle: "golden-metadata", Step: step, Queue: qi,
					Detail: fmt.Sprintf("%s = %d, reference %d (garbage read)", sem, v, want)}
				return
			}
		}
	}
}

// exec executes one schedule event and appends its trace line.
func (r *queueCell) exec(step int, ev Event) {
	qi := int(ev.Q)
	q := r.queues[qi]
	switch ev.Op {
	case OpRx:
		p := r.trace.Packets[r.nextPkt%len(r.trace.Packets)]
		r.nextPkt++
		if q.drv.Rx(p) {
			q.accepted++
			q.fifo.Push(p)
		} else {
			q.rejected++
		}
	case OpPoll:
		q.drv.Poll(r.handler(qi, step))
	case OpAdvance:
		r.clk.Advance(ev.Arg)
	case OpFault:
		q.inj.ScriptNext(faults.Class(ev.Arg))
	case OpHang:
		q.inj.ScriptHang(int(ev.Arg))
	case OpMixShift:
		q.mixPhase = int(ev.Arg) % mixPhases
	}
	hard := q.drv.Hardening()
	deg := 0
	if hard.Degraded {
		deg = 1
	}
	fmt.Fprintf(&r.log, "%04d %-16s q%d acc=%d del=%d pend=%d gen=%d deg=%d\n",
		step, ev, qi, q.accepted, q.delivered, q.drv.PendingPackets(),
		q.drv.Evolution().Generation, deg)
}

// drain flushes every queue after the schedule: polls until all queues are
// empty and healthy, bounded so a liveness bug turns into a violation
// instead of an endless loop. Clock time advances each round so time-based
// residency keeps moving.
func (r *queueCell) drain(step int) {
	const maxRounds = 20000
	for round := 0; round < maxRounds; round++ {
		done := true
		for qi, q := range r.queues {
			q.drv.Poll(r.handler(qi, step))
			if q.viol != nil {
				r.fail(q.viol)
				return
			}
			if v := r.oracles(step, qi); v != nil {
				r.fail(v)
				return
			}
			if q.drv.PendingPackets() > 0 || q.drv.Hardening().Degraded {
				done = false
			}
		}
		r.clk.Advance(1000)
		if done {
			break
		}
	}
	for qi, q := range r.queues {
		if q.accepted != q.delivered {
			r.fail(&Violation{Oracle: "delivery-complete", Step: step, Queue: qi,
				Detail: fmt.Sprintf("delivered %d of %d accepted packets after drain", q.delivered, q.accepted)})
			return
		}
	}
	fmt.Fprintf(&r.log, "drain complete\n")
}

// check runs the per-step oracles for the event just executed.
func (r *queueCell) check(step int, ev Event) *Violation {
	qi := int(ev.Q)
	if v := r.queues[qi].viol; v != nil {
		return v
	}
	// stuck-pending is only decidable right after a Poll on that queue: a
	// pending packet whose completion was just lost is legitimately stuck
	// until the next Poll resynchronizes it.
	if ev.Op == OpPoll {
		q := r.queues[qi]
		hard := q.drv.Hardening()
		if q.drv.PendingPackets() > 0 &&
			q.drv.DeviceStats().Ring.Produced == q.drv.DeviceStats().Ring.Consumed &&
			!hard.Degraded && !q.inj.Hung() {
			return &Violation{Oracle: "stuck-pending", Step: step, Queue: qi,
				Detail: fmt.Sprintf("%d packets pending with an empty ring and a healthy device after Poll", q.drv.PendingPackets())}
		}
	}
	for i := range r.queues {
		if v := r.oracles(step, i); v != nil {
			return v
		}
	}
	return nil
}

// oracles runs the always-on per-queue invariants (generation monotonicity,
// bounded degraded residency, cross-counter consistency).
func (r *queueCell) oracles(step, qi int) *Violation {
	q := r.queues[qi]
	ev := q.drv.Evolution()
	if ev.Generation < q.lastGen {
		return &Violation{Oracle: "generation-monotonic", Step: step, Queue: qi,
			Detail: fmt.Sprintf("generation went backwards: %d -> %d", q.lastGen, ev.Generation)}
	}
	if ev.Generation > q.lastGen+1 {
		return &Violation{Oracle: "generation-monotonic", Step: step, Queue: qi,
			Detail: fmt.Sprintf("generation jumped %d -> %d in one step", q.lastGen, ev.Generation)}
	}
	q.lastGen = ev.Generation

	hard := q.drv.Hardening()
	if hard.Degraded && !q.inj.Hung() {
		q.degradedHealthyOps++
		if bound := 4*maxResetBackoff + 64; q.degradedHealthyOps > bound {
			return &Violation{Oracle: "bounded-degraded", Step: step, Queue: qi,
				Detail: fmt.Sprintf("degraded for %d ops past device recovery (bound %d)", q.degradedHealthyOps, bound)}
		}
	} else {
		q.degradedHealthyOps = 0
	}

	return r.consistent(step, qi)
}

// consistent cross-checks driver, device, ring, injector and flight-recorder
// counters against each other and the harness's own accounting.
func (r *queueCell) consistent(step, qi int) *Violation {
	q := r.queues[qi]
	ds := q.drv.DeviceStats()
	bad := func(detail string, args ...any) *Violation {
		return &Violation{Oracle: "metrics-consistency", Step: step, Queue: qi,
			Detail: fmt.Sprintf(detail, args...)}
	}
	if ds.Ring.Consumed > ds.Ring.Produced {
		return bad("ring consumed %d > produced %d", ds.Ring.Consumed, ds.Ring.Produced)
	}
	if got := q.delivered + uint64(q.drv.PendingPackets()); q.accepted != got {
		return bad("accepted %d != delivered %d + pending %d", q.accepted, q.delivered, q.drv.PendingPackets())
	}
	inj := q.inj.Stats()
	if inj.Injected[faults.Drop] != ds.LostCompletions {
		return bad("injector dropped %d completions, device lost %d", inj.Injected[faults.Drop], ds.LostCompletions)
	}
	hard := q.drv.Hardening()
	if hard.Resets > hard.ResetAttempts {
		return bad("resets %d > reset attempts %d", hard.Resets, hard.ResetAttempts)
	}
	if hard.HardwareRestores > hard.Resets {
		return bad("hardware restores %d > resets %d", hard.HardwareRestores, hard.Resets)
	}
	evs := q.drv.Evolution()
	pm := q.drv.Flight().Postmortems()
	if low := hard.DegradedEnters + hard.HardwareRestores + evs.Rollbacks; pm < low {
		return bad("flight postmortems %d < degraded enters %d + restores %d + rollbacks %d",
			pm, hard.DegradedEnters, hard.HardwareRestores, evs.Rollbacks)
	}
	if high := hard.DegradedEnters + hard.HardwareRestores + evs.Rollbacks + inj.Resets + 1; pm > high {
		return bad("flight postmortems %d > ceiling %d", pm, high)
	}
	return nil
}

// fold adds the per-queue counters into the result and, when a dump dir is
// configured, snapshots the violating queue's flight recorder to an .odfl
// postmortem.
func (r *queueCell) fold() {
	for _, q := range r.queues {
		r.res.Accepted += q.accepted
		r.res.Delivered += q.delivered
		r.res.Rejected += q.rejected
		hard := q.drv.Hardening()
		r.res.Quarantined += hard.Quarantined
		r.res.Resyncs += hard.ResyncDrops
		r.res.Restores += hard.HardwareRestores
		evs := q.drv.Evolution()
		r.res.Switchovers += evs.Switchovers
		r.res.Rollbacks += evs.Rollbacks
	}
	if v := r.res.Violation; v != nil && r.cfg.DumpDir != "" && v.Queue < len(r.queues) {
		rec := r.queues[v.Queue].drv.Flight()
		rec.SetDumpDir(r.cfg.DumpDir)
		rec.Postmortem("chaos-" + v.Oracle)
		r.res.DumpFiles = rec.DumpFiles()
	}
}
