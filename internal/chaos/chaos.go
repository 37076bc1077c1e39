// Package chaos is a deterministic simulation harness for the full OpenDesc
// stack, in the FoundationDB style: devices (nicsim), the hardened driver
// (Harden), the live renegotiation control plane (evolve), fault injection
// (faults) and shifting application read-mixes (workload) all run under a
// single seeded virtual-time scheduler, so any run — including any *failing*
// run — is reproducible from (seed, config) alone.
//
// The scheduler draws a finite schedule of events from a splitmix64 PRNG:
// packet arrivals, polls, virtual-clock advances, scripted fault injections,
// device hangs, and read-mix shifts, interleaved across one or more driver
// queues. After every event a library of invariant oracles is checked:
//
//   - exactly-once — every accepted packet is delivered exactly once, in
//     order, per queue;
//   - golden-metadata — every semantic read returns its reference value on
//     the receiving device (rxpath.Want: zero garbage reads), on the
//     hardware path and the soft path;
//   - stuck-pending — a pending packet with an empty completion ring and a
//     healthy device must have been delivered by the preceding Poll (the
//     liveness invariant the PR 3 resync path exists for);
//   - generation-monotonic — the evolve generation never decreases and
//     advances at most one epoch per step;
//   - bounded-degraded — SoftNIC degraded mode is exited within a bounded
//     number of operations once the device is healthy again;
//   - metrics-consistency — driver, device, ring, injector and
//     flight-recorder counters agree with each other and with the harness's
//     own accounting;
//   - diffverify — the description under test holds a passing S27
//     differential-verification certificate (static layout, CFG walk,
//     interpreter, generated accessors and SoftNIC golden all agree on every
//     completion path) before any schedule executes.
//
// A violating run can be handed to the shrinker (shrink.go), which
// delta-debugs the event schedule down to a minimal reproducer and renders
// it as a replayable spec plus an .odfl flight dump.
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

// Mode selects which driver stack a chaos run exercises.
type Mode int

const (
	// ModeHarden runs pinned hardened drivers (validator, watchdog, SoftNIC
	// degraded mode) and throws the full fault-class matrix at them.
	ModeHarden Mode = iota
	// ModeEvolve runs hardened evolving drivers: the same fault matrix while
	// shifting read-mixes make the control plane renegotiate the layout
	// underneath the validator and the watchdog.
	ModeEvolve
)

func (m Mode) String() string {
	if m == ModeEvolve {
		return "evolve"
	}
	return "harden"
}

// ParseMode parses "harden" or "evolve".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "harden":
		return ModeHarden, nil
	case "evolve":
		return ModeEvolve, nil
	}
	return 0, fmt.Errorf("chaos: unknown mode %q (have harden, evolve)", s)
}

// Config describes one chaos scenario. The zero value is a usable default
// (single hardened e1000e queue, rss+vlan+pkt_len).
type Config struct {
	// NIC is the bundled model name (default "e1000e").
	NIC string
	// Mode selects the driver stack under test.
	Mode Mode
	// Semantics is the compiled intent (default rss, vlan, pkt_len).
	Semantics []string
	// Queues is how many independent driver queues the scheduler interleaves
	// (default 1, max 8); queue i's device reports QueueID i.
	Queues int
	// RingEntries sizes each device's completion ring (default 64 — small
	// rings expose wrap-around and backpressure interleavings).
	RingEntries int
	// Steps is the schedule length Generate draws (default 512).
	Steps int
	// DisableResync deliberately re-opens the pre-PR3 lost-completion
	// liveness bug (HardenOptions.DisableResync) so tests can prove the
	// oracles catch it. Never set outside a test or a canary run.
	DisableResync bool
	// VerifyOverride, when non-empty, substitutes this P4 source for the
	// bundled description in the S27 diffverify oracle — a test hook proving
	// the oracle fires. The datapath still runs the bundled model: in
	// production an unverified description never gets that far, which is
	// exactly the property the hook demonstrates.
	VerifyOverride string
	// DumpDir, when non-empty, receives an .odfl flight dump of the
	// violating queue when an oracle fires.
	DumpDir string
}

func (c Config) withDefaults() Config {
	if c.NIC == "" {
		c.NIC = "e1000e"
	}
	if len(c.Semantics) == 0 {
		c.Semantics = []string{"rss", "vlan", "pkt_len"}
	}
	if c.Queues <= 0 {
		c.Queues = 1
	}
	if c.Queues > 8 {
		c.Queues = 8
	}
	if c.RingEntries <= 0 {
		c.RingEntries = 64
	}
	if c.Steps <= 0 {
		c.Steps = 512
	}
	return c
}

// The hardened watchdog's tuning under chaos: small, so the recovery ladder
// runs often and the degraded-residency bound stays tight.
const (
	degradeThreshold = 4
	maxResetBackoff  = 64
)

// String renders the scenario as the key=value line the reproducer spec and
// the trace header carry. Deterministic (no maps).
func (c Config) String() string {
	c = c.withDefaults()
	s := fmt.Sprintf("nic=%s mode=%s queues=%d ring=%d sems=%s",
		c.NIC, c.Mode, c.Queues, c.RingEntries, strings.Join(c.Semantics, ","))
	if c.DisableResync {
		s += " resync=off"
	}
	return s
}

// Violation reports one invariant breach: which oracle fired, at which
// schedule step, on which queue, and why.
type Violation struct {
	Oracle string
	Step   int
	Queue  int
	Detail string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("chaos: oracle %s violated at step %d (q%d): %s", v.Oracle, v.Step, v.Queue, v.Detail)
}

// Result is the outcome of one chaos run.
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

	Accepted  uint64 // packets the drivers accepted
	Delivered uint64 // packets handed to the Poll handler
	Rejected  uint64 // Rx refusals (backpressure or wedged device)

	Switchovers uint64 // completed evolve generation swaps
	Rollbacks   uint64 // evolve switchovers rolled back
	Restores    uint64 // hardened watchdog hardware restores
	Quarantined uint64 // completion records quarantined
	Resyncs     uint64 // lost completions resynchronized in software

	// DumpFiles lists the .odfl flight dumps written for a violation (only
	// when Config.DumpDir was set).
	DumpFiles []string
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

// runner executes one schedule.
type runner struct {
	cfg Config
	clk *vclock.Virtual
	// mixes is the read-mix phase schedule mix-shift events walk: three
	// phases derived from Config.Semantics (mixPhases).
	mixes   workload.MixSchedule
	trace   *workload.Trace
	queues  []*queue
	nextPkt int
	log     strings.Builder
	res     *Result
}

// Run generates the schedule for (cfg, seed) and executes it. Any failure is
// reproducible from the same (cfg, seed) pair.
func Run(cfg Config, seed uint64) *Result {
	return RunSchedule(cfg, Generate(cfg, seed))
}

// RunSchedule executes an explicit event schedule (the replay and shrink
// entry point). The schedule's seed feeds the fault injectors' PRNGs so
// scripted corruptions flip the same bits on replay.
func RunSchedule(cfg Config, s Schedule) *Result {
	cfg = cfg.withDefaults()
	r := &runner{cfg: cfg, clk: vclock.NewVirtual(1), mixes: phaseMixes(cfg.Semantics), res: &Result{}}
	if v := r.verifyDescription(); v != nil {
		r.res.Violation = v
		r.res.Trace = []byte(r.log.String())
		return r.res
	}
	if err := r.setup(s.Seed); err != nil {
		// A scenario that cannot even open its drivers is a configuration
		// error, reported as a violation of the "setup" pseudo-oracle so
		// sweeps surface it instead of panicking.
		r.res.Violation = &Violation{Oracle: "setup", Detail: err.Error()}
		r.res.Trace = []byte(r.log.String())
		return r.res
	}
	fmt.Fprintf(&r.log, "chaos %s seed=%d events=%d\n", cfg, s.Seed, len(s.Events))

	for i, ev := range s.Events {
		r.exec(i, ev)
		r.res.Events = i + 1
		if v := r.check(i, ev); v != nil {
			r.fail(v)
			return r.finish()
		}
	}
	r.drain(len(s.Events))
	return r.finish()
}

// verifyDescription is the S27 diffverify oracle: before the schedule runs,
// the description of record must hold a passing differential-verification
// certificate. Certificates are digest-cached process-wide, so repeated runs
// and sweeps pay for one harness execution per distinct description.
func (r *runner) verifyDescription() *Violation {
	name, src := r.cfg.NIC, r.cfg.VerifyOverride
	if src == "" {
		m, err := nic.Load(r.cfg.NIC)
		if err != nil {
			return nil // setup will report the load failure with full context
		}
		src = m.Source
	}
	if cert := diffverify.CertifyCached(name, src); !cert.Passed {
		fmt.Fprintf(&r.log, "VIOLATION diffverify: %s\n", cert.Reason)
		return &Violation{Oracle: "diffverify", Detail: cert.Reason}
	}
	return nil
}

// setup opens one driver per queue on a shared virtual clock.
func (r *runner) setup(seed uint64) error {
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
		inj := faults.New(faults.Plan{Seed: seed ^ uint64(qi)<<32})
		drv.InjectFaults(inj)
		r.queues = append(r.queues, &queue{drv: drv, inj: inj})
	}
	return nil
}

// handler returns the Poll delivery handler for queue qi: it enforces the
// exactly-once and golden-metadata oracles on every delivery, reading the
// semantics of the queue's current mix phase (on an evolving driver those
// reads are the read mix the control plane re-solves for).
func (r *runner) handler(qi int, step int) func([]byte, opendesc.Meta) {
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
func (r *runner) exec(step int, ev Event) {
	qi := int(ev.Q) % len(r.queues)
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
func (r *runner) drain(step int) {
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
func (r *runner) check(step int, ev Event) *Violation {
	qi := int(ev.Q) % len(r.queues)
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
func (r *runner) oracles(step, qi int) *Violation {
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
func (r *runner) consistent(step, qi int) *Violation {
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

// fail records the violation, writes its trace line, and (when a dump dir is
// configured) snapshots the violating queue's flight recorder to an .odfl
// postmortem.
func (r *runner) fail(v *Violation) {
	r.res.Violation = v
	fmt.Fprintf(&r.log, "VIOLATION %s step=%d q%d: %s\n", v.Oracle, v.Step, v.Queue, v.Detail)
	if r.cfg.DumpDir != "" && v.Queue < len(r.queues) {
		rec := r.queues[v.Queue].drv.Flight()
		rec.SetDumpDir(r.cfg.DumpDir)
		rec.Postmortem("chaos-" + v.Oracle)
		r.res.DumpFiles = rec.DumpFiles()
	}
}

// finish folds the per-queue counters into the result.
func (r *runner) finish() *Result {
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
	r.res.Trace = []byte(r.log.String())
	return r.res
}
