// Package evolve is the live interface-renegotiation control plane: it
// closes the loop the compiler leaves open. A compilation pins one
// completion layout at Compile time, but the *observed* feature mix — which
// semantics the application actually reads, and what each SoftNIC shim
// really costs on this machine — only exists at runtime. The Resolver
// (resolver.go) watches both signals and periodically re-solves the Eq. 1
// layout optimization against the live mix with measured w(s); when a
// candidate path beats the active one past a 10% hysteresis, the Engine
// holding it performs a graceful, generation-tagged switchover:
//
//	RUNNING ──interval──▶ EVALUATE ──no better / unsat──▶ RUNNING
//	EVALUATE ──candidate wins──▶ QUIESCE ─▶ DRAIN ─▶ APPLY ─▶ VERIFY ─▶ SWAP
//	APPLY/VERIFY failure ──▶ ROLLBACK (old config re-applied) ─▶ RUNNING
//
// The datapath underneath is an rxpath.Queue and a generation is the lane
// its packets are read under: quiesce is the engine's mutex, drain is
// Queue.Drain, apply/verify/rollback is Queue.Reprogram, swap is SetLane.
// Every transition produces obs metrics (renegotiations, switchover-latency
// histogram, packets drained, rollbacks, a drop counter that must stay zero)
// and a core.Diff change report.
package evolve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"opendesc/internal/core"
	"opendesc/internal/nicsim"
	"opendesc/internal/obs"
	"opendesc/internal/obs/flight"
	"opendesc/internal/rxpath"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/vclock"
)

// Options tune the renegotiation control plane.
type Options struct {
	// Interval is the number of delivered packets between renegotiation
	// checks (default 2048).
	Interval int
	// MinShimSamples is how many calls a shim needs before its measured
	// ns/call replaces the static w(s) (default 64).
	MinShimSamples uint64
	// MinWindow is the minimum number of delivered packets in the current
	// observation window before a renegotiation is evaluated (default 256).
	MinWindow int
	// Costs, when non-nil, wraps the live cost model before the re-solve —
	// a policy hook (and the test hook for injecting unsatisfiable
	// renegotiations).
	Costs func(live semantics.CostModel) semantics.CostModel
	// Clock is the timeline switchover latencies are measured on (nil selects
	// the process wall clock). Chaos runs inject a virtual clock here so the
	// control plane is fully deterministic.
	Clock vclock.Clock
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 2048
	}
	if o.MinShimSamples == 0 {
		o.MinShimSamples = 64
	}
	if o.MinWindow <= 0 {
		o.MinWindow = 256
	}
	o.Clock = vclock.Or(o.Clock)
	return o
}

// Engine is an evolvable driver datapath: a receive queue plus the
// renegotiation control plane that swaps its lane.
type Engine struct {
	opts Options

	shims *softnic.ShimStats

	// mu serializes Rx, Poll and Renegotiate on the queue — holding it IS
	// the quiesce step of a switchover.
	mu sync.Mutex
	q  *rxpath.Queue

	// res is the re-solve loop over the engine's intent: the live read mix
	// (each generation's lane binds the counters beside its reader table, so
	// a read inside the application's Poll handler is one indexed atomic
	// add), the delivery count and the schedule.
	res *Resolver

	gen atomic.Uint64

	// Control-plane counters; re-solve evaluations and unsatisfiable
	// re-solves are the resolver's.
	switchovers    obs.Counter // completed generation swaps
	rollbacks      obs.Counter // begun switchovers reverted
	switchDrops    obs.Counter // packets a drain could not park (must be 0)
	packetsDrained obs.Counter // completions drained under the old layout
	softParked     obs.Counter // drain shortfalls re-delivered in software
	applyRetries   obs.Counter // NAKed ApplyConfig bursts retried
	switchLatency  *obs.Histogram

	lastDiff *core.Diff
	lastErr  error
}

// New compiles the intent for the device's model (static costs, like a
// pinned Open), programs the device, and arms the control plane. The SoftNIC
// shims are instrumented so their measured per-call cost feeds later
// re-solves.
func New(dev *nicsim.Device, intent *core.Intent, copts core.CompileOptions, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	res, err := dev.Model.Compile(intent, copts)
	if err != nil {
		return nil, err
	}
	q, err := rxpath.New(dev, res.Config, nil)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		opts:          opts,
		q:             q,
		shims:         softnic.NewShimStats(),
		switchLatency: obs.NewHistogram(),
	}
	e.shims.AttachFlight(q.FlightQueue())
	q.Instrument(e.shims)
	if e.res, err = NewResolver(dev.Model, copts, opts, e.shims, intent); err != nil {
		return nil, err
	}
	lane, err := e.newLane(res)
	if err != nil {
		return nil, err
	}
	q.SetLane(0, lane)
	return e, nil
}

// newLane links a compilation result into the lane of one generation, the
// read-mix counters bound beside its reader table.
func (e *Engine) newLane(res *core.Result) (*rxpath.Lane, error) {
	l, err := e.q.Link(res)
	if err == nil {
		l.Reads = e.res.Bind(l.RT)
	}
	return l, err
}

// Queue exposes the engine's receive queue: pending count, flight recorder,
// hardening. Rx, Poll and Drain on it belong to the engine, under its lock.
func (e *Engine) Queue() *rxpath.Queue { return e.q }

// Result returns the active generation's compilation result.
func (e *Engine) Result() *core.Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.q.Lane(0).RT.Result
}

// Generation returns the current switchover epoch (0 until the first swap).
func (e *Engine) Generation() uint64 { return e.gen.Load() }

// LastDiff returns the core.Diff change report of the most recent
// switchover (nil before the first one).
func (e *Engine) LastDiff() *core.Diff {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastDiff
}

// Rx delivers one packet to the device. It returns false when the
// completion ring is full.
func (e *Engine) Rx(packet []byte) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.q.Rx(packet, 0)
}

// Poll delivers completed packets — parked switchover-drained ones first,
// under their own generation's lane (reads through an older runtime stay
// correct across a switchover), then live ring entries — and, when the
// renegotiation interval has elapsed, evaluates a re-solve. Reads through
// the handler's Meta feed the mix window.
func (e *Engine) Poll(h rxpath.DeliverFunc) int {
	e.mu.Lock()
	n := e.q.Poll(-1, h)
	e.res.NoteDelivered(n)
	due := e.res.Due()
	e.mu.Unlock()
	if due {
		e.Renegotiate()
	}
	return n
}

// Renegotiate evaluates one re-solve immediately (Poll calls this every
// Interval delivered packets). It returns whether a switchover completed and
// the failure, if any, that forced a rollback or rejected the re-solve.
func (e *Engine) Renegotiate() (switched bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.q.Degraded() {
		// The watchdog owns the device until it has restored it.
		e.res.Postpone()
		return false, nil
	}
	next, err := e.res.Resolve(e.q.Lane(0).RT.Result.Selected.Path.ID)
	if err == nil && next != nil {
		err = e.switchover(next.PerTenant[0])
	}
	e.lastErr = err
	return err == nil && next != nil, err
}

// switchover performs the generation swap. Caller holds e.mu — which IS the
// quiesce step: Rx and Poll serialize on the same mutex, so no packet can
// enter the device and no completion can be consumed concurrently.
func (e *Engine) switchover(next *core.Result) error {
	start := e.opts.Clock.Now()
	oldGen := e.gen.Load()
	old := e.q.Lane(0)
	fq := e.q.FlightQueue()

	// Switchover events carry the generation in arg1 so a trace shows which
	// epoch each phase belongs to.
	fq.Record(flight.EvQuiesce, uint32(oldGen), uint64(e.q.Live()), oldGen)

	// DRAIN: park every in-flight packet under the old generation's lane. A
	// packet the drain could not park would be read under the new layout —
	// a drop across the swap boundary.
	drained, soft := e.q.Drain()
	e.packetsDrained.Add(uint64(drained))
	e.softParked.Add(uint64(soft))
	e.switchDrops.Add(uint64(e.q.Live()))
	fq.Record(flight.EvDrain, uint32(oldGen), uint64(drained), oldGen)

	// ADMISSION: on a hardened queue the new lane's validator must
	// synthesize.
	lane, err := e.newLane(next)
	if err == nil {
		// APPLY + VERIFY, rolled back to the old generation's configuration
		// on failure. The old lane was never unpublished, so the datapath is
		// intact either way.
		fq.Record(flight.EvApply, uint32(oldGen+1), uint64(len(next.Config)), oldGen+1)
		err = e.q.Reprogram(next.Config, next.Selected.Path.ID, func(int, error) { e.applyRetries.Inc() })
	}
	if err != nil {
		e.rollbacks.Inc()
		fq.Record(flight.EvRollback, uint32(oldGen), uint64(next.Selected.Path.ID), oldGen)
		// A rolled-back switchover is a postmortem moment: the quiesce/drain/
		// apply events that led here are still in the ring.
		e.q.Flight().Postmortem("switchover-rollback")
		return fmt.Errorf("evolve: switchover to path %d rolled back: %w",
			next.Selected.Path.ID, err)
	}
	fq.Record(flight.EvVerify, uint32(oldGen+1), uint64(next.Selected.Path.ID), oldGen+1)
	// SWAP: publish the new generation (under e.mu) and record the change
	// report.
	e.q.SetLane(0, lane)
	e.gen.Store(oldGen + 1)
	if d, err := core.DiffResults(old.RT.Result, next); err == nil {
		e.lastDiff = d
	}
	e.switchovers.Inc()
	e.switchLatency.Observe(e.opts.Clock.Now() - start)
	fq.Record(flight.EvSwap, uint32(oldGen+1), uint64(next.Selected.Path.ID), oldGen+1)
	return nil
}

// Stats is a point-in-time snapshot of the control-plane counters.
type Stats struct {
	// Generation is the current switchover epoch.
	Generation uint64
	// Renegotiations counts re-solve evaluations; Switchovers completed
	// generation swaps; Rollbacks begun-then-reverted switchovers; Unsat
	// re-solves rejected as unsatisfiable under the live mix.
	Renegotiations uint64
	Switchovers    uint64
	Rollbacks      uint64
	Unsat          uint64
	// SwitchDrops counts packets a switchover drain could not park — zero
	// by construction; any other value is a bug.
	SwitchDrops uint64
	// PacketsDrained counts completions consumed under the old layout
	// during switchover drains.
	PacketsDrained uint64
	// SoftParked counts packets whose completion a faulty device lost
	// mid-switchover and that were re-delivered through the old generation's
	// software runtime instead of being dropped.
	SoftParked uint64
	// ApplyRetries counts NAKed register-write bursts that were retried
	// during switchover applies and rollbacks.
	ApplyRetries uint64
	// Delivered counts packets handed to Poll handlers over the engine's
	// lifetime (all generations).
	Delivered uint64
	// SwitchLatencyP50/P99 are nanosecond quantiles of the quiesce→swap
	// interval; zero until the first switchover.
	SwitchLatencyP50 uint64
	SwitchLatencyP99 uint64
	// Reads is the cumulative per-semantic application read mix.
	Reads map[semantics.Name]uint64
}

// Stats snapshots the control-plane counters. Safe to call concurrently
// with the datapath.
func (e *Engine) Stats() Stats {
	r := e.res
	st := Stats{
		Generation:     e.gen.Load(),
		Renegotiations: r.evaluations.Load(),
		Switchovers:    e.switchovers.Load(),
		Rollbacks:      e.rollbacks.Load(),
		Unsat:          r.unsat.Load(),
		SwitchDrops:    e.switchDrops.Load(),
		PacketsDrained: e.packetsDrained.Load(),
		SoftParked:     e.softParked.Load(),
		ApplyRetries:   e.applyRetries.Load(),
		Delivered:      r.delivered.Load(),
		Reads:          make(map[semantics.Name]uint64, len(r.reads)),
	}
	if e.switchLatency.Count() > 0 {
		st.SwitchLatencyP50 = e.switchLatency.Quantile(0.50)
		st.SwitchLatencyP99 = e.switchLatency.Quantile(0.99)
	}
	for i, f := range r.intent.Fields {
		if n := r.reads[i].Load(); n > 0 {
			st.Reads[f.Semantic] = n
		}
	}
	return st
}

// RegisterMetrics exposes the control-plane counters, the switchover
// latency histogram and the instrumented shims' per-semantic cost on an obs
// registry, beside the queue's own series.
func (e *Engine) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	r := e.res
	base := append([]obs.Label{obs.L("nic", e.q.Dev().Model.Name)}, labels...)
	reg.AttachCounter("opendesc_evolve_renegotiations_total", "layout re-solve evaluations", &r.evaluations, base...)
	reg.AttachCounter("opendesc_evolve_switchovers_total", "completed generation switchovers", &e.switchovers, base...)
	reg.AttachCounter("opendesc_evolve_rollbacks_total", "switchovers rolled back", &e.rollbacks, base...)
	reg.AttachCounter("opendesc_evolve_unsat_total", "re-solves rejected as unsatisfiable", &r.unsat, base...)
	reg.AttachCounter("opendesc_evolve_switch_drops_total", "packets lost across switchovers (must be 0)", &e.switchDrops, base...)
	reg.AttachCounter("opendesc_evolve_packets_drained_total", "completions drained under the old layout", &e.packetsDrained, base...)
	reg.AttachCounter("opendesc_evolve_soft_parked_total", "mid-switchover lost completions re-delivered in software", &e.softParked, base...)
	reg.AttachCounter("opendesc_evolve_apply_retries_total", "NAKed register-write bursts retried during switchover", &e.applyRetries, base...)
	reg.AttachCounter("opendesc_evolve_delivered_total", "packets delivered to Poll handlers", &r.delivered, base...)
	reg.AttachHistogram("opendesc_evolve_switch_latency_ns", "quiesce-to-swap switchover latency", e.switchLatency, base...)
	reg.GaugeFunc("opendesc_evolve_generation", "current interface generation epoch", func() int64 { return int64(e.gen.Load()) }, base...)
	for i, f := range r.intent.Fields {
		l := append(append([]obs.Label{}, base...), obs.L("semantic", string(f.Semantic)))
		reg.AttachCounter("opendesc_evolve_reads_total", "application metadata reads per semantic", &r.reads[i], l...)
	}
	e.shims.RegisterMetrics(reg, base...)
	e.q.RegisterMetrics(reg, labels...)
}
