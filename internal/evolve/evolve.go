// Package evolve is the live interface-renegotiation control plane: it
// closes the loop the compiler leaves open. A compilation pins one
// completion layout at Compile time, but the *observed* feature mix — which
// semantics the application actually reads, and what each SoftNIC shim
// really costs on this machine — only exists at runtime. The Engine watches
// both signals, periodically re-solves the Eq. 1 layout optimization against
// the live mix with measured w(s), and when a candidate path beats the
// active one past a hysteresis threshold it performs a graceful,
// generation-tagged switchover:
//
//	RUNNING ──interval──▶ EVALUATE ──no better / unsat──▶ RUNNING
//	EVALUATE ──candidate wins──▶ QUIESCE ─▶ DRAIN ─▶ APPLY ─▶ VERIFY ─▶ SWAP
//	APPLY/VERIFY failure ──▶ ROLLBACK (old config re-applied) ─▶ RUNNING
//
// Quiesce stops the producer; drain consumes every completion still in the
// ring under the old layout (each in-flight packet carries the generation
// epoch it was received under, the host-side analogue of the color/epoch
// bits real completion formats reserve); apply pushes the new context
// constraints over the control channel (nicsim.ApplyConfig); verify checks
// the device now resolves the selected path; swap atomically replaces the
// accessor runtime and bumps the generation. Every transition produces obs
// metrics (renegotiations, switchover-latency histogram, packets drained,
// rollbacks, a drop counter that must stay zero) and a core.Diff change
// report.
package evolve

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
	"opendesc/internal/obs"
	"opendesc/internal/obs/flight"
	"opendesc/internal/retry"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/vclock"
)

// Options tune the renegotiation control plane.
type Options struct {
	// Interval is the number of delivered packets between renegotiation
	// checks (default 2048).
	Interval int
	// Hysteresis is the fractional Eq. 1 improvement a candidate must show
	// over the active path before a switchover is attempted (default 0.10).
	// Zero selects the default; pass a negative value for no hysteresis.
	Hysteresis float64
	// Alpha is the DMA footprint weight forwarded to the re-solve (zero
	// selects core.DefaultAlpha).
	Alpha float64
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
	// PreSwitch, when non-nil, is an admission check invoked after the ring
	// has drained and before the new configuration is pushed; an error
	// aborts the switchover and rolls back to the active generation.
	PreSwitch func(next *core.Result) error
	// Device sizes the simulated device.
	Device nicsim.Config
	// Clock is the timeline switchover latencies are measured on (nil selects
	// the process wall clock). Chaos runs inject a virtual clock here so the
	// control plane is fully deterministic.
	Clock vclock.Clock
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 2048
	}
	switch {
	case o.Hysteresis == 0:
		o.Hysteresis = 0.10
	case o.Hysteresis < 0:
		o.Hysteresis = 0
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

// generation is one pinned interface configuration: a compilation result and
// its executable accessor table, tagged with a monotonically increasing
// sequence number (the switchover epoch).
type generation struct {
	seq uint64
	res *core.Result
	rt  *codegen.Runtime
	// reads is the engine's read mix bound beside rt's (and softRT's) table.
	reads []*obs.Counter
	// softRT is the generation's all-software runtime, built lazily: packets
	// whose completion is lost to a device fault mid-switchover are delivered
	// through it instead of being dropped.
	softRT *codegen.Runtime
}

// soft returns the generation's software runtime, building it on first use.
func (g *generation) soft() *codegen.Runtime {
	if g.softRT == nil {
		g.softRT = codegen.NewSoftRuntime(g.res, softnic.Funcs())
	}
	return g.softRT
}

// pending is one packet received but not yet delivered: the epoch tag
// records which generation's layout its completion was serialized under.
// ts/seq are the packet's flight-recorder timestamp and sequence.
type pendingPkt struct {
	pkt []byte
	gen uint64
	ts  uint64
	seq uint32
}

// drainedPkt is a completion consumed during a switchover drain, parked for
// delivery on the next Poll together with the runtime of its generation.
// The flight timestamp/sequence ride along so the eventual delivery still
// reports the full DMA→deliver latency (including the park).
type drainedPkt struct {
	pkt   []byte
	cmpt  []byte
	rt    *codegen.Runtime
	reads []*obs.Counter
	ts    uint64
	seq   uint32
}

// Engine is an evolvable driver datapath: the static Open driver plus the
// renegotiation control plane.
type Engine struct {
	model  *nic.Model
	intent *core.Intent
	copts  core.CompileOptions
	opts   Options

	dev   *nicsim.Device
	shims *softnic.ShimStats

	mu      sync.Mutex
	active  *generation
	pending []pendingPkt
	drained []drainedPkt
	// window counts delivered packets since the last renegotiation check.
	window int

	// reads counts per-semantic application reads (the live feature mix);
	// each generation binds the counters beside its reader table, so a read
	// inside the application's Poll handler is one indexed atomic add.
	reads     readMix
	lastDeliv uint64
	delivered obs.Counter

	gen atomic.Uint64

	// Control-plane counters.
	renegotiations obs.Counter // re-solve evaluations
	switchovers    obs.Counter // completed generation swaps
	rollbacks      obs.Counter // begun switchovers reverted
	unsat          obs.Counter // re-solves rejected as unsatisfiable
	switchDrops    obs.Counter // packets lost across a switchover (must be 0)
	packetsDrained obs.Counter // completions drained under the old layout
	softParked     obs.Counter // drain shortfalls re-delivered in software
	applyRetries   obs.Counter // NAKed ApplyConfig bursts retried
	switchLatency  *obs.Histogram

	// Flight recorder: fr is the engine's always-armed recorder, fq its
	// "q0" event ring (shared with the device); rxSeq numbers received
	// packets 1-based like the device's DMA-emit sequence. curTS/curSeq/
	// curReads are the context of the packet currently being delivered,
	// valid only inside a Poll handler (e.mu held). dmaToPoll/pollToDeliver
	// are the per-stage completion latencies derived from matched timestamps.
	fr            *flight.Recorder
	fq            *flight.Queue
	rxSeq         uint32
	curTS         uint64
	curSeq        uint32
	curReads      []*obs.Counter
	dmaToPoll     *obs.Histogram
	pollToDeliver *obs.Histogram

	lastDiff *core.Diff
	lastErr  error
}

// New compiles the intent for the model (static costs, like a pinned Open),
// programs a simulated device, and arms the control plane. The SoftNIC shims
// are instrumented so their measured per-call cost feeds later re-solves.
func New(model *nic.Model, intent *core.Intent, copts core.CompileOptions, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	res, err := model.Compile(intent, copts)
	if err != nil {
		return nil, err
	}
	dev, err := nicsim.New(model, opts.Device)
	if err != nil {
		return nil, err
	}
	if err := dev.ApplyConfig(res.Config); err != nil {
		return nil, err
	}
	e := &Engine{
		model:         model,
		intent:        intent,
		copts:         copts,
		opts:          opts,
		dev:           dev,
		shims:         softnic.NewShimStats(nil),
		switchLatency: obs.NewHistogram(),
		fr:            flight.NewRecorder(flight.Config{}),
		dmaToPoll:     obs.NewHistogram(),
		pollToDeliver: obs.NewHistogram(),
	}
	e.fq = e.fr.Queue("q0")
	dev.AttachFlight(e.fq)
	e.shims.AttachFlight(e.fq)
	sems := make([]semantics.Name, len(intent.Fields))
	for i, f := range intent.Fields {
		sems[i] = f.Semantic
	}
	e.reads = newReadMix(sems)
	e.active = e.newGeneration(0, res)
	return e, nil
}

// newGeneration links a compilation result into an executable generation.
func (e *Engine) newGeneration(seq uint64, res *core.Result) *generation {
	rt := codegen.NewRuntime(res, softnic.InstrumentedFuncs(e.shims))
	return &generation{seq: seq, res: res, rt: rt, reads: e.reads.bind(rt)}
}

// Device exposes the simulated device (counters, registers).
func (e *Engine) Device() *nicsim.Device { return e.dev }

// Result returns the active generation's compilation result.
func (e *Engine) Result() *core.Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.active.res
}

// Runtime returns the active generation's accessor runtime.
func (e *Engine) Runtime() *codegen.Runtime {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.active.rt
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

// LastErr returns the most recent renegotiation failure (unsat re-solve or
// rolled-back switchover), nil when the last evaluation succeeded.
func (e *Engine) LastErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastErr
}

// NoteRead records one application read of a semantic, resolved by name —
// for callers that read through a Runtime directly. Safe to call from inside
// a Poll handler (lock-free).
func (e *Engine) NoteRead(s semantics.Name) {
	if c := e.reads.counter(s); c != nil {
		c.Inc()
	}
}

// Rx delivers one packet to the device, tagging it with the current
// generation epoch. It returns false when the completion ring is full.
func (e *Engine) Rx(packet []byte) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.dev.RxPacket(packet) {
		return false
	}
	e.rxSeq++
	e.pending = append(e.pending, pendingPkt{pkt: packet, gen: e.gen.Load(), ts: e.fq.NowIfSampled(e.rxSeq), seq: e.rxSeq})
	return true
}

// PendingCount reports how many accepted packets await delivery — the
// chaos harness's liveness probe (a packet that stays pending with an empty
// completion ring and a healthy device is a stuck delivery).
func (e *Engine) PendingCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending) + len(e.drained)
}

// Flight returns the engine's flight recorder (never nil).
func (e *Engine) Flight() *flight.Recorder { return e.fr }

// FlightQueue returns the engine's "q0" event ring.
func (e *Engine) FlightQueue() *flight.Queue { return e.fq }

// DeliveryCtx returns the context of the packet currently being delivered:
// event ring, Poll timestamp, packet sequence, and the read-mix counters
// index-addressed by the delivering runtime's reader table. Only meaningful
// inside a Poll handler (where e.mu is held).
func (e *Engine) DeliveryCtx() (*flight.Queue, uint64, uint32, []*obs.Counter) {
	return e.fq, e.curTS, e.curSeq, e.curReads
}

// setDeliveryCtx arms DeliveryCtx for the packet about to be delivered. The
// timestamp is zeroed for unsampled packets (zero Rx stamp) so per-read
// events stay inside the recorder's hot-path budget (flight.SamplePeriod).
func (e *Engine) setDeliveryCtx(t0, rxTS uint64, seq uint32, reads []*obs.Counter) {
	e.curTS, e.curSeq, e.curReads = 0, seq, reads
	if rxTS != 0 {
		e.curTS = t0
	}
}

// noteDelivered derives one delivered packet's per-stage latencies from its
// flight timestamps and emits the deliver event carrying both intervals
// (DMA→poll, DMA→deliver). No-op when the packet was off the sampling grid
// or the recorder was off at Rx or Poll time (zero timestamps).
func (e *Engine) noteDelivered(t0, rxTS uint64, seq uint32) {
	if t0 == 0 || rxTS == 0 {
		return
	}
	t1 := e.fq.Now()
	e.dmaToPoll.Observe(t0 - rxTS)
	e.pollToDeliver.Observe(t1 - t0)
	e.fq.RecordT(t1, flight.EvDeliver, seq, t0-rxTS, t1-rxTS)
}

// PollFunc receives one delivered packet: its bytes, its completion record,
// and the accessor runtime of the generation the completion was serialized
// under (reads through an older runtime stay correct across a switchover).
type PollFunc func(pkt, cmpt []byte, rt *codegen.Runtime)

// Poll delivers completed packets — parked switchover-drained completions
// first (under their own generation's runtime), then live ring entries —
// and, when the renegotiation interval has elapsed, evaluates a re-solve.
func (e *Engine) Poll(h PollFunc) int {
	e.mu.Lock()
	n := 0
	t0 := e.fq.Now()
	for _, d := range e.drained {
		e.setDeliveryCtx(t0, d.ts, d.seq, d.reads)
		h(d.pkt, d.cmpt, d.rt)
		e.noteDelivered(t0, d.ts, d.seq)
		n++
	}
	e.drained = e.drained[:0]
	gen := e.active
	cur := e.dev.CmptRing.Cursor()
	live := 0
	for live < len(e.pending) {
		cmpt := cur.At()
		if cmpt == nil {
			break
		}
		p := e.pending[live]
		e.setDeliveryCtx(t0, p.ts, p.seq, gen.reads)
		h(p.pkt, cmpt, gen.rt)
		cur.Release()
		e.noteDelivered(t0, p.ts, p.seq)
		live++
	}
	cur.Close()
	e.pending = e.pending[:copy(e.pending, e.pending[live:])]
	n += live
	e.window += n
	e.delivered.Add(uint64(n))
	due := e.window >= e.opts.Interval
	e.mu.Unlock()
	if due {
		e.Renegotiate()
	}
	return n
}

// liveCosts builds the runtime cost model: per-packet expected software
// cost of leaving s to a shim = (reads of s per delivered packet) × w(s),
// where w(s) is the measured mean ns/call when the shim has run often
// enough, the static registry cost otherwise. Infinite costs are never
// scaled: a semantic with no software fallback stays unsatisfiable in
// software no matter how rarely it is read.
func (e *Engine) liveCosts(mix map[semantics.Name]float64) semantics.CostModel {
	base := semantics.RegistryCosts(semantics.Default)
	shimCosts := e.shims.Snapshot()
	return func(s semantics.Name) float64 {
		w := base(s)
		if math.IsInf(w, 1) {
			return w
		}
		if sc, ok := shimCosts[s]; ok && sc.Calls >= e.opts.MinShimSamples {
			w = float64(sc.Nanos) / float64(sc.Calls)
		}
		f, ok := mix[s]
		if !ok {
			return w // outside the intent: keep the static model
		}
		return f * w
	}
}

// Renegotiate evaluates one re-solve immediately (Poll calls this every
// Interval delivered packets). It returns whether a switchover completed and
// the failure, if any, that forced a rollback or rejected the re-solve.
func (e *Engine) Renegotiate() (switched bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.window = 0
	deliv := e.delivered.Load()
	if int(deliv-e.lastDeliv) < e.opts.MinWindow {
		// Too few observations to trust the mix; keep accumulating into the
		// same window instead of resetting the baseline.
		return false, nil
	}
	mix := e.reads.window(deliv - e.lastDeliv)
	e.lastDeliv = deliv
	e.renegotiations.Inc()
	e.lastErr = nil

	costs := e.liveCosts(mix)
	if e.opts.Costs != nil {
		costs = e.opts.Costs(costs)
	}
	copts := e.copts
	copts.Select.Costs = costs
	if e.opts.Alpha != 0 {
		copts.Select.Alpha = e.opts.Alpha
	}
	next, err := e.model.Compile(e.intent, copts)
	if err != nil {
		// Unsatisfiable under the live mix (or a broken description): stay
		// on the active generation.
		e.unsat.Inc()
		e.lastErr = err
		return false, err
	}
	if next.Selected.Path.ID == e.active.res.Selected.Path.ID {
		return false, nil
	}
	// Score the active path under the same live model so the comparison is
	// apples-to-apples (path IDs are deterministic across compiles).
	var activeTotal float64 = math.Inf(1)
	for _, s := range next.Scored {
		if s.Path.ID == e.active.res.Selected.Path.ID {
			activeTotal = s.Total
			break
		}
	}
	if next.Selected.Total >= activeTotal*(1-e.opts.Hysteresis) {
		return false, nil
	}
	if err := e.switchover(next); err != nil {
		e.lastErr = err
		return false, err
	}
	return true, nil
}

// switchover performs the generation swap. Caller holds e.mu — which IS the
// quiesce step: Rx and Poll serialize on the same mutex, so no packet can
// enter the device and no completion can be consumed concurrently.
func (e *Engine) switchover(next *core.Result) error {
	start := e.opts.Clock.Now()
	oldGen := e.gen.Load()
	old := e.active

	// QUIESCE is holding e.mu (Rx and Poll serialize on it); the event marks
	// when the producer stopped. Switchover events carry the generation in
	// arg1 so a trace shows which epoch each phase belongs to.
	e.fq.Record(flight.EvQuiesce, uint32(oldGen), uint64(len(e.pending)), oldGen)

	// DRAIN: consume every completion still in the ring under the old
	// layout, parking (packet, completion copy, old runtime) for delivery on
	// the next Poll. The epoch tag on each in-flight packet must match the
	// old generation — a mismatch would mean a completion crossed the swap
	// boundary, i.e. a lost or corrupted packet.
	drained := 0
	for _, p := range e.pending {
		ok := e.dev.CmptRing.Consume(func(cmpt []byte) {
			e.drained = append(e.drained, drainedPkt{
				pkt:   p.pkt,
				cmpt:  append([]byte(nil), cmpt...),
				rt:    old.rt,
				reads: old.reads,
				ts:    p.ts,
				seq:   p.seq,
			})
		})
		if !ok {
			// Pending packets with no completion left in the ring: a faulty
			// device lost their records. Park them for software delivery
			// under the old generation's soft runtime — the switchover stays
			// zero-loss even when completions vanish mid-drain.
			for _, q := range e.pending[drained:] {
				e.drained = append(e.drained, drainedPkt{pkt: q.pkt, rt: old.soft(), reads: old.reads, ts: q.ts, seq: q.seq})
				e.softParked.Inc()
			}
			break
		}
		if p.gen != oldGen {
			e.switchDrops.Inc()
		}
		drained++
	}
	e.pending = e.pending[:0]
	e.packetsDrained.Add(uint64(drained))
	e.fq.Record(flight.EvDrain, uint32(oldGen), uint64(drained), oldGen)

	// apply pushes a register-write burst with bounded retries (the shared
	// retry discipline, defaults matching the old ×4 schedule): a faulty
	// control channel may NAK individual bursts, and ApplyConfig fails
	// atomically, so retrying is always safe.
	apply := func(cfg []core.Constraint) error {
		return retry.Policy{
			OnError: func(int, error) { e.applyRetries.Inc() },
		}.Do(func() error { return e.dev.ApplyConfig(cfg) })
	}

	rollback := func(cause error) error {
		// ROLLBACK: re-apply the old generation's configuration (with the
		// same bounded retries — a rollback must survive the very faults
		// that triggered it). The old runtime was never unpublished, so the
		// datapath is intact either way; re-applying the config restores the
		// device context in case the failed apply half-programmed it.
		if rerr := apply(old.res.Config); rerr != nil {
			cause = fmt.Errorf("%w (rollback reapply also failed: %v)", cause, rerr)
		}
		e.rollbacks.Inc()
		e.fq.Record(flight.EvRollback, uint32(oldGen), uint64(next.Selected.Path.ID), oldGen)
		// A rolled-back switchover is a postmortem moment: the quiesce/drain/
		// apply events that led here are still in the ring.
		e.fr.Postmortem("switchover-rollback")
		return fmt.Errorf("evolve: switchover to path %d rolled back: %w",
			next.Selected.Path.ID, cause)
	}

	// ADMISSION: the PreSwitch hook may veto the new interface.
	if e.opts.PreSwitch != nil {
		if err := e.opts.PreSwitch(next); err != nil {
			return rollback(err)
		}
	}
	// APPLY: push the new context constraints over the control channel.
	e.fq.Record(flight.EvApply, uint32(oldGen+1), uint64(len(next.Config)), oldGen+1)
	if err := apply(next.Config); err != nil {
		return rollback(err)
	}
	// VERIFY: the device must now resolve exactly the selected path.
	ap, err := e.dev.ActivePath()
	if err != nil {
		return rollback(err)
	}
	if ap.ID != next.Selected.Path.ID {
		return rollback(fmt.Errorf("device resolved path %d, want %d", ap.ID, next.Selected.Path.ID))
	}
	e.fq.Record(flight.EvVerify, uint32(oldGen+1), uint64(ap.ID), oldGen+1)
	// SWAP: publish the new generation atomically (under e.mu) and record
	// the change report.
	e.active = e.newGeneration(oldGen+1, next)
	e.gen.Store(oldGen + 1)
	if d, err := core.DiffResults(old.res, next); err == nil {
		e.lastDiff = d
	}
	e.switchovers.Inc()
	e.switchLatency.Observe(e.opts.Clock.Now() - start)
	e.fq.Record(flight.EvSwap, uint32(oldGen+1), uint64(next.Selected.Path.ID), oldGen+1)
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
	// SwitchDrops counts packets lost across a switchover — zero by
	// construction; any other value is a bug.
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
	st := Stats{
		Generation:     e.gen.Load(),
		Renegotiations: e.renegotiations.Load(),
		Switchovers:    e.switchovers.Load(),
		Rollbacks:      e.rollbacks.Load(),
		Unsat:          e.unsat.Load(),
		SwitchDrops:    e.switchDrops.Load(),
		PacketsDrained: e.packetsDrained.Load(),
		SoftParked:     e.softParked.Load(),
		ApplyRetries:   e.applyRetries.Load(),
		Delivered:      e.delivered.Load(),
		Reads:          make(map[semantics.Name]uint64, len(e.reads.sems)),
	}
	if e.switchLatency.Count() > 0 {
		st.SwitchLatencyP50 = e.switchLatency.Quantile(0.50)
		st.SwitchLatencyP99 = e.switchLatency.Quantile(0.99)
	}
	for i, s := range e.reads.sems {
		if n := e.reads.reads[i].Load(); n > 0 {
			st.Reads[s] = n
		}
	}
	return st
}

// ShimStats exposes the instrumented shim cost attribution (the measured
// w(s) feeding the re-solves).
func (e *Engine) ShimStats() *softnic.ShimStats { return e.shims }

// RegisterMetrics exposes the control-plane counters, the switchover
// latency histogram, and the underlying device counters on an obs registry.
func (e *Engine) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	base := append([]obs.Label{obs.L("nic", e.model.Name)}, labels...)
	reg.AttachCounter("opendesc_evolve_renegotiations_total", "layout re-solve evaluations", &e.renegotiations, base...)
	reg.AttachCounter("opendesc_evolve_switchovers_total", "completed generation switchovers", &e.switchovers, base...)
	reg.AttachCounter("opendesc_evolve_rollbacks_total", "switchovers rolled back", &e.rollbacks, base...)
	reg.AttachCounter("opendesc_evolve_unsat_total", "re-solves rejected as unsatisfiable", &e.unsat, base...)
	reg.AttachCounter("opendesc_evolve_switch_drops_total", "packets lost across switchovers (must be 0)", &e.switchDrops, base...)
	reg.AttachCounter("opendesc_evolve_packets_drained_total", "completions drained under the old layout", &e.packetsDrained, base...)
	reg.AttachCounter("opendesc_evolve_soft_parked_total", "mid-switchover lost completions re-delivered in software", &e.softParked, base...)
	reg.AttachCounter("opendesc_evolve_apply_retries_total", "NAKed register-write bursts retried during switchover", &e.applyRetries, base...)
	reg.AttachCounter("opendesc_evolve_delivered_total", "packets delivered to Poll handlers", &e.delivered, base...)
	reg.AttachHistogram("opendesc_evolve_switch_latency_ns", "quiesce-to-swap switchover latency", e.switchLatency, base...)
	reg.AttachHistogram("opendesc_flight_dma_to_poll_ns", "DMA emit to Poll pickup latency (flight recorder)", e.dmaToPoll, base...)
	reg.AttachHistogram("opendesc_flight_poll_to_deliver_ns", "Poll pickup to handler return latency (flight recorder)", e.pollToDeliver, base...)
	reg.GaugeFunc("opendesc_evolve_generation", "current interface generation epoch", func() int64 { return int64(e.gen.Load()) }, base...)
	for i, s := range e.reads.sems {
		l := append(append([]obs.Label{}, base...), obs.L("semantic", string(s)))
		reg.AttachCounter("opendesc_evolve_reads_total", "application metadata reads per semantic", &e.reads.reads[i], l...)
	}
	e.dev.RegisterMetrics(reg, labels...)
}
