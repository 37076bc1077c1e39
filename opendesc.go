// Package opendesc is the public API of the OpenDesc library — a compiler
// and runtime for declarative NIC↔host metadata interfaces, implementing
// "OpenDesc: From Static NIC Descriptors to Evolvable Metadata Interfaces"
// (HotNets '25).
//
// The workflow has three steps:
//
//  1. Declare what metadata the application wants — either programmatically
//     (NewIntent) or as a P4 intent header with @semantic annotations
//     (ParseIntentP4).
//  2. Compile the intent against a NIC interface description (Compile /
//     CompileP4): the compiler enumerates the NIC's completion layouts,
//     picks the optimal one, and synthesizes accessors plus software shims.
//  3. Either generate source (GenerateGo / GenerateC / GenerateEBPF) for an
//     external datapath, or Open a ready-to-use driver over the bundled
//     simulator and read metadata per packet.
//
// A minimal end-to-end use:
//
//	drv, err := opendesc.Open("mlx5", "rss", "vlan", "pkt_len")
//	...
//	drv.Rx(packet) // deliver a packet (the simulated wire)
//	drv.Poll(func(pkt []byte, meta opendesc.Meta) {
//	    hash, _ := meta.Get("rss")
//	    ...
//	})
package opendesc

import (
	"errors"

	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/evolve"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
	"opendesc/internal/obs"
	"opendesc/internal/obs/flight"
	"opendesc/internal/p4/parser"
	"opendesc/internal/p4/sema"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
)

// Re-exported core types. The aliases make the internal packages' documented
// types part of the public surface without duplicating them.
type (
	// Intent is an application's declared metadata intent.
	Intent = core.Intent
	// Result is a compilation result: selected completion path, layout,
	// accessor table and NIC context configuration.
	Result = core.Result
	// Accessor is one synthesized metadata accessor.
	Accessor = core.Accessor
	// CompileOptions tunes path selection and enumeration.
	CompileOptions = core.CompileOptions
	// SelectOptions tunes the Eq. 1 optimization.
	SelectOptions = core.SelectOptions
	// UnsatisfiableError reports an intent no completion path and no
	// software fallback can serve.
	UnsatisfiableError = core.UnsatisfiableError
	// PipelineCaps describes programmable-pipeline resources for offload
	// planning.
	PipelineCaps = core.PipelineCaps
	// OffloadPlan places missing features onto pipeline or software.
	OffloadPlan = core.OffloadPlan
	// Diff is the accessor-level comparison of two compilations (interface
	// drift analysis, and the change report of a live switchover).
	Diff = core.Diff
	// EvolveOptions tunes the live interface-renegotiation control plane.
	EvolveOptions = evolve.Options
	// EvolveStats snapshots the renegotiation control-plane counters.
	EvolveStats = evolve.Stats
)

// NICs lists the bundled NIC model names.
func NICs() []string {
	var out []string
	for _, m := range nic.All() {
		out = append(out, m.Name)
	}
	return out
}

// Semantics lists the canonical semantic names (the universe Σ).
func Semantics() []string {
	var out []string
	for _, n := range semantics.Default.Names() {
		out = append(out, string(n))
	}
	return out
}

// RegisterSemantic extends Σ with an application-defined semantic — the
// paper's evolvability hook. defaultBits is the canonical field width;
// softCost the per-packet software-emulation cost (use math.Inf(1) when no
// software fallback exists).
func RegisterSemantic(name string, defaultBits int, softCost float64) error {
	return semantics.Default.Register(semantics.Descriptor{
		Name: semantics.Name(name), DefaultBits: defaultBits, SoftCost: softCost,
	})
}

// NewIntent builds an intent from semantic names.
func NewIntent(name string, sems ...string) (*Intent, error) {
	names := make([]semantics.Name, len(sems))
	for i, s := range sems {
		names[i] = semantics.Name(s)
	}
	return core.IntentFromSemantics(name, semantics.Default, names...)
}

// ParseIntentP4 parses a P4 source containing an intent header (fields
// tagged with @semantic, paper Fig. 5). header selects the intent header by
// name; pass "" when the source has exactly one annotated header.
func ParseIntentP4(source, header string) (*Intent, error) {
	prog, err := parser.Parse("intent.p4", source)
	if err != nil {
		return nil, err
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, err
	}
	return core.ParseIntent(info, header)
}

// Compile maps an intent onto a bundled NIC model.
func Compile(nicName string, intent *Intent, opts CompileOptions) (*Result, error) {
	m, err := nic.Load(nicName)
	if err != nil {
		return nil, err
	}
	return m.Compile(intent, opts)
}

// CompileP4 maps an intent onto an arbitrary NIC interface description given
// as P4 source (the self-describing-NIC path: the description normally ships
// with the device).
func CompileP4(nicName, nicSource string, intent *Intent, opts CompileOptions) (*Result, error) {
	prog, err := parser.Parse(nicName+".p4", nicSource)
	if err != nil {
		return nil, err
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, err
	}
	return core.Compile(nicName, core.DeparserSpec{Info: info}, intent, opts)
}

// GenerateGo renders a standalone Go accessor package for a result.
func GenerateGo(res *Result, pkg string) string { return codegen.GenGo(res, pkg) }

// GenerateGoBatch renders 4-wide batch accessors (the §5 SIMD shape).
func GenerateGoBatch(res *Result, pkg string) string { return codegen.GenGoBatch(res, pkg) }

// GenerateC renders a C header with constant-time accessors.
func GenerateC(res *Result, prefix string) string { return codegen.GenC(res, prefix) }

// GenerateEBPF renders eBPF/XDP C source with verifier-safe bounded reads.
func GenerateEBPF(res *Result) string { return codegen.GenEBPF(res) }

// PlanOffloads places a result's missing features onto the NIC's
// programmable pipeline (when resources allow) or host software.
func PlanOffloads(res *Result, caps PipelineCaps) (*OffloadPlan, error) {
	return core.PlanOffloads(res, caps, nil)
}

// Meta reads per-packet metadata inside a Driver.Poll handler. It is a
// one-word view of the delivery in progress — Poll points it at each packet
// in turn — so, like the completion record it reads, it is only meaningful
// until the handler returns.
type Meta struct{ v *metaView }

// metaView is the delivery a Meta reads.
type metaView struct {
	rt   *codegen.Runtime
	cmpt []byte
	pkt  []byte
	// reads, when non-nil, counts each read for the renegotiation control
	// plane (the live feature mix): one counter per entry of rt's table.
	reads []*obs.Counter
	// fq/ts/seq, when ts is non-zero, emit one flight event per read
	// (hardware descriptor load vs SoftNIC shim call), reusing the Poll
	// timestamp so the hot path pays no extra clock read.
	fq  *flight.Queue
	ts  uint64
	seq uint32
}

// Get returns the value of a semantic for the current packet: a constant
// -time descriptor read when the selected layout carries it, the SoftNIC
// shim otherwise. ok is false for semantics outside the compiled intent.
func (m Meta) Get(sem string) (uint64, bool) {
	v := m.v
	r, i := v.rt.Lookup(semantics.Name(sem))
	if r == nil {
		return 0, false
	}
	if v.reads != nil {
		v.reads[i].Inc()
	}
	if !r.Linked() {
		return 0, false
	}
	if v.ts != 0 {
		code := flight.EvReadSoft
		if r.Hardware {
			code = flight.EvReadHW
		}
		v.fq.RecordT(v.ts, code, v.seq, flight.PackName(sem), 0)
	}
	return r.Read(v.cmpt, v.pkt), true
}

// Hardware reports whether the semantic is served directly from the
// completion record (vs a software shim).
func (m Meta) Hardware(sem string) bool {
	r := m.v.rt.Reader(semantics.Name(sem))
	return r != nil && r.Hardware
}

// Driver is the generated minimalist driver datapath the paper's conclusion
// aims at: a compiled intent, a configured (simulated) device, and the
// accessor runtime, behind a two-call API. A driver opened with the Evolve
// option additionally renegotiates the interface online (see Evolution).
type Driver struct {
	Result *Result

	dev     *nicsim.Device
	rt      *codegen.Runtime
	pending []pendingPkt
	// view is what the Meta handed to a Poll handler reads.
	view metaView

	// flight is the driver's always-armed flight recorder; fq its "q0"
	// event ring, shared with the device so DMA, ring, validator, and
	// delivery events interleave on one timeline. Evolving drivers use the
	// engine's recorder instead (see Flight).
	flight *flight.Recorder
	fq     *flight.Queue
	// rxSeq numbers accepted packets 1-based, matching the device's
	// DMA-emit sequence so driver and device events correlate.
	rxSeq uint32
	// dmaToPoll / pollToDeliver are per-stage completion latencies derived
	// from matched flight timestamps (DMA-emit → Poll pickup → handler
	// return).
	dmaToPoll     *obs.Histogram
	pollToDeliver *obs.Histogram

	// engine is non-nil for evolving drivers; the datapath then delegates
	// to the renegotiation control plane.
	engine *evolve.Engine
	// hard is non-nil once Harden armed the validated/watchdogged datapath.
	hard *hardening
}

// pendingPkt is one packet awaiting its completion; soft marks packets that
// will be served from the SoftNIC runtime instead of a device record
// (quarantined completion, lost completion, or degraded mode). ts and seq
// are the packet's flight-recorder timestamp and sequence (zero when the
// recorder is disabled or compiled out).
type pendingPkt struct {
	pkt  []byte
	soft bool
	ts   uint64
	seq  uint32
}

// meta points the driver's view at packet p, read through rt over cmpt in
// the Poll that began at t0. Per-read events fire only for sampled packets
// (non-zero Rx stamp): a zero view timestamp makes Get skip its RecordT.
func (d *Driver) meta(rt *codegen.Runtime, cmpt []byte, p *pendingPkt, t0 uint64) Meta {
	v := &d.view
	v.rt, v.cmpt, v.pkt, v.fq, v.seq = rt, cmpt, p.pkt, d.fq, p.seq
	v.ts = 0
	if p.ts != 0 {
		v.ts = t0
	}
	return Meta{v}
}

// errEvolvingHarden: facade hardening applies to pinned drivers; the
// evolving control plane hardens its switchover path internally.
var errEvolvingHarden = errors.New("opendesc: Harden is not supported on an evolving driver")

// OpenOptions bundles everything Open can be tuned with.
type OpenOptions struct {
	// Compile tunes path selection and enumeration.
	Compile CompileOptions
	// Evolve, when non-nil, arms the live interface-renegotiation control
	// plane: the driver watches the application's read mix and the measured
	// shim costs, and hot-swaps the descriptor layout when a better one
	// emerges (generation-tagged, zero-loss switchovers).
	Evolve *EvolveOptions
	// Harden, when non-nil, arms the hardened datapath (completion
	// validation, device watchdog, SoftNIC degraded mode) on a pinned
	// driver. Mutually exclusive with Evolve.
	Harden *HardenOptions
	// Device sizes and configures the simulated device of a pinned driver
	// (ring depth, queue id, injected clock). Evolving drivers configure
	// theirs through EvolveOptions.Device instead. The zero value keeps the
	// defaults.
	Device nicsim.Config
}

// Open compiles the intent for the NIC, programs a simulated device with the
// selected context configuration, and links the SoftNIC shims.
func Open(nicName string, sems ...string) (*Driver, error) {
	intent, err := NewIntent("driver_intent", sems...)
	if err != nil {
		return nil, err
	}
	return OpenIntent(nicName, intent, CompileOptions{})
}

// OpenIntent is Open with an explicit intent and compile options.
func OpenIntent(nicName string, intent *Intent, opts CompileOptions) (*Driver, error) {
	return OpenWith(nicName, intent, OpenOptions{Compile: opts})
}

// OpenEvolving is Open with live interface renegotiation enabled.
func OpenEvolving(nicName string, opts EvolveOptions, sems ...string) (*Driver, error) {
	intent, err := NewIntent("driver_intent", sems...)
	if err != nil {
		return nil, err
	}
	return OpenWith(nicName, intent, OpenOptions{Evolve: &opts})
}

// OpenWith is the full-control constructor behind Open and OpenIntent.
func OpenWith(nicName string, intent *Intent, opts OpenOptions) (*Driver, error) {
	m, err := nic.Load(nicName)
	if err != nil {
		return nil, err
	}
	if opts.Evolve != nil {
		if opts.Harden != nil {
			return nil, errEvolvingHarden
		}
		eng, err := evolve.New(m, intent, opts.Compile, *opts.Evolve)
		if err != nil {
			return nil, err
		}
		return &Driver{Result: eng.Result(), dev: eng.Device(), engine: eng}, nil
	}
	res, err := m.Compile(intent, opts.Compile)
	if err != nil {
		return nil, err
	}
	dev, err := nicsim.New(m, opts.Device)
	if err != nil {
		return nil, err
	}
	if err := dev.ApplyConfig(res.Config); err != nil {
		return nil, err
	}
	rec := flight.NewRecorder(flight.Config{})
	d := &Driver{
		Result:        res,
		dev:           dev,
		rt:            codegen.NewRuntime(res, softnic.Funcs()),
		flight:        rec,
		fq:            rec.Queue("q0"),
		dmaToPoll:     obs.NewHistogram(),
		pollToDeliver: obs.NewHistogram(),
	}
	dev.AttachFlight(d.fq)
	if opts.Harden != nil {
		if err := d.Harden(*opts.Harden); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Rx delivers one packet to the device (the simulated wire). It returns
// false when the completion ring is full.
func (d *Driver) Rx(packet []byte) bool {
	if d.engine != nil {
		return d.engine.Rx(packet)
	}
	if d.hard != nil {
		return d.hard.rx(d, packet)
	}
	if !d.dev.RxPacket(packet) {
		return false
	}
	d.enqueue(packet, false)
	return true
}

// enqueue queues an accepted packet for delivery, numbered 1-based like the
// device's DMA-emit sequence and stamped when it is on the sampling grid.
func (d *Driver) enqueue(packet []byte, soft bool) {
	d.rxSeq++
	d.pending = append(d.pending, pendingPkt{pkt: packet, soft: soft, ts: d.fq.NowIfSampled(d.rxSeq), seq: d.rxSeq})
}

// noteDelivered derives one completed packet's per-stage latencies from its
// flight timestamps — rxTS stamped at Rx, t0 when the current Poll began —
// and emits the deliver event carrying both intervals, so trace viewers can
// render DMA→deliver as a span. A zero rxTS means the packet was not on the
// sampling grid (or the recorder was off at Rx): the whole derivation is
// skipped, which is what keeps the recorder inside its hot-path budget.
func (d *Driver) noteDelivered(t0, rxTS uint64, seq uint32) {
	if t0 == 0 || rxTS == 0 {
		return
	}
	t1 := d.fq.Now()
	d.dmaToPoll.Observe(t0 - rxTS)
	d.pollToDeliver.Observe(t1 - t0)
	d.fq.RecordT(t1, flight.EvDeliver, seq, t0-rxTS, t1-rxTS)
}

// Poll drains completed packets, invoking h for each with its metadata view,
// and returns how many were processed. On an evolving driver this is also
// the control-plane tick: every EvolveOptions.Interval delivered packets the
// layout optimization is re-solved against the observed read mix, and a
// winning candidate triggers a generation switchover (Result is updated to
// the new generation's compilation).
func (d *Driver) Poll(h func(packet []byte, meta Meta)) int {
	if d.engine != nil {
		v := &d.view
		n := d.engine.Poll(func(pkt, cmpt []byte, rt *codegen.Runtime) {
			v.rt, v.cmpt, v.pkt = rt, cmpt, pkt
			v.fq, v.ts, v.seq, v.reads = d.engine.DeliveryCtx()
			h(pkt, Meta{v})
		})
		d.Result = d.engine.Result()
		return n
	}
	if d.hard != nil {
		return d.hard.poll(d, h)
	}
	n := 0
	t0 := d.fq.Now()
	cur := d.dev.CmptRing.Cursor()
	for n < len(d.pending) {
		cmpt := cur.At()
		if cmpt == nil {
			break
		}
		p := &d.pending[n]
		h(p.pkt, d.meta(d.rt, cmpt, p, t0))
		cur.Release()
		d.noteDelivered(t0, p.ts, p.seq)
		n++
	}
	cur.Close()
	d.pending = d.pending[:copy(d.pending, d.pending[n:])]
	return n
}

// PendingPackets reports how many accepted packets await delivery. On a
// healthy driver every pending packet is delivered by the next Poll; the
// chaos harness uses this as its liveness probe (pending packets with an
// empty completion ring and a healthy device are stuck forever).
func (d *Driver) PendingPackets() int {
	if d.engine != nil {
		return d.engine.PendingCount()
	}
	return len(d.pending)
}

// Flight returns the driver's flight recorder — the always-on per-queue
// event ring behind postmortem dumps, Chrome-trace export (WriteChromeTrace)
// and the /debug/flight endpoint. Never nil; evolving drivers return the
// engine's recorder.
func (d *Driver) Flight() *flight.Recorder {
	if d.engine != nil {
		return d.engine.Flight()
	}
	return d.flight
}

// Evolution snapshots the renegotiation control-plane counters (generation,
// switchovers, rollbacks, drained packets, switchover latency). The zero
// snapshot is returned for drivers opened without the Evolve option.
func (d *Driver) Evolution() EvolveStats {
	if d.engine == nil {
		return EvolveStats{}
	}
	return d.engine.Stats()
}

// LastDiff returns the change report of the most recent live switchover
// (nil for pinned drivers and before the first switchover).
func (d *Driver) LastDiff() *Diff {
	if d.engine == nil {
		return nil
	}
	return d.engine.LastDiff()
}

// CompletionBytes is the DMA footprint of each completion record under the
// compiled configuration.
func (d *Driver) CompletionBytes() int { return d.Result.CompletionBytes() }

// Report renders the compilation report (selected path, accessors, config).
func (d *Driver) Report() string { return d.Result.Report() }

// Stats returns device counters (packets received, drops).
func (d *Driver) Stats() (rx, drops uint64) {
	st := d.dev.Stats()
	return st.RxPackets, st.Drops
}

// DeviceStats returns the full ethtool-style counter snapshot of the
// underlying simulated device (per-path completions, per-semantic offload
// invocations, completion-ring occupancy and stalls).
func (d *Driver) DeviceStats() nicsim.DeviceStats { return d.dev.Stats() }

// RegisterMetrics exposes the driver's device and ring counters on an obs
// registry (rendered by Registry.Table, /metrics, or /debug/vars); evolving
// drivers additionally expose the renegotiation control-plane series.
func (d *Driver) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	if d.engine != nil {
		d.engine.RegisterMetrics(reg, labels...)
		return
	}
	d.dev.RegisterMetrics(reg, labels...)
	reg.AttachHistogram("opendesc_flight_dma_to_poll_ns", "DMA emit to Poll pickup latency (flight recorder)", d.dmaToPoll, labels...)
	reg.AttachHistogram("opendesc_flight_poll_to_deliver_ns", "Poll pickup to handler return latency (flight recorder)", d.pollToDeliver, labels...)
	if d.hard != nil {
		d.hard.registerMetrics(reg, labels...)
	}
	if inj := d.dev.Faults(); inj != nil {
		inj.RegisterMetrics(reg, labels...)
	}
}
