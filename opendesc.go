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
//
// OpenWith takes the options that make the driver renegotiate its interface
// online (Evolve) and defend itself against a faulty device (Harden); the
// two compose, on one receive path.
package opendesc

import (
	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/evolve"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
	"opendesc/internal/obs"
	"opendesc/internal/obs/flight"
	"opendesc/internal/p4/parser"
	"opendesc/internal/p4/sema"
	"opendesc/internal/rxpath"
	"opendesc/internal/semantics"
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
	return core.Compile(nicName, info, intent, opts)
}

// GenerateGo renders a standalone Go accessor package for a result.
func GenerateGo(res *Result, pkg string) string { return codegen.GenGo(res, pkg) }

// GenerateC renders a C header with constant-time accessors.
func GenerateC(res *Result, prefix string) string { return codegen.GenC(res, prefix) }

// GenerateEBPF renders eBPF/XDP C source with verifier-safe bounded reads.
func GenerateEBPF(res *Result) string { return codegen.GenEBPF(res) }

// PlanOffloads places a result's missing features onto the NIC's
// programmable pipeline (when resources allow) or host software.
func PlanOffloads(res *Result, caps PipelineCaps) (*OffloadPlan, error) {
	return core.PlanOffloads(res, caps, nil)
}

// Meta reads per-packet metadata inside a Driver.Poll handler: Get returns a
// semantic's value (a constant-time descriptor read when the selected layout
// carries it, the SoftNIC shim otherwise), Hardware reports which of the two
// served it. It is a one-word view of the delivery in progress — Poll points
// it at each packet in turn — so, like the completion record it reads, it is
// only meaningful until the handler returns.
type Meta = rxpath.Meta

// Driver is the generated minimalist driver datapath the paper's conclusion
// aims at: a compiled intent, a configured (simulated) device, and the
// accessor runtime, behind a two-call API. The Evolve option makes it
// renegotiate the interface online (see Evolution), the Harden option
// defends it against a faulty device (see Hardening); the two compose.
type Driver struct {
	Result *Result

	// q is the driver's receive path: pending packets, flight recorder,
	// latency histograms, and the hardening policy once Harden armed it.
	q *rxpath.Queue
	// engine is non-nil for evolving drivers: the renegotiation control
	// plane, which owns q's lock and swaps its lane at each generation.
	engine *evolve.Engine
	// gen is the engine generation Result was read at; Poll takes the
	// engine's lock for a fresh Result only when the generation has moved.
	gen uint64
}

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
	// validation, device watchdog, SoftNIC degraded mode).
	Harden *HardenOptions
	// Device sizes and configures the simulated device (ring depth, queue
	// id, injected clock). The zero value keeps the defaults.
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
	dev, err := nicsim.New(m, opts.Device)
	if err != nil {
		return nil, err
	}
	d := &Driver{}
	if opts.Evolve != nil {
		if d.engine, err = evolve.New(dev, intent, opts.Compile, *opts.Evolve); err != nil {
			return nil, err
		}
		d.Result, d.q = d.engine.Result(), d.engine.Queue()
	} else {
		if d.Result, err = m.Compile(intent, opts.Compile); err != nil {
			return nil, err
		}
		if d.q, err = rxpath.New(dev, d.Result.Config, nil); err != nil {
			return nil, err
		}
		lane, err := d.q.Link(d.Result)
		if err != nil {
			return nil, err
		}
		d.q.SetLane(0, lane)
	}
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
	return d.q.Rx(packet, 0)
}

// Poll drains completed packets, invoking h for each with its metadata view,
// and returns how many were processed. On an evolving driver this is also
// the control-plane tick: every EvolveOptions.Interval delivered packets the
// layout optimization is re-solved against the observed read mix, and a
// winning candidate triggers a generation switchover (Result is updated to
// the new generation's compilation).
func (d *Driver) Poll(h func(packet []byte, meta Meta)) int {
	if d.engine != nil {
		n := d.engine.Poll(h)
		if gen := d.engine.Generation(); gen != d.gen {
			d.gen, d.Result = gen, d.engine.Result()
		}
		return n
	}
	return d.q.Poll(-1, h)
}

// PendingPackets reports how many accepted packets await delivery. On a
// healthy driver every pending packet is delivered by the next Poll; the
// chaos harness uses this as its liveness probe (pending packets with an
// empty completion ring and a healthy device are stuck forever). Call it
// from the goroutine that polls.
func (d *Driver) PendingPackets() int { return d.q.Pending() }

// Flight returns the driver's flight recorder — the always-on per-queue
// event ring behind postmortem dumps, Chrome-trace export (WriteChromeTrace)
// and the /debug/flight endpoint. Never nil.
func (d *Driver) Flight() *flight.Recorder { return d.q.Flight() }

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
	st := d.q.Dev().Stats()
	return st.RxPackets, st.Drops
}

// DeviceStats returns the full ethtool-style counter snapshot of the
// underlying simulated device (per-path completions, per-semantic offload
// invocations, completion-ring occupancy and stalls).
func (d *Driver) DeviceStats() nicsim.DeviceStats { return d.q.Dev().Stats() }

// RegisterMetrics exposes the driver on an obs registry (rendered by
// Registry.Table, /metrics, or /debug/vars): device and ring counters, the
// flight latency histograms, the hardening series once Harden armed them, the
// fault injector's when one is attached, and on an evolving driver the
// renegotiation control-plane series beside them.
func (d *Driver) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	if d.engine != nil {
		d.engine.RegisterMetrics(reg, labels...)
		return
	}
	d.q.RegisterMetrics(reg, labels...)
}
