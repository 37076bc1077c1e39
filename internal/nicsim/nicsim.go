// Package nicsim simulates a NIC whose descriptor interface is defined by an
// OpenDesc P4 description. The simulated device *executes the same
// declarative contract the compiler analyzes*: per received packet it
// evaluates the completion deparser's decisions under the programmed context
// registers and DMAs the serialized completion record into a completion ring
// — so the layouts the compiler derives and the bytes the device emits are
// validated against each other end-to-end.
//
// The DMA modelled is the completion record, into a ring whose stride is the
// description's largest Size(p) in whole 8-byte words. Packet bytes reach the
// host by reference; a 2 KiB frame buffer (bufSize) is the frame-size check.
//
// What is fixed is decided when the device is built, in New: the ring
// stride; a tree over the deparser's decision vertices (branch and switch)
// whose leaves are the enumerated paths, each reached by the route
// core.EnumeratePaths recorded for it; the slots, one per offload engine and
// one per context register (a field of the parameter the control's first
// template type types: the control channel of the paper's Fig. 2); and each
// path's plan, the flat list of fields its record carries, each resolved to
// a slot, a bit offset and a width. No emit vertex is visited per packet.
// What is left per packet is the decisions on the packet's route — each
// condition evaluated with sema, as the compiler reads it — then the leaf's
// plan and the offload engines it needs: each slot's row of softnic's
// reference table, the value every shim and oracle reads too, run on first
// use, so a layout that does not carry a semantic (and no decision that
// reads it) never computes it.
package nicsim

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"opendesc/internal/bitfield"
	"opendesc/internal/core"
	"opendesc/internal/faults"
	"opendesc/internal/nic"
	"opendesc/internal/obs"
	"opendesc/internal/obs/flight"
	"opendesc/internal/p4/sema"
	"opendesc/internal/pkt"
	"opendesc/internal/ring"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/vclock"
)

// Config sizes a simulated device.
type Config struct {
	// RingEntries is the completion ring depth (default 1024).
	RingEntries int
	// QueueID is reported through the queue_id semantic.
	QueueID uint16
	// Clock, when non-nil, is the timeline the timestamp semantic reads (each
	// received packet is stamped Clock.Now()). Nil keeps the device's internal
	// free-running counter, which advances timestampStep per packet. Chaos
	// runs inject the shared virtual clock here so device timestamps sit on
	// the same deterministic timeline as the rest of the stack.
	Clock vclock.Clock
}

const (
	// bufSize is the largest frame accepted; longer ones drop.
	bufSize = 2048
	// timestampStep is the free-running clock's advance per received packet,
	// in nanoseconds.
	timestampStep = 100
)

// Device is a simulated OpenDesc-described NIC.
type Device struct {
	Model *nic.Model
	cfg   Config

	graph *core.Graph
	paths []*core.Path
	// slots holds, per leaf of graph.Leaves, the slot it reads: a context
	// leaf its register, a metadata leaf its semantic's engine, else
	// slotZero.
	slots []int32

	// CmptRing receives the serialized completion records (stride: see New).
	CmptRing *ring.Ring

	clock uint64

	// Ethtool-style device counters (atomic: the RX path runs on one
	// goroutine, but stats may be scraped from another at any time). The
	// packets accepted, the completion bytes and each engine's runs are not
	// kept: Stats derives them from each route's hits and from apart.
	rxBytes obs.Counter
	drops   obs.Counter
	// apart holds the tallies of packets that do not count on their route's
	// hits, copied on write: the datapath appends, a scraper reads.
	apart atomic.Pointer[[]*tally]
	// seq counts accepted packets: the flight stream's sequence, the
	// driver's Rx sequence. stamp is the flight clock reading the last
	// accepted packet was recorded at, 0 off the sampling grid (Stamp).
	seq   uint32
	stamp uint64

	// faults, when non-nil, is the fault-injection layer consulted on every
	// DMA/completion and control-channel operation.
	faults *faults.Injector
	// fq, when attached, receives device-side flight-recorder events (DMA
	// emit, hang drops, resets). Nil by default.
	fq *flight.Queue
	// Fault-path counters (all zero on a healthy device).
	cfgNAKs    obs.Counter // ApplyConfig bursts refused (wedge or NAK)
	hangDrops  obs.Counter // packets refused while the device was wedged
	unrouted   obs.Counter // packets whose decisions took no enumerated route
	lostCmpts  obs.Counter // completions dropped by injection (host-visible desync)
	resets     obs.Counter // device resets that took effect
	resetFails obs.Counter // reset attempts refused while wedged

	// tree holds the deparser's decision vertices on the enumerated routes,
	// flat. tree[0] is the root target; a vertex at index k > 0 is its CFG
	// node ID, tree[k], then one target per successor edge, tree[k+1+e]. A
	// target t > 0 is the next vertex, t < 0 the leaf of path ^t, and t == 0
	// an edge no enumerated path takes.
	tree []int32
	// routes holds, per enumerated path (index into paths), its plan and its
	// completion count.
	routes []route
	// plan holds every path's writes, path after path.
	plan []write

	// written has the bit of each register slot the host wrote.
	written uint64

	// Per-packet state: the frame, its lazily parsed headers, and the slot
	// values known so far (bit s of have set: vals[s] holds it; have always
	// holds fixedSlots). A register slot holds its register, zero until
	// written.
	packet  []byte
	info    pkt.Info
	parsed  bool
	parseOK bool
	have    uint64
	vals    [maxSlots]uint64
	cmptBuf []byte
}

// The slots: engine slot s runs softnic.Rows()[s]; then one slot that
// always reads 0 (padding, untagged fields and semantics no engine
// computes); then one per context leaf of the graph's leaf table, in table
// order.
var (
	engines = softnic.Rows()
	// The device computes two engines' values itself: the frame's length,
	// with no decode, and its clock.
	slotPktLen    = slices.Index(engines, softnic.Lookup(semantics.PktLen))
	slotTimestamp = slices.Index(engines, softnic.Lookup(semantics.Timestamp))
)

const (
	slotZero = softnic.NumRows
	// slotReg is the first context register's slot.
	slotReg = slotZero + 1
	// fixedSlots are the slots no engine computes: slotZero and the
	// registers.
	fixedSlots = ^uint64(0) >> slotZero << slotZero
	// maxSlots bounds the slots to one bit each of a uint64 mask.
	maxSlots = 64
)

// A route is one enumerated path as the device DMAs it: its writes,
// plan[start:end], the record's size in bytes, and its direct counter, as P4
// counts a table entry's hits: hits counts its completions of size bytes whose
// packets ran the engines in set. set holds the engine slots' bits of the
// route's first such packet, tagged with setValid, and is stored before the
// first hit; a completion that differs goes to the device's tallies.
type route struct {
	start, end int32
	size       int
	set        atomic.Uint64
	hits       atomic.Uint64
}

// A tally counts the packets, n, that do not count on their route's hits: a
// completion on path whose engines or record size differ from the route's
// (a description whose decisions read the packet, a replayed record of
// another path), or, with path -1 and size 0, a packet whose engines ran and
// that completed nowhere — refused after routing, by a full ring, or lost by
// the fault injector.
type tally struct {
	path, size int
	set        uint64
	n          atomic.Uint64
}

// setValid tags an engine set as stored, so that one with no engine differs
// from none. It is a fixed slot's bit, never an engine's.
const setValid = uint64(1) << (maxSlots - 1)

// A write puts one slot's value into a completion record, width bits at bit
// off. The record buffer is cleared first, so fields that read zero get no
// write.
type write struct{ slot, off, width int32 }

// errUnrouted is a packet whose decisions lead off every enumerated route:
// the enumerator pruned an edge the concrete values take. No path describes
// the record, so the device drops the packet and counts it apart.
var errUnrouted = errors.New("nicsim: the packet's route is no enumerated path")

// maxCompletionBytes bounds a single completion record in the simulator.
const maxCompletionBytes = 256

// ErrDeviceHang reports that the device is wedged: RX and the control
// channel refuse service until a reset succeeds.
var ErrDeviceHang = errors.New("device hang")

// ErrConfigNAK reports a NAKed control-channel register-write burst; the
// burst failed atomically and may be retried.
var ErrConfigNAK = errors.New("register write NAKed")

// New builds a simulated device for a NIC model.
func New(m *nic.Model, cfg Config) (*Device, error) {
	if cfg.RingEntries == 0 {
		cfg.RingEntries = 1024
	}
	g, err := m.Graph()
	if err != nil {
		return nil, err
	}
	paths, err := m.Paths()
	if err != nil {
		return nil, err
	}
	// One entry holds the largest path in whole 8-byte words (a bitfield
	// window); RxPacket drops a packet on a path over the cap.
	stride := 8
	for _, p := range paths {
		stride = min(max(stride, (p.SizeBytes()+7)&^7), maxCompletionBytes)
	}
	d := &Device{
		Model:    m,
		cfg:      cfg,
		graph:    g,
		paths:    paths,
		have:     fixedSlots,
		CmptRing: ring.MustNew(stride, cfg.RingEntries),
		cmptBuf:  make([]byte, stride),
		routes:   make([]route, len(paths)),
	}
	if err := d.build(); err != nil {
		return nil, fmt.Errorf("nicsim %s: %w", m.Name, err)
	}
	return d, nil
}

// build binds every leaf to its slot, then resolves every enumerated path
// once: its route into the decision tree, its fields into a plan. The slots
// and the tree share one backing slice, the plan has another, sized up
// front from the paths.
func (d *Device) build() error {
	g := d.graph
	fan, nTree, nPlan := 0, 1, 0
	for _, n := range g.Nodes {
		fan = max(fan, len(n.Succs))
	}
	for _, p := range d.paths {
		nTree += len(p.Route) * (1 + fan)
		nPlan += len(p.Fields)
	}
	nLeaves := len(g.Leaves)
	buf := make([]int32, nLeaves+nTree)
	d.slots, d.tree = buf[:nLeaves:nLeaves], buf[nLeaves:nLeaves+1]
	d.plan = make([]write, 0, nPlan)
	reg := slotReg
	for i, l := range g.Leaves {
		s := slotZero
		if l.Context {
			s, reg = reg, reg+1
		} else if e := slices.Index(engines, softnic.Lookup(l.Semantic)); e >= 0 {
			s = e
		}
		d.slots[i] = int32(s)
	}
	if reg > maxSlots {
		return fmt.Errorf("%d context registers, more than %d", reg-slotReg, maxSlots-slotReg)
	}
	for i, p := range d.paths {
		// at is the target the walk so far ends on, rest the route's
		// decisions still to take; a walk visits each node of the acyclic
		// graph at most once.
		at, node, rest := 0, g.Entry, p.Route
		for steps := 0; node.Kind != core.NodeExit; steps++ {
			if steps == len(g.Nodes) {
				return fmt.Errorf("path %d: the deparser walk does not terminate", p.ID)
			}
			if node.Kind != core.NodeBranch && node.Kind != core.NodeSwitch {
				if len(node.Succs) != 1 {
					return fmt.Errorf("path %d: node %d (%s) has %d successors", p.ID, node.ID, node.Kind, len(node.Succs))
				}
				node = node.Succs[0].To
				continue
			}
			if len(rest) == 0 || rest[0] >= len(node.Succs) {
				return fmt.Errorf("path %d: its route does not fit node %d (%s)", p.ID, node.ID, node.Kind)
			}
			t := d.tree[at]
			if t < 0 {
				return fmt.Errorf("path %d: its route runs past path %d's leaf", p.ID, d.paths[^t].ID)
			}
			if t == 0 {
				t = int32(len(d.tree))
				d.tree[at] = t
				d.tree = append(d.tree, int32(node.ID))
				for range node.Succs {
					d.tree = append(d.tree, 0)
				}
			}
			at = int(t) + 1 + rest[0]
			node, rest = node.Succs[rest[0]].To, rest[1:]
		}
		if len(rest) != 0 || d.tree[at] != 0 {
			return fmt.Errorf("path %d: its route is not a distinct walk to the exit", p.ID)
		}
		d.tree[at] = ^int32(i)

		r := &d.routes[i]
		r.start, r.size = int32(len(d.plan)), p.SizeBytes()
		for _, f := range p.Fields {
			if f.Leaf >= 0 {
				if s := d.slots[f.Leaf]; int(s) != slotZero {
					d.plan = append(d.plan, write{slot: s, off: int32(f.OffsetBits), width: int32(f.WidthBits)})
				}
			}
		}
		r.end = int32(len(d.plan))
	}
	return nil
}

// Config returns the device's (defaulted) configuration — the concrete
// device state drivers derive their validation constants from.
func (d *Device) Config() Config { return d.cfg }

// MustNew panics on error.
func MustNew(m *nic.Model, cfg Config) *Device {
	d, err := New(m, cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// WriteReg programs one context register (MMIO write on the control
// channel), named as in the description, e.g. "ctx.use_rss". The register
// keeps as many low bits of v as its field is wide, as hardware does; a name
// that is no register writes nothing, like a store to no address.
func (d *Device) WriteReg(path string, v uint64) {
	if i := d.graph.Leaf(path); i >= 0 && d.graph.Leaves[i].Context {
		s := d.slots[i]
		d.vals[s], d.written = d.graph.Leaves[i].Mask(v), d.written|1<<s
	}
}

// ApplyConfig programs the context registers so the device takes the
// completion path selected by a compilation result, with the values
// core.ConfigAssignment resolves. It writes registers only: a variable that
// names a metadata field is left to the packet. A value wider than its
// register refuses the configuration. The register-write burst fails
// atomically when the device is wedged or the control channel NAKs it
// (fault injection): no register is written on error.
func (d *Device) ApplyConfig(cons []core.Constraint) error {
	if d.faults != nil {
		if d.faults.Tick() {
			d.cfgNAKs.Inc()
			return fmt.Errorf("nicsim %s: %w", d.Model.Name, ErrDeviceHang)
		}
		if d.faults.NAKConfig() {
			d.cfgNAKs.Inc()
			return fmt.Errorf("nicsim %s: %w", d.Model.Name, ErrConfigNAK)
		}
	}
	vals, err := core.ConfigAssignment(cons)
	if err != nil {
		return fmt.Errorf("nicsim: %w", err)
	}
	for v, val := range vals {
		if i := d.graph.Leaf(v); i >= 0 && d.graph.Leaves[i].Context && d.graph.Leaves[i].Mask(val) != val {
			return fmt.Errorf("nicsim %s: the configuration sets register %s to %d, wider than its %d bits", d.Model.Name, v, val, d.graph.Leaves[i].Width)
		}
	}
	for v, val := range vals {
		d.WriteReg(v, val)
	}
	return nil
}

// ActivePath returns the completion path the current context registers
// select: the leaf RxPacket's walk down the decision tree reaches, taken on
// the registers alone. It errs where RxPacket would refuse every frame — a
// decision reads a register never written, or leads off every enumerated
// route — and where a decision reads the packet, since then no one path is
// active.
func (d *Device) ActivePath() (*core.Path, error) {
	path, err := d.route((*registers)(d))
	if err != nil {
		return nil, fmt.Errorf("nicsim %s: %w", d.Model.Name, err)
	}
	return d.paths[path], nil
}

// registers is the device deciding on its registers alone: a field an
// offload engine computes is unknown to it.
type registers Device

// Lookup implements sema.Env.
func (r *registers) Lookup(path string) (sema.Value, bool) {
	d := (*Device)(r)
	if i := d.graph.Leaf(path); i >= 0 && int(d.slots[i]) < slotZero {
		return sema.Value{}, false
	}
	return d.Lookup(path)
}

// DeviceStats is a point-in-time snapshot of a device's ethtool-style
// counters.
type DeviceStats struct {
	// RxPackets counts packets accepted end-to-end (completion DMAed);
	// Drops counts packets rejected anywhere in the RX path.
	RxPackets uint64
	RxBytes   uint64
	Drops     uint64
	// CompletionBytes is the total completion-record DMA volume (one
	// record per accepted packet).
	CompletionBytes uint64
	// CompletionsByPath counts completions per enumerated deparser path,
	// keyed by path ID.
	CompletionsByPath map[int]uint64
	// Offloads counts, per semantic, the packets its offload engine ran
	// for: those whose completion carried the semantic or whose path
	// through the deparser branched on it.
	Offloads map[semantics.Name]uint64
	// Ring is the completion ring's counter snapshot.
	Ring ring.Stats
	// Fault-path counters (all zero on a healthy device): ConfigNAKs counts
	// refused ApplyConfig bursts, HangDrops packets refused while wedged,
	// LostCompletions injected completion losses, Resets successful device
	// resets, ResetFails reset attempts refused while wedged.
	ConfigNAKs      uint64
	HangDrops       uint64
	LostCompletions uint64
	Resets          uint64
	ResetFails      uint64
	// Unrouted counts packets, also in Drops, whose decisions took an edge
	// no enumerated path takes: no layout describes their record, so the
	// device writes none.
	Unrouted uint64
}

// Stats returns a snapshot of the device counters. Safe to call while
// another goroutine is receiving packets. Maps contain only non-zero
// entries.
func (d *Device) Stats() DeviceStats {
	st := DeviceStats{
		RxPackets:         d.rxPackets(),
		RxBytes:           d.rxBytes.Load(),
		Drops:             d.drops.Load(),
		CompletionBytes:   d.cmptBytes(),
		CompletionsByPath: make(map[int]uint64),
		Offloads:          make(map[semantics.Name]uint64),
		Ring:              d.CmptRing.Stats(),
		ConfigNAKs:        d.cfgNAKs.Load(),
		HangDrops:         d.hangDrops.Load(),
		LostCompletions:   d.lostCmpts.Load(),
		Resets:            d.resets.Load(),
		ResetFails:        d.resetFails.Load(),
		Unrouted:          d.unrouted.Load(),
	}
	for i := range d.routes {
		if n := d.completions(i); n > 0 {
			st.CompletionsByPath[d.paths[i].ID] = n
		}
	}
	for slot, e := range engines {
		if n := d.offloads(slot); n > 0 {
			st.Offloads[e.Semantic()] = n
		}
	}
	return st
}

// sum adds up, over every count the device keeps — each route's hits, each
// tally's n — the count times w of what it counts: its path (-1: none), its
// record's size and its engine set. Every count only grows, so every sum
// does too, at any moment a scraper reads it.
func (d *Device) sum(w func(path, size int, set uint64) uint64) uint64 {
	var total uint64
	for i := range d.routes {
		r := &d.routes[i]
		// hits first: a route with a hit has its set stored.
		if n := r.hits.Load(); n > 0 {
			total += n * w(i, r.size, r.set.Load())
		}
	}
	if rows := d.apart.Load(); rows != nil {
		for _, t := range *rows {
			total += t.n.Load() * w(t.path, t.size, t.set)
		}
	}
	return total
}

// rxPackets is the packets accepted: every completion, and every packet
// whose completion the injector lost.
func (d *Device) rxPackets() uint64 {
	return d.sum(func(path, _ int, _ uint64) uint64 { return b2u(path >= 0) }) + d.lostCmpts.Load()
}

// cmptBytes is the completion-record bytes DMAed.
func (d *Device) cmptBytes() uint64 {
	return d.sum(func(path, size int, _ uint64) uint64 { return b2u(path >= 0) * uint64(size) })
}

// completions is path i's completions.
func (d *Device) completions(i int) uint64 {
	return d.sum(func(path, _ int, _ uint64) uint64 { return b2u(path == i) })
}

// offloads is the packets slot's engine ran for.
func (d *Device) offloads(slot int) uint64 {
	return d.sum(func(_, _ int, set uint64) uint64 { return set >> slot & 1 })
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// RegisterMetrics exposes the device counters (and its completion ring's)
// on an obs registry, labelled with the NIC model name plus any extra
// labels (e.g. the queue id). Idempotent per registry and label set.
func (d *Device) RegisterMetrics(reg *obs.Registry, extra ...obs.Label) {
	base := append([]obs.Label{obs.L("nic", d.Model.Name)}, extra...)
	reg.AttachCounterFunc("opendesc_dev_rx_packets_total", "packets accepted by the simulated device", d, d.rxPackets, base...)
	reg.AttachCounter("opendesc_dev_rx_bytes_total", "packet bytes accepted by the simulated device", &d.rxBytes, base...)
	reg.AttachCounter("opendesc_dev_drops_total", "packets dropped in the RX path", &d.drops, base...)
	reg.AttachCounterFunc("opendesc_dev_completion_bytes_total", "completion-record bytes DMAed", d, d.cmptBytes, base...)
	reg.AttachCounter("opendesc_dev_config_naks_total", "refused ApplyConfig register-write bursts", &d.cfgNAKs, base...)
	reg.AttachCounter("opendesc_dev_hang_drops_total", "packets refused while the device was wedged", &d.hangDrops, base...)
	reg.AttachCounter("opendesc_dev_lost_completions_total", "completions lost to fault injection", &d.lostCmpts, base...)
	reg.AttachCounter("opendesc_dev_resets_total", "device resets that took effect", &d.resets, base...)
	reg.AttachCounter("opendesc_dev_reset_fails_total", "reset attempts refused while wedged", &d.resetFails, base...)
	reg.AttachCounter("opendesc_dev_unrouted_total", "packets whose deparser decisions took no enumerated path", &d.unrouted, base...)
	for i := range d.routes {
		labels := append(append([]obs.Label{}, base...), obs.L("path", strconv.Itoa(d.paths[i].ID)))
		reg.AttachCounterFunc("opendesc_dev_path_completions_total", "completions emitted per deparser path", d, func() uint64 { return d.completions(i) }, labels...)
	}
	for slot, e := range engines {
		labels := append(append([]obs.Label{}, base...), obs.L("semantic", string(e.Semantic())))
		reg.AttachCounterFunc("opendesc_dev_offload_invocations_total", "offload-engine invocations per semantic", d, func() uint64 { return d.offloads(slot) }, labels...)
	}
	r := d.CmptRing
	rl := append(append([]obs.Label{}, base...), obs.L("ring", "cmpt"))
	reg.CounterFunc("opendesc_ring_produced_total", "entries published to the ring", func() uint64 { return r.Stats().Produced }, rl...)
	reg.CounterFunc("opendesc_ring_consumed_total", "entries released from the ring", func() uint64 { return r.Stats().Consumed }, rl...)
	reg.CounterFunc("opendesc_ring_full_stalls_total", "rejected produce attempts (ring full)", func() uint64 { return r.Stats().FullStalls }, rl...)
	reg.CounterFunc("opendesc_ring_empty_stalls_total", "failed consume attempts (ring empty)", func() uint64 { return r.Stats().EmptyStalls }, rl...)
	reg.GaugeFunc("opendesc_ring_occupancy", "instantaneous ring fill level (entries)", func() int64 { return int64(r.Occupancy()) }, rl...)
	reg.GaugeFunc("opendesc_ring_occupancy_highwater", "largest ring occupancy observed", func() int64 { return int64(r.Stats().HighWater) }, rl...)
	reg.GaugeFunc("opendesc_ring_capacity", "ring capacity (entries)", func() int64 { return int64(r.Capacity()) }, rl...)
}

// RxPacket makes the device receive one packet from the wire: it takes the
// deparser's decisions under the programmed context, writes the leaf path's
// plan — running the offload engines both ask for — and DMAs the completion
// record.
// It returns false when the packet is dropped, as hardware would: the device
// is wedged, the frame is longer than bufSize, or the completion ring is full
// — each refused before any engine runs — or its decisions lead off every
// enumerated path (counted apart, as Unrouted).
//
// A packet on the flight sampling grid reads the flight clock once, at the
// DMA: its emit, its ring push and the receive queue's Rx stamp (Stamp) all
// carry that reading. The bookkeeping is one add to the route's hits and one
// to the bytes received; whatever differs from the route is tallied apart.
func (d *Device) RxPacket(packet []byte) bool {
	// seq is this packet's 1-based count, matching the driver's Rx sequence.
	seq := d.seq + 1
	if d.faults != nil && d.faults.Tick() {
		// Wedged: refused outright, stamped with the last accepted packet's seq.
		d.hangDrops.Inc()
		d.drops.Inc()
		d.fq.Record(flight.EvHangDrop, seq-1, 0, 0)
		return false
	}
	if len(packet) > bufSize || !d.CmptRing.HasRoom() {
		d.drops.Inc()
		return false
	}
	if d.cfg.Clock != nil {
		d.clock = d.cfg.Clock.Now()
	} else {
		d.clock += timestampStep
	}

	d.packet, d.parsed, d.have = packet, false, fixedSlots
	path, err := d.route(d)
	if err != nil || d.routes[path].size > len(d.cmptBuf) {
		if err == errUnrouted {
			d.unrouted.Inc()
		}
		d.drops.Inc()
		d.countApart(-1, 0)
		return false
	}
	// The plan: the record is cleared, then each slot it carries written.
	r := &d.routes[path]
	clear(d.cmptBuf[:r.size])
	for _, w := range d.plan[r.start:r.end] {
		bitfield.Write(d.cmptBuf, int(w.off), int(w.width), d.val(int(w.slot)))
	}
	rec, extra := d.faults.Completion(d.cmptBuf[:r.size])
	var ts uint64
	if flight.Sampled(seq) {
		ts = d.fq.Now()
	}
	if rec != nil && !d.CmptRing.PushT(rec, ts) {
		d.drops.Inc()
		d.countApart(-1, 0)
		return false
	}
	d.seq, d.stamp = seq, ts
	d.rxBytes.Add(uint64(len(packet)))
	if rec == nil {
		// Injected completion loss: the device believes the packet completed
		// (it was counted), but no record reaches the host — the
		// pending/completion desync the driver must resynchronize from.
		d.lostCmpts.Inc()
		d.countApart(-1, 0)
		if ts == 0 {
			ts = d.fq.Now()
		}
		d.fq.RecordT(ts, flight.EvDMALost, seq, uint64(r.size), 0)
		return true
	}
	if extra != nil {
		// Injected duplicate: best-effort second publish (a full ring just
		// swallows the duplicate, as real hardware would).
		d.CmptRing.Push(extra)
	}
	if len(rec) == r.size && r.set.Load() == d.have&^fixedSlots|setValid {
		r.hits.Add(1)
	} else {
		d.countApart(path, len(rec))
	}
	// Routine emits are sampled (flight.SamplePeriod); anomalies above are
	// always recorded.
	if ts != 0 {
		d.fq.RecordT(ts, flight.EvDMAEmit, seq, uint64(len(rec)), uint64(path+1))
	}
	return true
}

// countApart counts the packet just received apart from its route's hits: a
// completion of size bytes on path, or, with path -1, a packet that
// completed nowhere, tallied only if an engine ran for it. A route's first
// completion of its own size stores the route's engine set and hits.
func (d *Device) countApart(path, size int) {
	set := d.have&^fixedSlots | setValid
	if path < 0 && set == setValid {
		return
	}
	if path >= 0 {
		if r := &d.routes[path]; size == r.size && r.set.Load() == 0 {
			r.set.Store(set)
			r.hits.Add(1)
			return
		}
	}
	var rows []*tally
	if p := d.apart.Load(); p != nil {
		rows = *p
	}
	for _, t := range rows {
		if t.path == path && t.size == size && t.set == set {
			t.n.Add(1)
			return
		}
	}
	t := &tally{path: path, size: size, set: set}
	t.n.Store(1)
	rows = append(rows[:len(rows):len(rows)], t)
	d.apart.Store(&rows)
}

// Stamp returns the flight clock reading the last accepted packet was
// recorded at: non-zero when it fell on the sampling grid with recording on.
// A receive queue whose grid agrees takes it as the packet's Rx stamp.
func (d *Device) Stamp() uint64 { return d.stamp }

// InjectFaults attaches a fault-injection layer; nil detaches it. The
// injector is consulted from the device datapath goroutine on every RX,
// control-channel and reset operation. An already-attached flight queue is
// propagated so injected faults show up in the event stream.
func (d *Device) InjectFaults(inj *faults.Injector) {
	d.faults = inj
	if inj != nil && d.fq != nil {
		inj.AttachFlight(d.fq)
	}
}

// AttachFlight wires the device, its completion ring, and any attached fault
// injector to a flight-recorder queue. Attach before the datapath starts.
func (d *Device) AttachFlight(q *flight.Queue) {
	d.fq = q
	d.CmptRing.AttachFlight(q)
	if d.faults != nil {
		d.faults.AttachFlight(q)
	}
}

// Faults returns the attached injector (nil on a healthy device).
func (d *Device) Faults() *faults.Injector { return d.faults }

// Hung reports whether the device is currently wedged.
func (d *Device) Hung() bool { return d.faults.Hung() }

// TickClock advances the device's internal fault clock without submitting
// work — the discrete-time stand-in for wall time elapsing while a host
// backs off from a wedged device (a hang burst can only drain while the
// clock runs).
func (d *Device) TickClock() {
	if d.faults != nil {
		d.faults.Tick()
	}
}

// Reset models a full device reset: the completion ring is emptied and the
// context registers are cleared, so the host must re-ApplyConfig before the
// device resolves a completion path again. While a hang burst is still
// running the device stays unresponsive and the reset fails.
func (d *Device) Reset() error {
	if d.faults != nil && !d.faults.TryReset() {
		d.resetFails.Inc()
		return fmt.Errorf("nicsim %s: reset refused: %w", d.Model.Name, ErrDeviceHang)
	}
	d.CmptRing.Reset()
	clear(d.vals[slotReg:])
	d.written = 0
	d.resets.Inc()
	d.fq.Record(flight.EvDevReset, uint32(d.resets.Load()), 0, 0)
	return nil
}

// val returns a slot's value for the packet being received, running its
// engine on first use.
func (d *Device) val(slot int) uint64 {
	if d.have&(1<<slot) == 0 {
		d.have |= 1 << slot
		d.vals[slot] = d.engine(slot)
	}
	return d.vals[slot]
}

// engine runs one offload engine over the packet being received: the length
// and the clock are the device's own; every other engine is its row of the
// reference table (softnic), read on the frame the device parsed — on a
// frame the parser rejects, the row states the value.
func (d *Device) engine(slot int) uint64 {
	switch slot {
	case slotPktLen:
		return uint64(len(d.packet))
	case slotTimestamp:
		return d.clock
	}
	ref := engines[slot]
	if ref.Packet() && !d.parsed {
		d.parsed, d.parseOK = true, pkt.Decode(d.packet, &d.info) == nil
	}
	return ref.Eval(&d.info, d.parseOK, d.cfg.QueueID)
}

// Lookup implements sema.Env for the deparser's conditions: a leaf reads its
// slot, a metadata field its engine's value for the packet being received.
// A register never written is unset, so a device nobody programmed refuses
// every frame at its first decision on one.
func (d *Device) Lookup(path string) (sema.Value, bool) {
	i := d.graph.Leaf(path)
	if i < 0 {
		return sema.Value{}, false
	}
	l, s := &d.graph.Leaves[i], d.slots[i]
	if l.Context && d.written&(1<<s) == 0 {
		return sema.Value{}, false
	}
	return l.Value(d.val(int(s))), true
}

// route takes the decisions of the tree under env, down to a leaf, and
// returns its path's index.
func (d *Device) route(env sema.Env) (int, error) {
	info := d.graph.Info()
	t := d.tree[0]
	for t > 0 {
		e, err := decide(d.graph.Nodes[d.tree[t]], env, info)
		if err != nil {
			return 0, err
		}
		t = d.tree[int(t)+1+e]
	}
	if t == 0 {
		return 0, errUnrouted
	}
	return int(^t), nil
}

// decide evaluates a branch or switch vertex under the concrete env and
// returns the index of the successor edge it takes.
func decide(node *core.Node, env sema.Env, info *sema.Info) (int, error) {
	if node.Kind == core.NodeBranch {
		// Its edges are then and else (core.BuildGraph).
		v, err := info.Eval(node.Cond, env)
		if err != nil || v.Truthy() {
			return 0, err
		}
		return 1, nil
	}
	tag, err := info.Eval(node.Tag, env)
	if err != nil {
		return 0, fmt.Errorf("nicsim: switch tag: %w", err)
	}
	// Every deparser switch has a default edge: its own, or core.BuildGraph's
	// implicit no-match one.
	def := 0
	for i, e := range node.Succs {
		for _, cv := range e.CaseVals {
			if cv.Equal(tag) {
				return i, nil
			}
		}
		if e.IsDefault {
			def = i
		}
	}
	return def, nil
}
