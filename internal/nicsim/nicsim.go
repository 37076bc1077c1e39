// Package nicsim simulates a NIC whose descriptor interface is defined by an
// OpenDesc P4 description. The simulated device *executes the same
// declarative contract the compiler analyzes*: per received packet it walks
// the completion deparser's control-flow graph under the programmed context
// registers and DMAs the serialized completion record into a completion ring
// — so the layouts the compiler derives and the bytes the device emits are
// validated against each other end-to-end.
//
// The DMA modelled is the completion record, into a ring whose stride is the
// description's largest Size(p) in whole 8-byte words. Packet bytes reach the
// host by reference; a 2 KiB frame buffer (bufSize) is the frame-size check.
//
// What is fixed is decided when the device is built: the ring stride, and
// every field an emit vertex commits, resolved once, in New, to an offload
// slot and a width.
// What is left per packet is the walk itself and the offload engines — each
// slot's row of softnic's reference table, the value every shim and oracle
// reads too — each of which runs on first use: a layout that does not carry
// a semantic (and no branch condition that reads it) never computes it.
package nicsim

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"errors"

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

	// ctx holds the context registers (the implicit control channel of the
	// paper's Fig. 2), keyed by dotted path, e.g. "ctx.use_rss".
	ctx map[string]sema.Value

	// CmptRing receives the serialized completion records (stride: see New).
	CmptRing *ring.Ring

	clock uint64

	// Ethtool-style device counters (atomic: the RX path runs on one
	// goroutine, but stats may be scraped from another at any time).
	rxPackets obs.Counter
	rxBytes   obs.Counter
	drops     obs.Counter
	cmptBytes obs.Counter
	// pathHits counts completions per enumerated path (index into paths).
	pathHits []obs.Counter
	// offloads counts, per slot, the packets its engine ran for.
	offloads [nSlots]obs.Counter
	// curPath caches the index of the path the current context selects;
	// −1 means "recompute on next packet" (set by WriteReg).
	curPath atomic.Int32

	// faults, when non-nil, is the fault-injection layer consulted on every
	// DMA/completion and control-channel operation.
	faults *faults.Injector
	// fq, when attached, receives device-side flight-recorder events (DMA
	// emit, hang drops, resets). Nil by default.
	fq *flight.Queue
	// Fault-path counters (all zero on a healthy device).
	cfgNAKs    obs.Counter // ApplyConfig bursts refused (wedge or NAK)
	hangDrops  obs.Counter // packets refused while the device was wedged
	lostCmpts  obs.Counter // completions dropped by injection (host-visible desync)
	resets     obs.Counter // device resets that took effect
	resetFails obs.Counter // reset attempts refused while wedged

	// emits holds, per CFG node ID, where each field the node emits comes
	// from.
	emits [][]fieldSrc

	// Per-packet state: the frame, its lazily parsed headers, and the slot
	// values computed so far (bit s of have set: vals[s] is this packet's).
	packet  []byte
	info    pkt.Info
	parsed  bool
	parseOK bool
	have    uint32
	vals    [nSlots + 1]uint64
	cmptBuf []byte
}

// Offload slots: one per semantic the simulated engines can compute.
const (
	slotPktLen = iota
	slotTimestamp
	slotQueueID
	slotMark
	slotCryptoCtx
	slotLROSegs
	slotSegCnt
	slotRXDropHint
	slotErrorFlags
	slotRSS
	slotIPChecksum
	slotL4Checksum
	slotVLAN
	slotPType
	slotFlowID
	slotIPID
	slotKVKey
	slotPayloadHash
	slotTunnelID
	slotL4Port
	slotDecapFlag
	slotChecksumAny
	slotParserDepth
	nSlots

	// slotZero always reads 0: padding, untagged fields and semantics no
	// engine computes.
	slotZero = nSlots
	// slotCtx marks an emitted field of the context parameter, read from the
	// context registers by name.
	slotCtx = nSlots + 1
)

// offloadSemantics names each slot's semantic.
var offloadSemantics = [nSlots]semantics.Name{
	slotPktLen: semantics.PktLen, slotTimestamp: semantics.Timestamp, slotQueueID: semantics.QueueID,
	slotMark: semantics.Mark, slotCryptoCtx: semantics.CryptoCtx, slotLROSegs: semantics.LROSegs,
	slotSegCnt: semantics.SegCnt, slotRXDropHint: semantics.RXDropHint, slotErrorFlags: semantics.ErrorFlags,
	slotRSS: semantics.RSS, slotIPChecksum: semantics.IPChecksum, slotL4Checksum: semantics.L4Checksum,
	slotVLAN: semantics.VLAN, slotPType: semantics.PType, slotFlowID: semantics.FlowID, slotIPID: semantics.IPID,
	slotKVKey: semantics.KVKey, slotPayloadHash: semantics.PayloadHash, slotTunnelID: semantics.TunnelID,
	slotL4Port: semantics.L4Port, slotDecapFlag: semantics.DecapFlag, slotChecksumAny: semantics.ChecksumAny,
	slotParserDepth: semantics.ParserDepth,
}

// refs holds each slot's row of the reference table.
var refs = func() (r [nSlots]*softnic.Row) {
	for slot, s := range offloadSemantics {
		r[slot] = softnic.Lookup(s)
	}
	return r
}()

// fieldSrc says where a field's value comes from: an offload slot (or
// slotZero, slotCtx) and the field's width in bits. Fields wider than 64 bits
// are padding.
type fieldSrc struct{ slot, width int }

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
	// window); a path over the cap fails in serializeCompletion.
	stride := 8
	for _, p := range paths {
		stride = min(max(stride, (p.SizeBytes()+7)&^7), maxCompletionBytes)
	}
	d := &Device{
		Model:    m,
		cfg:      cfg,
		graph:    g,
		paths:    paths,
		ctx:      make(map[string]sema.Value),
		CmptRing: ring.MustNew(stride, cfg.RingEntries),
		cmptBuf:  make([]byte, stride),
		pathHits: make([]obs.Counter, len(paths)),
	}
	d.curPath.Store(-1)
	// One backing slice for every emit vertex's fields, cut up by node ID.
	n := 0
	for _, node := range g.Nodes {
		if node.Kind == core.NodeEmit {
			n += len(node.Emit.Fields)
		}
	}
	srcs := make([]fieldSrc, 0, n)
	d.emits = make([][]fieldSrc, len(g.Nodes))
	for _, node := range g.Nodes {
		if node.Kind != core.NodeEmit {
			continue
		}
		start := len(srcs)
		for _, f := range node.Emit.Fields {
			src, ok := d.field(f.Name)
			if !ok {
				// Not a metadata leaf: padding, or a context register.
				src = fieldSrc{slot: slotCtx, width: f.WidthBits}
				if f.WidthBits > 64 {
					src.slot = slotZero
				}
			}
			srcs = append(srcs, src)
		}
		d.emits[node.ID] = srcs[start:]
	}
	return d, nil
}

// field resolves a dotted name to the per-packet metadata leaf it names: a
// field of at most 64 bits under one of the deparser's composite parameters.
// The context parameter, identified by convention (ctx-ish name), is the
// struct the control channel programs: its fields are registers. Untagged
// fields and semantics no engine computes read zero.
func (d *Device) field(path string) (src fieldSrc, ok bool) {
	root, rest, _ := strings.Cut(path, ".")
	if strings.Contains(root, "ctx") {
		return
	}
	p := d.graph.Instance().Param(root)
	if p == nil || rest == "" {
		return
	}
	t, sem := p.Type, ""
	for name := ""; rest != ""; {
		name, rest, _ = strings.Cut(rest, ".")
		ct, composite := t.(*sema.CompositeType)
		if !composite {
			return
		}
		f := ct.Field(name)
		if f == nil {
			return
		}
		t, sem = f.Type, f.Semantic
	}
	w := t.BitWidth()
	if _, composite := t.(*sema.CompositeType); composite || w <= 0 || w > 64 {
		return
	}
	slot := slices.Index(offloadSemantics[:], semantics.Name(sem))
	if slot < 0 {
		slot = slotZero
	}
	return fieldSrc{slot: slot, width: w}, true
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
// channel). The path is the dotted name used in the description, e.g.
// "ctx.use_rss".
func (d *Device) WriteReg(path string, v uint64) {
	d.ctx[path] = sema.UintValue(v, 64)
	d.curPath.Store(-1) // context changed: re-resolve the active path lazily
}

// ApplyConfig programs the context registers so the device takes the
// completion path selected by a compilation result. The concrete values are
// resolved by core.ConfigAssignment (equality constraints pin the register,
// disequalities pick the smallest value not excluded). The register-write
// burst fails atomically when the device is wedged or the control channel
// NAKs it (fault injection): no register is written on error.
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
		d.WriteReg(v, val)
	}
	return nil
}

// ActivePath returns the completion path the current context registers
// select, by evaluating each enumerated path's constraints.
func (d *Device) ActivePath() (*core.Path, error) {
	for _, p := range d.paths {
		ok := true
		for _, c := range p.Constraints {
			got := d.ctx[c.Var]
			if c.Equal != got.Equal(c.Val) {
				ok = false
				break
			}
		}
		if ok {
			return p, nil
		}
	}
	return nil, fmt.Errorf("nicsim %s: no completion path matches context %v", d.Model.Name, d.ctx)
}

// DeviceStats is a point-in-time snapshot of a device's ethtool-style
// counters.
type DeviceStats struct {
	// RxPackets counts packets accepted end-to-end (completion DMAed);
	// Drops counts packets rejected anywhere in the RX path.
	RxPackets uint64
	RxBytes   uint64
	Drops     uint64
	// Completions mirrors RxPackets (one completion per accepted packet);
	// CompletionBytes is the total completion-record DMA volume.
	Completions     uint64
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
}

// Stats returns a snapshot of the device counters. Safe to call while
// another goroutine is receiving packets. Maps contain only non-zero
// entries.
func (d *Device) Stats() DeviceStats {
	rx := d.rxPackets.Load()
	st := DeviceStats{
		RxPackets:         rx,
		RxBytes:           d.rxBytes.Load(),
		Drops:             d.drops.Load(),
		Completions:       rx,
		CompletionBytes:   d.cmptBytes.Load(),
		CompletionsByPath: make(map[int]uint64),
		Offloads:          make(map[semantics.Name]uint64),
		Ring:              d.CmptRing.Stats(),
		ConfigNAKs:        d.cfgNAKs.Load(),
		HangDrops:         d.hangDrops.Load(),
		LostCompletions:   d.lostCmpts.Load(),
		Resets:            d.resets.Load(),
		ResetFails:        d.resetFails.Load(),
	}
	for i := range d.pathHits {
		if n := d.pathHits[i].Load(); n > 0 {
			st.CompletionsByPath[d.paths[i].ID] = n
		}
	}
	for slot := range d.offloads {
		if n := d.offloads[slot].Load(); n > 0 {
			st.Offloads[offloadSemantics[slot]] = n
		}
	}
	return st
}

// activePathIndex resolves (and caches) the index of the path the current
// context registers select; −1 when no path matches.
func (d *Device) activePathIndex() int {
	if idx := d.curPath.Load(); idx >= 0 {
		return int(idx)
	}
	p, err := d.ActivePath()
	if err != nil {
		return -1
	}
	for i := range d.paths {
		if d.paths[i] == p {
			d.curPath.Store(int32(i))
			return i
		}
	}
	return -1
}

// RegisterMetrics exposes the device counters (and its completion ring's)
// on an obs registry, labelled with the NIC model name plus any extra
// labels (e.g. the queue id). Idempotent per registry and label set.
func (d *Device) RegisterMetrics(reg *obs.Registry, extra ...obs.Label) {
	base := append([]obs.Label{obs.L("nic", d.Model.Name)}, extra...)
	reg.AttachCounter("opendesc_dev_rx_packets_total", "packets accepted by the simulated device", &d.rxPackets, base...)
	reg.AttachCounter("opendesc_dev_rx_bytes_total", "packet bytes accepted by the simulated device", &d.rxBytes, base...)
	reg.AttachCounter("opendesc_dev_drops_total", "packets dropped in the RX path", &d.drops, base...)
	reg.AttachCounter("opendesc_dev_completion_bytes_total", "completion-record bytes DMAed", &d.cmptBytes, base...)
	reg.AttachCounter("opendesc_dev_config_naks_total", "refused ApplyConfig register-write bursts", &d.cfgNAKs, base...)
	reg.AttachCounter("opendesc_dev_hang_drops_total", "packets refused while the device was wedged", &d.hangDrops, base...)
	reg.AttachCounter("opendesc_dev_lost_completions_total", "completions lost to fault injection", &d.lostCmpts, base...)
	reg.AttachCounter("opendesc_dev_resets_total", "device resets that took effect", &d.resets, base...)
	reg.AttachCounter("opendesc_dev_reset_fails_total", "reset attempts refused while wedged", &d.resetFails, base...)
	for i := range d.pathHits {
		labels := append(append([]obs.Label{}, base...), obs.L("path", strconv.Itoa(d.paths[i].ID)))
		reg.AttachCounter("opendesc_dev_path_completions_total", "completions emitted per deparser path", &d.pathHits[i], labels...)
	}
	for slot, s := range offloadSemantics {
		labels := append(append([]obs.Label{}, base...), obs.L("semantic", string(s)))
		reg.AttachCounter("opendesc_dev_offload_invocations_total", "offload-engine invocations per semantic", &d.offloads[slot], labels...)
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

// RxPacket makes the device receive one packet from the wire: it walks the
// deparser CFG under the programmed context — running the offload engines the
// walk asks for — and DMAs the completion record.
// It returns false when the packet is dropped, as hardware would: the device
// is wedged, the frame is longer than bufSize, or the completion ring is full
// — each refused before any engine runs.
func (d *Device) RxPacket(packet []byte) bool {
	// seq is this packet's 1-based count, matching the driver's Rx sequence.
	seq := uint32(d.rxPackets.Load()) + 1
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

	d.packet, d.parsed, d.have = packet, false, 1<<slotZero
	size, err := d.serializeCompletion(d.cmptBuf)
	if err != nil {
		d.drops.Inc()
		return false
	}
	rec, extra := d.faults.Completion(d.cmptBuf[:size])
	if rec != nil && !d.CmptRing.Push(rec) {
		d.drops.Inc()
		return false
	}
	d.rxPackets.Inc()
	d.rxBytes.Add(uint64(len(packet)))
	if rec == nil {
		// Injected completion loss: the device believes the packet completed
		// (it was counted), but no record reaches the host — the
		// pending/completion desync the driver must resynchronize from.
		d.lostCmpts.Inc()
		d.fq.Record(flight.EvDMALost, seq, uint64(size), 0)
		return true
	}
	if extra != nil {
		// Injected duplicate: best-effort second publish (a full ring just
		// swallows the duplicate, as real hardware would).
		d.CmptRing.Push(extra)
	}
	d.cmptBytes.Add(uint64(len(rec)))
	idx := d.activePathIndex()
	if idx >= 0 {
		d.pathHits[idx].Inc()
	}
	// Routine emits are sampled (flight.SamplePeriod) to stay inside the
	// recorder's hot-path budget; anomalies above are always recorded.
	if flight.Sampled(seq) {
		d.fq.Record(flight.EvDMAEmit, seq, uint64(len(rec)), uint64(idx+1))
	}
	return true
}

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
	d.ctx = make(map[string]sema.Value)
	d.curPath.Store(-1)
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
// and the clock are the device's own; every other slot is its row of the
// reference table (softnic), read on the frame the device parsed — on a
// frame the parser rejects, the row states the value.
func (d *Device) engine(slot int) uint64 {
	d.offloads[slot].Inc()
	switch slot {
	case slotPktLen:
		return uint64(len(d.packet))
	case slotTimestamp:
		return d.clock
	}
	ref := refs[slot]
	if ref.Packet() && !d.parsed {
		d.parsed, d.parseOK = true, pkt.Decode(d.packet, &d.info) == nil
	}
	return ref.Eval(&d.info, d.parseOK, d.cfg.QueueID)
}

// Lookup implements sema.Env for the deparser's conditions: a metadata field
// reads its engine's value for the packet being received, any other name a
// context register. Fields come first: a register written under a field's
// name (as ApplyConfig does for a constraint on per-packet data) does not
// override what the packet says.
func (d *Device) Lookup(path string) (sema.Value, bool) {
	if f, ok := d.field(path); ok {
		return sema.UintValue(d.val(f.slot)&(^uint64(0)>>(64-f.width)), f.width), true
	}
	v, ok := d.ctx[path]
	return v, ok
}

// serializeCompletion walks the deparser CFG for the packet being received,
// writing emitted fields into dst, and returns the completion size in bytes.
func (d *Device) serializeCompletion(dst []byte) (int, error) {
	clear(dst)
	info := d.graph.Info()
	node := d.graph.Entry
	offBits := 0
	steps := 0
	for node.Kind != core.NodeExit {
		if steps++; steps > 10000 {
			return 0, fmt.Errorf("nicsim: deparser walk did not terminate")
		}
		for i, f := range d.emits[node.ID] {
			if offBits+f.width > len(dst)*8 {
				return 0, fmt.Errorf("nicsim: completion exceeds %d bytes", len(dst))
			}
			switch f.slot {
			case slotZero: // dst is already zero
			case slotCtx:
				bitfield.Write(dst, offBits, f.width, d.ctx[node.Emit.Fields[i].Name].Uint)
			default:
				bitfield.Write(dst, offBits, f.width, d.val(f.slot))
			}
			offBits += f.width
		}
		next, err := step(node, d, info)
		if err != nil {
			return 0, err
		}
		node = next
	}
	return (offBits + 7) / 8, nil
}

// step picks the successor edge of a node under the concrete env.
func step(node *core.Node, env sema.Env, info *sema.Info) (*core.Node, error) {
	if len(node.Succs) == 1 && node.Succs[0].Cond == nil && len(node.Succs[0].CaseVals) == 0 && !node.Succs[0].IsDefault {
		return node.Succs[0].To, nil
	}
	switch node.Kind {
	case core.NodeBranch:
		v, err := info.Eval(node.Cond, env)
		if err != nil {
			return nil, fmt.Errorf("nicsim: branch condition: %w", err)
		}
		for _, e := range node.Succs {
			if v.Truthy() != e.Negate {
				return e.To, nil
			}
		}
		return nil, fmt.Errorf("nicsim: no matching branch edge")
	case core.NodeSwitch:
		tag, err := info.Eval(node.Tag, env)
		if err != nil {
			return nil, fmt.Errorf("nicsim: switch tag: %w", err)
		}
		var def *core.Edge
		for _, e := range node.Succs {
			if e.IsDefault {
				def = e
				continue
			}
			for _, cv := range e.CaseVals {
				if cv.Equal(tag) {
					return e.To, nil
				}
			}
		}
		if def != nil {
			return def.To, nil
		}
		return nil, fmt.Errorf("nicsim: switch tag %v matches no case and no default", tag)
	default:
		if len(node.Succs) == 0 {
			return nil, fmt.Errorf("nicsim: dead-end node %d (%s)", node.ID, node.Kind)
		}
		return node.Succs[0].To, nil
	}
}
