package fleet

import (
	"fmt"

	"opendesc/internal/core"
	"opendesc/internal/fleet/telemetry"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
	"opendesc/internal/obs"
	"opendesc/internal/obs/flight"
	"opendesc/internal/rxpath"
	"opendesc/internal/semantics"
	"opendesc/internal/vclock"
)

// HostOptions tunes one simulated fleet host.
type HostOptions struct {
	// RingEntries sizes the completion ring (default 256).
	RingEntries int
	// Clock is the host's timeline (trial leases are measured on it);
	// nil selects the wall clock.
	Clock vclock.Clock
}

func (o HostOptions) withDefaults() HostOptions {
	if o.RingEntries <= 0 {
		o.RingEntries = 256
	}
	if o.Clock == nil {
		o.Clock = vclock.Wall()
	}
	return o
}

// Per-delivery service cost model, charged to the host's (virtual) clock and
// observed into the serving layout's latency histogram. The constants mirror
// the measured shape of the real datapath — a fixed poll/validate base plus
// per-accessor reads, where a SoftNIC shim fallback costs an order of
// magnitude more than a synthesized hardware read (EXPERIMENTS.md E4). They
// exist so p99 poll→deliver latency is a *deterministic* function of the
// layout: a tampered description that silently demotes hardware reads to
// shims shifts the histogram by whole log2 buckets, which is exactly the
// signal the evidence bake gates on.
const (
	deliverBaseNs = 40
	hwReadNs      = 15
	softReadNs    = 440
)

// layout is one installed interface generation: the compiled result, the
// lane packets are read under while it serves (its Owner is the layout), the
// modelled per-delivery service cost, and the latency histogram deliveries
// under it feed (the telemetry report's deliver_ns series).
type layout struct {
	gen    uint64
	res    *core.Result
	lane   *rxpath.Lane
	costNs uint64
	hist   *obs.Histogram
}

func (h *Host) newLayout(gen uint64, res *core.Result) *layout {
	l := &layout{gen: gen, res: res, hist: obs.NewHistogram(), costNs: deliverBaseNs}
	// A host's queue is never hardened: Link synthesizes no validator and
	// cannot fail.
	l.lane, _ = h.q.Link(res)
	l.lane.Owner = l
	for _, a := range res.Accessors {
		if a.Hardware {
			l.costNs += hwReadNs
		} else {
			l.costNs += softReadNs
		}
	}
	return l
}

// Health is the host's self-reported canary health: the S23 invariant
// oracles, embedded in the datapath, are the health check.
type Health struct {
	// Gen is the serving generation; Trial reports an uncommitted trial.
	Gen   uint64
	Trial bool
	// Accepted/Delivered are cumulative exactly-once conservation counts.
	Accepted  uint64
	Delivered uint64
	// Garbage counts golden-metadata oracle violations (reads that
	// disagreed with the SoftNIC ground truth) and OrderViolations
	// exactly-once/FIFO breaks. Detail describes the first violation.
	Garbage         uint64
	OrderViolations uint64
	Detail          string
	// LeaseReverts counts trials the host unilaterally rolled back to its
	// last-known-good layout after the controller went silent.
	LeaseReverts uint64
}

// Host is one simulated fleet member: a NIC device, a serving layout, and
// the control surface a controller drives over its Link. Hosts are
// single-threaded by the chaos discipline (the scheduler interleaves,
// never overlaps, operations); the data plane (Rx/Poll) works regardless
// of control-plane reachability — a partitioned host keeps serving on its
// last-known-good layout.
type Host struct {
	Name  string
	Model *nic.Model

	// q is the host's receive queue, stamping grid packets on the host clock.
	q   *rxpath.Queue
	clk vclock.Clock

	// lkg is the last-known-good layout: the newest committed generation.
	// trial is an uncommitted rollout generation being baked; it serves
	// until commit (promote), abort (rollback), or lease expiry (controller
	// silence), whichever comes first — expiry reverts to lkg.
	lkg         *layout
	trial       *layout
	trialExpiry uint64

	fifo rxpath.FIFO

	accepted, delivered, rejected uint64
	garbage, orderViol            uint64
	garbageByGen                  map[uint64]uint64
	detail                        string
	leaseReverts                  uint64
	applyRetries                  uint64

	// rec/fq are the host flight recorder and its event ring: anomaly
	// events the telemetry report carries verbatim, sampled routine
	// lifecycle events, and control-plane transitions — all stamped with
	// the host's (virtual) clock so fleet traces share one timeline.
	rec *flight.Recorder
	fq  *flight.Queue

	telemetrySeq    uint64
	describeMutator func(*Description)
	// telemetryMutator models a host shipping forged telemetry (the
	// reports re-seal, so only the controller's counter cross-check can
	// catch them).
	telemetryMutator func(*telemetry.Report)
}

// NewHost boots a host: device from the bundled model, self-provisioned
// boot layout compiled locally (a NIC is serviceable before any controller
// finds it).
func NewHost(name string, m *nic.Model, opts HostOptions) (*Host, error) {
	opts = opts.withDefaults()
	dev, err := nicsim.New(m, nicsim.Config{RingEntries: opts.RingEntries})
	if err != nil {
		return nil, err
	}
	// ~40 KB per host; telemetry reports are built from it.
	rec := flight.NewRecorder(flight.Config{Size: 1024})
	h := &Host{
		Name:         name,
		Model:        m,
		clk:          opts.Clock,
		garbageByGen: make(map[uint64]uint64),
		rec:          rec,
		fq:           rec.Queue(name),
	}
	// The boot intent is pkt_len — satisfiable on every description. Whatever
	// the controller later provisions or promotes replaces it as the
	// last-known-good layout.
	intent, err := core.IntentFromSemantics("boot", semantics.Default, semantics.PktLen)
	if err != nil {
		return nil, err
	}
	res, err := m.Compile(intent, core.CompileOptions{})
	if err != nil {
		return nil, fmt.Errorf("fleet host %s: boot compile: %w", name, err)
	}
	if h.q, err = rxpath.New(dev, res.Config, h.clk); err != nil {
		return nil, fmt.Errorf("fleet host %s: boot apply: %w", name, err)
	}
	h.lkg = h.newLayout(0, res)
	h.q.SetLane(0, h.lkg.lane)
	return h, nil
}

// Describe answers the discovery handshake. The optional mutator models a
// rogue or corrupted publisher (quarantine-path coverage in tests and the
// demo); an honest host publishes exactly its model.
func (h *Host) Describe() (*Description, error) {
	d, err := Describe(h.Model, h.Name)
	if err != nil {
		return nil, err
	}
	if h.describeMutator != nil {
		h.describeMutator(d)
	}
	return d, nil
}

// SetDescribeMutator installs the rogue-publisher hook.
func (h *Host) SetDescribeMutator(fn func(*Description)) { h.describeMutator = fn }

// active returns the serving layout: the trial while one is baking, the
// last-known-good otherwise.
func (h *Host) active() *layout {
	if h.trial != nil {
		return h.trial
	}
	return h.lkg
}

// Generation reports the serving generation.
func (h *Host) Generation() uint64 { return h.active().gen }

// CommittedGeneration reports the last-known-good generation.
func (h *Host) CommittedGeneration() uint64 { return h.lkg.gen }

// tick enforces the trial lease: a trial the controller neither committed
// nor aborted within its lease (partition, crash, mid-rollout abort lost
// in transit) is unilaterally reverted — the host degrades to its
// last-known-good layout rather than serving an unproven interface
// indefinitely.
func (h *Host) tick() {
	if h.trial != nil && h.clk.Now() >= h.trialExpiry {
		if h.revertToLKG() == nil {
			h.leaseReverts++
		}
	}
}

// Rx offers one packet to the device; false means ring backpressure.
func (h *Host) Rx(pkt []byte) bool {
	h.tick()
	seq := uint32(h.accepted + h.rejected + 1)
	now := h.clk.Now()
	if !h.q.Rx(pkt, 0) {
		h.rejected++
		h.fq.RecordT(now, flight.EvRingFull, seq, uint64(h.q.Live()), 0)
		return false
	}
	h.fifo.Push(pkt)
	h.accepted++
	if flight.Sampled(seq) {
		h.fq.RecordT(now, flight.EvRingPush, seq, uint64(h.q.Live()), 0)
	}
	return true
}

// Poll delivers available completions, running the embedded oracles on
// every delivery. Returns the number delivered.
func (h *Host) Poll() int {
	h.tick()
	return h.q.Poll(-1, h.deliver)
}

// deliver checks one delivery against the S23 oracle family: exactly-once
// in order (rxpath.FIFO) and golden metadata (every read of the layout
// equals what rxpath.Want expects of it). The
// layout's modelled service cost is charged to the host clock and observed
// into its latency histogram; oracle violations are recorded as flight
// anomalies so telemetry reports can cite them verbatim.
//
// EvDeliver rides the flight sampling grid (plus every anomalous delivery):
// the latency evidence the controller gates on is the always-on per-packet
// histogram, so sampling only thins the verbatim exhibit events — and keeps
// the telemetry instrumentation tax inside the recorder's 5% hot-path
// budget (E21 measures and enforces it). The queue stamps Rx on the same
// grid, so an anomalous delivery off it has no stamp and its event carries a
// DMA→poll of 0 — what a facade driver's deliver event carries off the grid
// too; its poll→deliver is then the layout's service cost alone.
func (h *Host) deliver(pkt []byte, m rxpath.Meta) {
	d := rxpath.Of(m)
	lay, rxNs := d.Lane.Owner.(*layout), d.TS
	pollNs := h.clk.Now()
	h.clk.Advance(lay.costNs)
	now := h.clk.Now()
	seq := uint32(h.delivered + 1)
	anomalous := false
	if !h.fifo.Pop(pkt) {
		h.orderViol++
		anomalous = true
		h.note(fmt.Sprintf("gen %d: delivery out of order or duplicated", lay.gen))
		h.fq.RecordT(now, flight.EvOrderViol, seq, 0, lay.gen)
	}
	for _, r := range d.RT.Readers {
		want, ok := rxpath.Want(m, string(r.Semantic))
		if !ok || !r.Linked() {
			continue
		}
		if got := r.Read(d.Rec, pkt); got != want {
			h.garbage++
			h.garbageByGen[lay.gen]++
			anomalous = true
			h.note(fmt.Sprintf("gen %d: read %s = %#x, ground truth %#x", lay.gen, r.Semantic, got, want))
			h.fq.RecordT(now, flight.EvGarbage, seq, flight.PackName(string(r.Semantic)), lay.gen)
		}
	}
	h.delivered++
	lay.hist.Observe(lay.costNs)
	if anomalous || flight.Sampled(seq) {
		var pollLat uint64
		if rxNs > 0 && pollNs > rxNs {
			pollLat = pollNs - rxNs
		}
		h.fq.RecordT(now, flight.EvDeliver, seq, pollLat, pollLat+lay.costNs)
	}
}

func (h *Host) note(detail string) {
	if h.detail == "" {
		h.detail = detail
	}
}

// reprogram moves the device to res's configuration: park in-flight traffic
// under the serving layout so none crosses the boundary, then apply, verify
// and on failure restore.
func (h *Host) reprogram(res *core.Result) error {
	h.q.Drain()
	return h.q.Reprogram(res.Config, res.Selected.Path.ID, func(int, error) { h.applyRetries++ })
}

// ApplyTrial installs an uncommitted rollout generation: drain under the
// current layout, program the device, verify the active path, then serve
// on the trial under a lease. On any failure the previous configuration is
// restored and the host stays on its current layout.
func (h *Host) ApplyTrial(gen uint64, res *core.Result, leaseNs uint64) error {
	h.tick()
	if h.trial != nil {
		return fmt.Errorf("fleet host %s: trial gen %d still open", h.Name, h.trial.gen)
	}
	if err := h.reprogram(res); err != nil {
		return fmt.Errorf("fleet host %s: apply gen %d: %w", h.Name, gen, err)
	}
	now := h.clk.Now()
	h.fq.RecordT(now, flight.EvApply, uint32(gen), 0, gen)
	h.fq.RecordT(now, flight.EvVerify, uint32(gen), 0, gen)
	h.trial = h.newLayout(gen, res)
	h.q.SetLane(0, h.trial.lane)
	h.trialExpiry = now + leaseNs
	return nil
}

// Commit promotes the trial to last-known-good (no reconfiguration: the
// trial is already serving).
func (h *Host) Commit(gen uint64) error {
	h.tick()
	if h.trial == nil || h.trial.gen != gen {
		return fmt.Errorf("fleet host %s: no open trial for gen %d", h.Name, gen)
	}
	h.fq.RecordT(h.clk.Now(), flight.EvSwap, uint32(gen), 0, gen)
	h.lkg = h.trial
	h.trial = nil
	h.trialExpiry = 0
	return nil
}

// Abort rolls the trial back to the last-known-good layout. Aborting a
// trial that already lease-reverted (or never applied) succeeds as a
// no-op: the rollback goal state is already true.
func (h *Host) Abort(gen uint64) error {
	h.tick()
	if h.trial == nil || h.trial.gen != gen {
		return nil
	}
	return h.revertToLKG()
}

// revertToLKG drains in-flight traffic under the trial, restores the
// last-known-good configuration, and drops the trial.
func (h *Host) revertToLKG() error {
	gen := h.trial.gen
	if err := h.reprogram(h.lkg.res); err != nil {
		return fmt.Errorf("fleet host %s: revert: %w", h.Name, err)
	}
	h.fq.RecordT(h.clk.Now(), flight.EvRollback, uint32(gen), 0, gen)
	h.q.SetLane(0, h.lkg.lane)
	h.trial = nil
	h.trialExpiry = 0
	return nil
}

// Health reports the embedded-oracle counters (the canary health check).
// Like every control RPC it first enforces the lease, so a host whose
// trial expired reports itself back on last-known-good.
func (h *Host) Health() Health {
	h.tick()
	return Health{
		Gen:             h.active().gen,
		Trial:           h.trial != nil,
		Accepted:        h.accepted,
		Delivered:       h.delivered,
		Garbage:         h.garbage,
		OrderViolations: h.orderViol,
		Detail:          h.detail,
		LeaseReverts:    h.leaseReverts,
	}
}

// GarbageByGen exposes per-generation golden-oracle violation counts, so a
// harness can attribute garbage to the (known-bad) trial generation that
// produced it and flag anything else as a real failure.
func (h *Host) GarbageByGen() map[uint64]uint64 {
	out := make(map[uint64]uint64, len(h.garbageByGen))
	for g, n := range h.garbageByGen {
		out[g] = n
	}
	return out
}

// TelemetryReport builds the host's next telemetry report: cumulative
// counters, the serving layout's latency histogram, and the flight-ring
// evidence (anomalies verbatim, slowest deliveries as exhibits). Seq is
// monotonic per host; the controller rejects non-advancing sequences.
func (h *Host) TelemetryReport() *telemetry.Report {
	h.tick()
	h.telemetrySeq++
	lay := h.active()
	anoms, slowest, trunc := telemetry.FromFlight(h.rec.Snapshot(), 0)
	r := &telemetry.Report{
		Host:  h.Name,
		NIC:   h.Model.Name,
		Seq:   h.telemetrySeq,
		NowNs: h.clk.Now(),
		Gen:   lay.gen,
		Trial: h.trial != nil,
		Counters: telemetry.Counters{
			Accepted:        h.accepted,
			Delivered:       h.delivered,
			Garbage:         h.garbage,
			OrderViolations: h.orderViol,
			LeaseReverts:    h.leaseReverts,
		},
		Deliver:   lay.hist.Snapshot(),
		Anomalies: anoms,
		Truncated: trunc,
		Slowest:   slowest,
	}
	if h.telemetryMutator != nil {
		h.telemetryMutator(r)
	}
	return r
}

// Telemetry builds, seals, and serializes the next report — what actually
// crosses the Link. A mutated (forged) report re-seals with a valid digest:
// integrity checks pass and only the controller's counter cross-check can
// expose it, which is the point.
func (h *Host) Telemetry() ([]byte, error) {
	r := h.TelemetryReport()
	b, err := r.Encode()
	if err != nil {
		return nil, fmt.Errorf("fleet host %s: telemetry: %w", h.Name, err)
	}
	h.fq.RecordT(h.clk.Now(), flight.EvTelemetry, uint32(r.Seq), uint64(len(b)), 0)
	return b, nil
}

// SetTelemetryMutator installs the forged-telemetry hook (chaos and test
// coverage for the controller's cross-check).
func (h *Host) SetTelemetryMutator(fn func(*telemetry.Report)) { h.telemetryMutator = fn }

// FlightSnapshot copies the host's full flight ring.
func (h *Host) FlightSnapshot() *flight.Snapshot { return h.rec.Snapshot() }

// DeliverCostNs reports the serving layout's modelled per-delivery service
// cost (deterministic; tests and experiments pin budgets against it).
func (h *Host) DeliverCostNs() uint64 { return h.active().costNs }

// PendingCount reports packets accepted but not yet delivered.
func (h *Host) PendingCount() int { return h.q.Pending() }

// Rejected reports ring-backpressure rejections.
func (h *Host) Rejected() uint64 { return h.rejected }

// ApplyRetries reports NAKed/retried config bursts (zero without faults).
func (h *Host) ApplyRetries() uint64 { return h.applyRetries }
