// Package tenant is the multi-tenant serving plane (S24): N tenants each
// declare their own metadata intent, the compiler solves the joint Eq. 1
// optimization over all of them at once (core.CompileJoint) to program ONE
// device configuration, and traffic is sharded across a multi-queue device
// by Toeplitz RSS into per-core poll loops with work stealing. Each tenant
// reads metadata through its own accessor/shim split over the shared
// completion layout, with exactly-once in-order delivery per queue.
//
// The plane is the operational shape the paper's conclusion points at: one
// host, many applications, one evolvable metadata interface — a tenant can
// renegotiate its intent live (Renegotiate), and the plane re-solves the
// joint layout without a neighbor losing or reordering a single packet.
package tenant

import (
	"fmt"
	"sync"

	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
	"opendesc/internal/obs"
	"opendesc/internal/pkt"
	"opendesc/internal/rxpath"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/vclock"
	"opendesc/internal/workload"
)

// Spec declares one tenant of the serving plane.
type Spec struct {
	// Name labels the tenant (must be unique within the plane).
	Name string
	// Semantics is the tenant's metadata intent. Tenants weigh equally in
	// the joint Eq. 1 objective.
	Semantics []string
	// Port is the UDP destination port whose traffic belongs to the tenant
	// (zero assigns workload.BasePort + tenant index, the ports
	// workload.ZipfSpec addresses its tenants on).
	Port uint16
}

// Options tunes the plane.
type Options struct {
	// NIC is the device model (default mlx5).
	NIC string
	// Cores is the number of device queues and per-core poll loops
	// (default 4, max 64).
	Cores int
	// RingEntries is the per-queue completion ring depth.
	RingEntries int
	// Clock is the timeline delivery latency is measured on (nil selects
	// the process wall clock; chaos runs inject a virtual clock).
	Clock vclock.Clock
}

func (o Options) withDefaults() Options {
	if o.NIC == "" {
		o.NIC = "mlx5"
	}
	if o.Cores == 0 {
		o.Cores = 4
	}
	return o
}

// stealBatch bounds how many completions an idle core takes from the most
// loaded sibling per poll.
const stealBatch = 16

// queueState is one RSS shard. The mutex serializes the queue's producer
// (Rx) and consumers (owner core + stealing cores) — the completion ring
// itself is SPSC, so stealing must hold the queue lock.
type queueState struct {
	mu sync.Mutex
	q  *rxpath.Queue

	polls     obs.Counter // PollCore invocations that drained this queue
	delivered obs.Counter // deliveries consumed from this queue
	stolen    obs.Counter // deliveries consumed by a non-owner core

	// The poll in progress counts deliveries by tenant here (under mu) and
	// publishes them when it returns; seen lists the non-zero counts, so a
	// one-packet poll does not sweep every configured tenant.
	counts []uint32
	seen   []int
}

// tenantState is one tenant's runtime view: its intent, its port and its
// delivery counters. Its lanes — the accessor/shim split over the shared
// layout, one per shard, swapped under the plane lock on renegotiation — live
// on the queues (link).
type tenantState struct {
	spec   Spec
	intent *core.Intent
	port   uint16

	accepted  obs.Counter
	delivered obs.Counter
	renegs    obs.Counter
	lat       *obs.Histogram // Rx → deliver latency (plane clock)
}

// Plane is the multi-tenant serving plane.
type Plane struct {
	// mu is the config lock: datapath operations (Rx, PollCore) hold it for
	// reading; renegotiation takes it exclusively, which quiesces every
	// queue at once.
	mu sync.RWMutex

	model   *nic.Model
	steer   *softnic.ToeplitzTable // the symmetric key, tabulated
	joint   *core.JointResult
	gen     uint64
	queues  []*queueState
	tenants []*tenantState
	ports   portTable
	clock   vclock.Clock

	renegs       obs.Counter // completed layout switchovers
	fastRenegs   obs.Counter // accessor-only renegotiations (layout kept)
	rollbacks    obs.Counter // switchovers reverted after an apply failure
	drainedPkts  obs.Counter // completions parked across switchovers
	softParked   obs.Counter // drain shortfalls re-read in software
	steals       obs.Counter // stolen delivery batches
	unclassified obs.Counter // packets matching no tenant port
}

// Open compiles the tenants' joint intent, programs one device per core
// with the shared winning configuration, and builds each tenant's accessor
// runtime.
func Open(opts Options, specs ...Spec) (*Plane, error) {
	opts = opts.withDefaults()
	if len(specs) == 0 {
		return nil, fmt.Errorf("tenant: plane needs at least one tenant")
	}
	if opts.Cores < 1 || opts.Cores > 64 {
		return nil, fmt.Errorf("tenant: core count %d out of [1,64]", opts.Cores)
	}
	m, err := nic.Load(opts.NIC)
	if err != nil {
		return nil, err
	}
	p := &Plane{
		model: m,
		// The symmetric key: both directions of a flow land on the same core.
		steer: softnic.NewToeplitzTable(softnic.SymmetricToeplitzKey[:]),
		clock: vclock.Or(opts.Clock),
	}
	for i, s := range specs {
		if s.Name == "" {
			return nil, fmt.Errorf("tenant: tenant %d has no name", i)
		}
		port := s.Port
		if port == 0 {
			port = workload.BasePort + uint16(i)
			s.Port = port
		}
		for _, prev := range p.tenants {
			if prev.port == port {
				return nil, fmt.Errorf("tenant: %s and %s share port %d", prev.spec.Name, s.Name, port)
			}
			if prev.spec.Name == s.Name {
				return nil, fmt.Errorf("tenant: duplicate tenant name %q", s.Name)
			}
		}
		intent, err := intentFor(s.Name, s.Semantics)
		if err != nil {
			return nil, err
		}
		p.tenants = append(p.tenants, &tenantState{
			spec:   s,
			intent: intent,
			port:   port,
			lat:    obs.NewHistogram(),
		})
	}
	p.ports = newPortTable(p.tenants)
	jr, err := m.CompileJoint(p.jointIntents(), core.CompileOptions{})
	if err != nil {
		return nil, err
	}
	for q := 0; q < opts.Cores; q++ {
		dev, err := nicsim.New(m, nicsim.Config{
			RingEntries: opts.RingEntries,
			QueueID:     uint16(q),
			Clock:       opts.Clock,
		})
		if err != nil {
			return nil, err
		}
		q, err := rxpath.New(dev, jr.Config, p.clock)
		if err != nil {
			return nil, err
		}
		p.queues = append(p.queues, &queueState{q: q, counts: make([]uint32, len(specs)), seen: make([]int, 0, len(specs))})
	}
	p.install(jr)
	return p, nil
}

// portTable classifies a UDP destination port: tenant index + 1 by port −
// base, zero where no tenant listens. Dense over the span of the configured
// ports: a cache line or two for consecutive ports, 128 KiB at worst.
type portTable struct {
	base uint16
	idx  []uint16
}

func newPortTable(tenants []*tenantState) portTable {
	lo, hi := tenants[0].port, tenants[0].port
	for _, t := range tenants {
		lo, hi = min(lo, t.port), max(hi, t.port)
	}
	pt := portTable{base: lo, idx: make([]uint16, int(hi-lo)+1)}
	for i, t := range tenants {
		pt.idx[t.port-lo] = uint16(i + 1)
	}
	return pt
}

// lookup returns the tenant listening on port, or -1.
func (pt *portTable) lookup(port uint16) int {
	if off := int(port) - int(pt.base); uint(off) < uint(len(pt.idx)) {
		return int(pt.idx[off]) - 1
	}
	return -1
}

func intentFor(name string, sems []string) (*core.Intent, error) {
	names := make([]semantics.Name, len(sems))
	for i, s := range sems {
		names[i] = semantics.Name(s)
	}
	return core.IntentFromSemantics(name+"_intent", semantics.Default, names...)
}

// jointIntents snapshots the current tenant intents for a joint compile.
func (p *Plane) jointIntents() []core.TenantIntent {
	out := make([]core.TenantIntent, len(p.tenants))
	for i, t := range p.tenants {
		out[i] = core.TenantIntent{Tenant: t.spec.Name, Intent: t.intent}
	}
	return out
}

// install swaps in a joint result's per-tenant lanes. Caller holds the
// write lock (or is Open, pre-publication).
func (p *Plane) install(jr *core.JointResult) {
	p.joint = jr
	for i := range p.tenants {
		p.link(i, jr.PerTenant[i])
	}
	p.gen++
}

// link gives tenant i a lane for res on every queue, linked against that
// queue's device — shard q reads queue_id q. Packets already parked keep the
// lane they were parked with.
func (p *Plane) link(i int, res *core.Result) {
	for _, qs := range p.queues {
		// A plane's queues are never hardened: Link synthesizes no validator
		// and cannot fail.
		l, _ := qs.q.Link(res)
		qs.q.SetLane(i, l)
	}
}

// Cores returns the number of queues / poll loops.
func (p *Plane) Cores() int { return len(p.queues) }

// Joint returns the current joint compilation.
func (p *Plane) Joint() *core.JointResult {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.joint
}

// Generation returns the layout generation (bumped by every renegotiation).
func (p *Plane) Generation() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.gen
}

// Steer computes the RSS shard a decoded packet lands on — exposed so
// harnesses can model the plane's sharding decision.
func (p *Plane) Steer(info *pkt.Info) int {
	return int(p.steer.RSS(info) % uint32(len(p.queues)))
}

// Rx accepts one packet from the wire: classify its tenant by destination
// port, steer it onto an RSS shard, and DMA it into that queue's device. It
// returns false when the packet matches no tenant or the shard's completion
// ring is full.
func (p *Plane) Rx(packet []byte) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var info pkt.Info
	if err := pkt.Decode(packet, &info); err != nil {
		p.unclassified.Inc()
		return false
	}
	ti := p.ports.lookup(info.DstPort)
	if ti < 0 {
		p.unclassified.Inc()
		return false
	}
	q := p.Steer(&info)
	qs := p.queues[q]
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if !qs.q.Rx(packet, uint32(ti)) {
		return false
	}
	p.tenants[ti].accepted.Inc()
	return true
}

// Delivery is one packet handed to a tenant handler inside PollCore.
type Delivery struct {
	// Tenant / Name identify the owning tenant.
	Tenant int
	Name   string
	// Queue is the RSS shard the packet arrived on; Core is the poll loop
	// that delivered it. They differ exactly when the delivery was stolen.
	Queue  int
	Core   int
	Stolen bool
	Pkt    []byte

	m rxpath.Meta
}

// Get reads one semantic for the delivered packet through the tenant's own
// accessor split: a constant-time completion-record load when the shared
// layout carries it, the tenant's SoftNIC shim otherwise. ok is false for
// semantics outside the tenant's compiled intent.
func (d *Delivery) Get(sem string) (uint64, bool) { return d.m.Get(sem) }

// Hardware reports whether the tenant reads the semantic directly from the
// completion record.
func (d *Delivery) Hardware(sem string) bool { return d.m.Hardware(sem) }

// Want is the golden-metadata oracle's expectation of a read of sem: its
// reference value for the packet on the shard's device, under the width of
// the hardware field serving it (rxpath.Want). ok is false when sem is
// outside the tenant's intent or there is nothing to expect.
func (d *Delivery) Want(sem string) (uint64, bool) { return rxpath.Want(d.m, sem) }

// PollCore runs one iteration of core's poll loop: drain the own shard;
// when it is empty, steal a bounded batch from the most loaded sibling.
// Deliveries preserve each queue's FIFO order (parked switchover backlog
// first, then ring completions) regardless of who consumes them.
func (p *Plane) PollCore(core int, h func(Delivery)) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if core < 0 || core >= len(p.queues) {
		return 0
	}
	n := p.pollQueue(core, core, -1, h)
	if n == 0 {
		if victim := p.busiest(core); victim >= 0 {
			n = p.pollQueue(core, victim, stealBatch, h)
			if n > 0 {
				p.steals.Inc()
			}
		}
	}
	return n
}

// busiest picks the steal victim: the queue (≠ self) with the largest
// backlog. Returns -1 when every sibling is idle.
func (p *Plane) busiest(self int) int {
	victim, most := -1, 0
	for q := range p.queues {
		if q == self {
			continue
		}
		qs := p.queues[q]
		qs.mu.Lock()
		backlog := qs.q.Pending()
		qs.mu.Unlock()
		if backlog > most {
			victim, most = q, backlog
		}
	}
	return victim
}

// pollQueue drains up to limit deliveries (negative: unbounded) from queue
// q on behalf of core. Per packet it counts the delivery in the queue's
// scratch and, if the queue stamped it (the sampling grid), observes Rx →
// deliver latency; each tenant's counters are published once, when the poll
// returns. Caller holds p.mu.RLock.
func (p *Plane) pollQueue(core, q, limit int, h func(Delivery)) int {
	qs := p.queues[q]
	qs.mu.Lock()
	defer qs.mu.Unlock()
	stolen := core != q
	n := qs.q.Poll(limit, func(pktB []byte, m rxpath.Meta) {
		d := rxpath.Of(m)
		ti := int(d.Tag)
		t := p.tenants[ti]
		h(Delivery{
			Tenant: ti, Name: t.spec.Name,
			Queue: q, Core: core, Stolen: stolen,
			Pkt: pktB, m: m,
		})
		if qs.counts[ti] == 0 {
			qs.seen = append(qs.seen, ti)
		}
		qs.counts[ti]++
		if d.TS != 0 {
			t.lat.Observe(max(p.clock.Now(), d.TS) - d.TS)
		}
	})
	for _, ti := range qs.seen {
		p.tenants[ti].delivered.Add(uint64(qs.counts[ti]))
		qs.counts[ti] = 0
	}
	qs.seen = qs.seen[:0]
	if n > 0 {
		qs.polls.Inc()
		qs.delivered.Add(uint64(n))
		if stolen {
			qs.stolen.Add(uint64(n))
		}
	}
	return n
}

// Drain polls every core round-robin until the plane is empty; used by
// tests and the experiment tails. Returns total deliveries.
func (p *Plane) Drain(h func(Delivery)) int {
	total := 0
	for {
		n := 0
		for c := range p.queues {
			n += p.PollCore(c, h)
		}
		total += n
		if n == 0 {
			return total
		}
	}
}

// Pending reports packets accepted but not yet delivered (pending + parked
// across all queues).
func (p *Plane) Pending() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for _, qs := range p.queues {
		qs.mu.Lock()
		n += qs.q.Pending()
		qs.mu.Unlock()
	}
	return n
}

// Renegotiate replaces one tenant's intent and re-solves the joint layout
// for the whole plane. The switchover (switchTo) is loss-free for every
// tenant; when the joint optimum keeps the same path, only the renegotiating
// tenant's accessor table is swapped — neighbors are untouched by
// construction.
func (p *Plane) Renegotiate(name string, sems ...string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	ti := -1
	for i, t := range p.tenants {
		if t.spec.Name == name {
			ti = i
			break
		}
	}
	if ti < 0 {
		return fmt.Errorf("tenant: no tenant %q", name)
	}
	intent, err := intentFor(name, sems)
	if err != nil {
		return err
	}
	old := p.tenants[ti].intent
	p.tenants[ti].intent = intent
	jr, err := p.model.CompileJoint(p.jointIntents(), core.CompileOptions{})
	if err != nil {
		p.tenants[ti].intent = old
		return err
	}
	if err := p.switchTo(jr); err != nil {
		p.tenants[ti].intent = old
		return err
	}
	p.tenants[ti].spec.Semantics = append([]string(nil), sems...)
	p.link(ti, p.joint.PerTenant[ti])
	p.tenants[ti].renegs.Inc()
	return nil
}

// switchTo executes the switchover to a new joint result: drain every queue,
// reprogram every queue, swap the lanes. Caller holds the write lock (all
// queues quiesced). When the selected path is unchanged it takes the
// accessor-only fast path: only the renegotiating tenant's lanes change, and
// the caller links them (the shared layout, and therefore every neighbor's
// view, is bit-identical).
func (p *Plane) switchTo(jr *core.JointResult) error {
	if jr.Selected.Path.ID == p.joint.Selected.Path.ID {
		p.joint = jr
		p.gen++
		p.fastRenegs.Inc()
		return nil
	}

	// Drain every queue's in-flight completions into its parked backlog, so
	// later polls still read them under the lanes they were DMAed with.
	for _, qs := range p.queues {
		drained, soft := qs.q.Drain()
		p.drainedPkts.Add(uint64(drained + soft))
		p.softParked.Add(uint64(soft))
	}

	// Reprogram every queue; if one fails (it has rolled itself back), move
	// the queues already switched back to the old configuration.
	old := p.joint
	for i, qs := range p.queues {
		err := qs.q.Reprogram(jr.Config, jr.Selected.Path.ID, nil)
		if err == nil {
			continue
		}
		err = fmt.Errorf("tenant: switchover failed on queue %d: %w", i, err)
		for j := 0; j < i; j++ {
			if rerr := p.queues[j].q.Reprogram(old.Config, old.Selected.Path.ID, nil); rerr != nil {
				return fmt.Errorf("tenant: switchover failed and rollback failed on queue %d: %v (original: %w)", j, rerr, err)
			}
		}
		p.rollbacks.Inc()
		return err
	}

	p.install(jr)
	p.renegs.Inc()
	return nil
}

// TenantStats is one tenant's delivery snapshot.
type TenantStats struct {
	Name      string
	Port      uint16
	Accepted  uint64
	Delivered uint64
	Renegs    uint64
	// P50/P99 are Rx→deliver latency quantiles on the plane clock (ns), over
	// the packets on the flight sampling grid (1 in 16 by queue sequence).
	P50, P99 float64
}

// CoreStats is one queue/poll-loop snapshot.
type CoreStats struct {
	Polls     uint64
	Delivered uint64
	Stolen    uint64
}

// Stats is a point-in-time snapshot of the plane.
type Stats struct {
	Generation   uint64
	Renegs       uint64 // layout switchovers
	FastRenegs   uint64 // accessor-only renegotiations
	Rollbacks    uint64
	Drained      uint64
	SoftParked   uint64
	Steals       uint64
	Unclassified uint64
	Tenants      []TenantStats
	Cores        []CoreStats
}

// Stats snapshots the plane's counters.
func (p *Plane) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st := Stats{
		Generation:   p.gen,
		Renegs:       p.renegs.Load(),
		FastRenegs:   p.fastRenegs.Load(),
		Rollbacks:    p.rollbacks.Load(),
		Drained:      p.drainedPkts.Load(),
		SoftParked:   p.softParked.Load(),
		Steals:       p.steals.Load(),
		Unclassified: p.unclassified.Load(),
	}
	for _, t := range p.tenants {
		snap := t.lat.Snapshot()
		st.Tenants = append(st.Tenants, TenantStats{
			Name: t.spec.Name,
			Port: t.port,
			// Delivered is loaded first: both only grow and accepting comes
			// before delivering, so no snapshot shows delivered > accepted.
			Delivered: t.delivered.Load(),
			Accepted:  t.accepted.Load(),
			Renegs:    t.renegs.Load(),
			P50:       float64(snap.Quantile(0.50)),
			P99:       float64(snap.Quantile(0.99)),
		})
	}
	for _, qs := range p.queues {
		st.Cores = append(st.Cores, CoreStats{
			Polls:     qs.polls.Load(),
			Delivered: qs.delivered.Load(),
			Stolen:    qs.stolen.Load(),
		})
	}
	return st
}

// JainFairness computes Jain's index (Σx)² / (n·Σx²) over the shares.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// RegisterMetrics exposes the plane on an obs registry: per-tenant series
// under tenant="name" labels and per-queue series under queue="N" labels,
// each in its own namespace view so many planes (or planes plus drivers)
// can share one stats endpoint.
func (p *Plane) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	base := reg.WithLabels(labels...)
	base.GaugeFunc("opendesc_tenant_generation", "joint layout generation", func() int64 {
		p.mu.RLock()
		defer p.mu.RUnlock()
		return int64(p.gen)
	})
	base.AttachCounter("opendesc_tenant_renegotiations_total", "completed layout switchovers", &p.renegs)
	base.AttachCounter("opendesc_tenant_fast_renegotiations_total", "accessor-only renegotiations", &p.fastRenegs)
	base.AttachCounter("opendesc_tenant_rollbacks_total", "switchovers rolled back", &p.rollbacks)
	base.AttachCounter("opendesc_tenant_drained_total", "completions parked across switchovers", &p.drainedPkts)
	base.AttachCounter("opendesc_tenant_steals_total", "stolen delivery batches", &p.steals)
	base.AttachCounter("opendesc_tenant_unclassified_total", "packets matching no tenant port", &p.unclassified)
	for _, t := range p.tenants {
		tr := base.WithLabels(obs.L("tenant", t.spec.Name))
		tr.AttachCounter("opendesc_tenant_rx_accepted_total", "packets accepted for the tenant", &t.accepted)
		tr.AttachCounter("opendesc_tenant_delivered_total", "packets delivered to the tenant", &t.delivered)
		tr.AttachHistogram("opendesc_tenant_delivery_latency_ns", "Rx to delivery latency", t.lat)
	}
	for q, qs := range p.queues {
		qr := base.WithLabels(obs.L("queue", fmt.Sprintf("%d", q)))
		qs.q.Dev().RegisterMetrics(qr)
		qr.AttachCounter("opendesc_tenant_queue_delivered_total", "deliveries consumed from the queue", &qs.delivered)
		qr.AttachCounter("opendesc_tenant_queue_stolen_total", "deliveries consumed by a non-owner core", &qs.stolen)
	}
}
