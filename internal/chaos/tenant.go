package chaos

import (
	"fmt"

	"opendesc/internal/pkt"
	"opendesc/internal/rxpath"
	"opendesc/internal/tenant"
	"opendesc/internal/workload"
)

// The tenant scenario's plane and trace: mlx5 is the only bundled model with
// enough alternative completion formats for renegotiations to move the joint
// layout; each queue's completion ring holds 64 entries; arrivals are
// Zipf(1.1).
const (
	tenantNIC  = "mlx5"
	tenantRing = 64
	tenantSkew = 1.1
)

// tenantPhases is the pair of intents each tenant renegotiates between. The
// sets differ enough that a flip can move the joint optimum (forcing full
// drain/apply switchovers) or keep it (exercising the accessor-only fast
// path), depending on the neighbors.
var tenantPhases = [2][]string{
	{"rss", "pkt_len"},
	{"flow_id", "pkt_len", "tunnel_id"},
}

// tenantReads is what every delivery reads: each semantic either phase has,
// checked wherever it resolves.
var tenantReads = []string{"pkt_len", "rss", "flow_id", "tunnel_id"}

// planeCell is the tenant cell: one multi-tenant plane, whose RSS cores are
// the lanes. Concurrency is modeled by interleaving poll events across
// cores, the same discipline the queue cells use for driver queues, so all
// polling is single-threaded.
type planeCell struct {
	*runner
	plane *tenant.Plane
	trace *workload.ZipfTrace
	// tenantOf is each accepted packet's tenant, by its first byte's address.
	tenantOf map[*byte]int

	fifo      []rxpath.FIFO // per queue
	accepted  []uint64      // per tenant
	delivered []uint64      // per tenant
	phase     []int         // per tenant: which tenantPhases entry is live
	nextPkt   int
}

// tenantEvent draws one tenant-cell event: an arrival the plane steers, a
// core's poll, a clock advance, or one tenant's renegotiation.
func tenantEvent(rng *rng, cfg Config) Event {
	switch roll := rng.intn(100); {
	case roll < 50:
		return Event{Op: OpRx}
	case roll < 80:
		return Event{Op: OpPoll, Q: uint8(rng.intn(cfg.Queues))}
	case roll < 90:
		return Event{Op: OpAdvance, Arg: uint64(1+rng.intn(4096)) * 256}
	}
	return Event{Op: OpReneg, Arg: uint64(rng.intn(cfg.Tenants))}
}

func (r *planeCell) setup(s Schedule) error {
	cfg := r.cfg
	specs := make([]tenant.Spec, cfg.Tenants)
	r.phase = make([]int, cfg.Tenants)
	for i := range specs {
		specs[i] = tenant.Spec{
			Name:      fmt.Sprintf("t%d", i),
			Semantics: tenantPhases[0],
		}
	}
	p, err := tenant.Open(tenant.Options{
		NIC:         tenantNIC,
		Cores:       cfg.Queues,
		RingEntries: tenantRing,
		Clock:       r.clk,
	}, specs...)
	if err != nil {
		return err
	}
	r.plane = p
	r.trace, err = workload.GenerateZipf(workload.ZipfSpec{
		Packets: cfg.Steps,
		Flows:   1 << 16,
		Skew:    tenantSkew,
		Tenants: cfg.Tenants,
		Seed:    s.Seed,
	})
	if err != nil {
		return err
	}
	r.fifo = make([]rxpath.FIFO, cfg.Queues)
	r.tenantOf = make(map[*byte]int)
	r.accepted = make([]uint64, cfg.Tenants)
	r.delivered = make([]uint64, cfg.Tenants)
	return nil
}

func (r *planeCell) exec(step int, ev Event) {
	switch ev.Op {
	case OpRx:
		r.rx(step)
	case OpPoll:
		r.poll(step, int(ev.Q))
	case OpAdvance:
		r.clk.Advance(ev.Arg)
		fmt.Fprintf(&r.log, "%4d advance %d\n", step, ev.Arg)
	case OpReneg:
		r.reneg(step, int(ev.Arg))
	}
}

// check has nothing to add: the tenant oracles fire inside the poll handler
// and around each renegotiation.
func (r *planeCell) check(int, Event) *Violation { return nil }

func (r *planeCell) rx(step int) {
	pk := r.trace.Packets[r.nextPkt%len(r.trace.Packets)]
	ti := r.trace.TenantOf[r.nextPkt%len(r.trace.Packets)]
	r.nextPkt++
	var in pkt.Info
	if err := pkt.Decode(pk, &in); err != nil {
		r.fail(&Violation{Oracle: "setup", Step: step, Detail: "undecodable trace packet: " + err.Error()})
		return
	}
	q := r.plane.Steer(&in)
	if r.plane.Rx(pk) {
		r.fifo[q].Push(pk)
		r.tenantOf[&pk[0]] = ti
		r.accepted[ti]++
		fmt.Fprintf(&r.log, "%4d rx t%d q%d\n", step, ti, q)
	} else {
		r.res.Rejected++
		fmt.Fprintf(&r.log, "%4d rx t%d q%d REJECT\n", step, ti, q)
	}
}

// poll drains one core and checks every delivery against the per-queue FIFO
// (exactly-once, in order, right tenant — by slice identity) and the golden
// metadata model (zero garbage reads in any generation). It returns the
// deliveries polled.
func (r *planeCell) poll(step, core int) int {
	n := r.plane.PollCore(core, func(d *tenant.Delivery) {
		if r.res.Violation != nil {
			return
		}
		q := d.Queue
		if !r.fifo[q].Pop(d.Pkt) {
			r.fail(&Violation{Oracle: "exactly-once", Step: step, Queue: q,
				Detail: fmt.Sprintf("delivery out of order, duplicated or spurious (%d outstanding)", len(r.fifo[q]))})
			return
		}
		if want := r.tenantOf[&d.Pkt[0]]; want != d.Tenant {
			r.fail(&Violation{Oracle: "tenant-isolation", Step: step, Queue: q,
				Detail: fmt.Sprintf("packet for tenant %d delivered to tenant %d", want, d.Tenant)})
			return
		}
		// Any semantic that resolves must carry its reference value,
		// whichever generation's layout it was DMAed under. (Resolution
		// itself is intent-scoped and may legitimately change across a
		// renegotiation; garbage values may not.)
		for _, s := range tenantReads {
			got, ok := d.Get(s)
			if !ok {
				continue
			}
			if want, ok := d.Want(s); ok && got != want {
				r.fail(&Violation{Oracle: "golden-metadata", Step: step, Queue: q,
					Detail: fmt.Sprintf("tenant %d read %s = %#x, reference %#x", d.Tenant, s, got, want)})
				return
			}
		}
		r.delivered[d.Tenant]++
	})
	if n > 0 {
		fmt.Fprintf(&r.log, "%4d poll c%d -> %d\n", step, core, n)
	}
	return n
}

// reneg flips one tenant's intent phase and checks the isolation oracle
// around the switchover: the renegotiation itself must deliver nothing,
// drop nothing (pending is conserved), and leave every per-queue FIFO
// expectation intact — neighbors cannot even observe that it happened
// until their next read resolves against the new joint layout.
func (r *planeCell) reneg(step, t int) {
	pendingBefore := r.plane.Pending()
	deliveredBefore := make([]uint64, len(r.delivered))
	copy(deliveredBefore, r.delivered)

	next := 1 - r.phase[t]
	err := r.plane.Renegotiate(fmt.Sprintf("t%d", t), tenantPhases[next]...)
	if err != nil {
		r.fail(&Violation{Oracle: "reneg", Step: step,
			Detail: fmt.Sprintf("tenant %d: %v", t, err)})
		return
	}
	r.phase[t] = next

	if got := r.plane.Pending(); got != pendingBefore {
		r.fail(&Violation{Oracle: "tenant-isolation", Step: step,
			Detail: fmt.Sprintf("renegotiation changed pending %d -> %d (in-flight traffic lost or invented)",
				pendingBefore, got)})
		return
	}
	for i := range r.delivered {
		if r.delivered[i] != deliveredBefore[i] {
			r.fail(&Violation{Oracle: "tenant-isolation", Step: step,
				Detail: fmt.Sprintf("renegotiation of tenant %d delivered traffic for tenant %d", t, i)})
			return
		}
	}
	fmt.Fprintf(&r.log, "%4d reneg t%d phase%d gen%d\n", step, t, next, r.plane.Generation())
}

// drain polls everything out and checks conservation: every accepted
// packet was delivered exactly once to its own tenant, across however many
// renegotiations the schedule scripted.
func (r *planeCell) drain(step int) {
	for r.res.Violation == nil {
		n := 0
		for c := range r.cfg.Queues {
			n += r.poll(step, c)
		}
		if n == 0 {
			break
		}
	}
	if r.res.Violation != nil {
		return
	}
	for t := range r.accepted {
		if r.accepted[t] != r.delivered[t] {
			r.fail(&Violation{Oracle: "conservation", Step: step,
				Detail: fmt.Sprintf("tenant %d: accepted %d, delivered %d", t, r.accepted[t], r.delivered[t])})
			return
		}
	}
	for q := range r.fifo {
		if len(r.fifo[q]) != 0 {
			r.fail(&Violation{Oracle: "conservation", Step: step, Queue: q,
				Detail: fmt.Sprintf("%d packets still expected after the final drain", len(r.fifo[q]))})
			return
		}
	}
}

func (r *planeCell) fold() {
	st := r.plane.Stats()
	r.res.Renegs = st.Renegs
	r.res.FastRenegs = st.FastRenegs
	r.res.Steals = st.Steals
	for t := range r.accepted {
		r.res.Accepted += r.accepted[t]
		r.res.Delivered += r.delivered[t]
	}
}
