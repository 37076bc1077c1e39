package chaos

import (
	"fmt"
	"strings"

	"opendesc/internal/pkt"
	"opendesc/internal/rxpath"
	"opendesc/internal/tenant"
	"opendesc/internal/vclock"
	"opendesc/internal/workload"
)

// TenantConfig describes one multi-tenant serving-plane chaos scenario
// (S23): N tenants share one RSS-sharded plane while the scheduler
// interleaves Zipf arrivals, per-core polls (including steals), clock
// advances, and per-tenant renegotiations. The tenant-isolation oracle
// family checks that one tenant's hot-swap never loses, reorders, or
// corrupts a neighbor's traffic.
type TenantConfig struct {
	// Tenants is the tenant count (default 4, max 64).
	Tenants int
	// Cores is the RSS shard / poll-loop count (default 2, max 8).
	Cores int
	// Steps is the schedule length (default 512).
	Steps int
}

// The tenant scenario's plane and trace: mlx5 is the only bundled model with
// enough alternative completion formats for renegotiations to move the joint
// layout; each queue's completion ring holds 64 entries; arrivals are
// Zipf(1.1).
const (
	tenantNIC  = "mlx5"
	tenantRing = 64
	tenantSkew = 1.1
)

func (c TenantConfig) withDefaults() TenantConfig {
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.Tenants > 64 {
		c.Tenants = 64
	}
	if c.Cores <= 0 {
		c.Cores = 2
	}
	if c.Cores > 8 {
		c.Cores = 8
	}
	if c.Steps <= 0 {
		c.Steps = 512
	}
	return c
}

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

// TenantResult is the outcome of one tenant-plane chaos run.
type TenantResult struct {
	// Violation is nil when every oracle held through the schedule plus the
	// final drain.
	Violation *Violation
	// Trace is the deterministic run log: same (cfg, seed) ⇒ identical.
	Trace []byte
	// Events counts executed schedule steps.
	Events int

	Accepted  uint64
	Delivered uint64
	Rejected  uint64
	// Renegs / FastRenegs split completed renegotiations into layout
	// switchovers and accessor-only swaps.
	Renegs     uint64
	FastRenegs uint64
	Steals     uint64
}

// tenantRunner executes one tenant-plane schedule.
type tenantRunner struct {
	cfg   TenantConfig
	plane *tenant.Plane
	clk   *vclock.Virtual
	trace *workload.ZipfTrace
	// tenantOf is each accepted packet's tenant, by its first byte's address.
	tenantOf map[*byte]int

	fifo      []rxpath.FIFO // per queue
	accepted  []uint64      // per tenant
	delivered []uint64      // per tenant
	phase     []int         // per tenant: which tenantPhases entry is live
	nextPkt   int

	log  strings.Builder
	res  *TenantResult
	viol *Violation
}

// RunTenant executes the tenant-isolation chaos scenario for (cfg, seed).
// Deterministic: the plane runs on a virtual clock, the schedule and the
// Zipf trace come from splitmix64 streams, and all polling is
// single-threaded (concurrency is modeled by interleaving poll events
// across cores, the same discipline the harden/evolve runner uses for
// queues).
func RunTenant(cfg TenantConfig, seed uint64) *TenantResult {
	cfg = cfg.withDefaults()
	r := &tenantRunner{cfg: cfg, clk: vclock.NewVirtual(1), res: &TenantResult{}}
	if err := r.setup(seed); err != nil {
		r.res.Violation = &Violation{Oracle: "setup", Detail: err.Error()}
		return r.res
	}
	rng := &rng{s: seed ^ 0x7e3a9d4b5c216f08}
	for step := 0; step < cfg.Steps; step++ {
		if r.viol != nil {
			break
		}
		r.exec(step, rng)
		r.res.Events++
	}
	if r.viol == nil {
		r.finalDrain(cfg.Steps)
	}
	r.res.Violation = r.viol
	st := r.plane.Stats()
	r.res.Renegs = st.Renegs
	r.res.FastRenegs = st.FastRenegs
	r.res.Steals = st.Steals
	for t := range r.accepted {
		r.res.Accepted += r.accepted[t]
		r.res.Delivered += r.delivered[t]
	}
	r.res.Trace = []byte(r.log.String())
	return r.res
}

func (r *tenantRunner) setup(seed uint64) error {
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
		Cores:       cfg.Cores,
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
		Seed:    seed,
	})
	if err != nil {
		return err
	}
	r.fifo = make([]rxpath.FIFO, cfg.Cores)
	r.tenantOf = make(map[*byte]int)
	r.accepted = make([]uint64, cfg.Tenants)
	r.delivered = make([]uint64, cfg.Tenants)
	return nil
}

// exec runs one schedule step. Event kinds are drawn inline (the tenant
// scenario does not share the harden/evolve Event grammar: its reneg events
// have no fault-class analogue).
func (r *tenantRunner) exec(step int, rng *rng) {
	switch roll := rng.intn(100); {
	case roll < 50:
		r.rx(step)
	case roll < 80:
		core := rng.intn(r.cfg.Cores)
		r.poll(step, core)
	case roll < 90:
		ns := uint64(1+rng.intn(4096)) * 256
		r.clk.Advance(ns)
		fmt.Fprintf(&r.log, "%4d advance %d\n", step, ns)
	default:
		t := rng.intn(r.cfg.Tenants)
		r.reneg(step, t)
	}
}

func (r *tenantRunner) rx(step int) {
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
// metadata model (zero garbage reads in any generation).
func (r *tenantRunner) poll(step, core int) {
	n := r.plane.PollCore(core, func(d tenant.Delivery) {
		if r.viol != nil {
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
}

// reneg flips one tenant's intent phase and checks the isolation oracle
// around the switchover: the renegotiation itself must deliver nothing,
// drop nothing (pending is conserved), and leave every per-queue FIFO
// expectation intact — neighbors cannot even observe that it happened
// until their next read resolves against the new joint layout.
func (r *tenantRunner) reneg(step, t int) {
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

// finalDrain polls everything out and checks conservation: every accepted
// packet was delivered exactly once to its own tenant, across however many
// renegotiations the schedule scripted.
func (r *tenantRunner) finalDrain(step int) {
	for r.viol == nil {
		n := 0
		for c := 0; c < r.cfg.Cores; c++ {
			before := r.totalDelivered()
			r.poll(step, c)
			n += int(r.totalDelivered() - before)
		}
		if n == 0 {
			break
		}
	}
	if r.viol != nil {
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

func (r *tenantRunner) totalDelivered() uint64 {
	var n uint64
	for _, d := range r.delivered {
		n += d
	}
	return n
}

func (r *tenantRunner) fail(v *Violation) {
	if r.viol == nil {
		r.viol = v
		fmt.Fprintf(&r.log, "VIOLATION %s q%d: %s\n", v.Oracle, v.Queue, v.Detail)
	}
}
