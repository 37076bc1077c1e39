package fleet

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"

	"opendesc/internal/core"
	"opendesc/internal/diffverify"
	"opendesc/internal/fleet/telemetry"
	"opendesc/internal/obs"
	"opendesc/internal/retry"
	"opendesc/internal/semantics"
	"opendesc/internal/vclock"
)

// Phase is the rollout state machine position. One rollout runs at a time:
// inventory → canary → bake → promote, with rollback exiting from canary
// or bake.
type Phase int32

// Rollout phases.
const (
	PhaseIdle Phase = iota
	PhaseCanary
	PhaseBake
	PhasePromote
	PhasePromoted
	PhaseRolledBack
)

func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseCanary:
		return "canary"
	case PhaseBake:
		return "bake"
	case PhasePromote:
		return "promote"
	case PhasePromoted:
		return "promoted"
	case PhaseRolledBack:
		return "rolled-back"
	}
	return "?"
}

// Options tunes the controller.
type Options struct {
	// Clock is the controller's timeline (shared with hosts and links in
	// simulation); nil selects the wall clock.
	Clock vclock.Clock
	// Intent is the fleet-wide read set compiled for every description
	// (default rss + pkt_len; semantics a device cannot provide in hardware
	// compile to SoftNIC shims, so the intent is satisfiable fleet-wide).
	Intent []string
	// Seed drives the retry jitter streams deterministically.
	Seed uint64
	// LeaseNs is the trial lease granted with every ApplyTrial: a host whose
	// controller goes silent for this long unilaterally reverts to its
	// last-known-good layout (default 30s virtual).
	LeaseNs uint64
	// BakeTarget is how many deliveries every canary must serve under the
	// trial, violation-free, before promotion (default 64).
	BakeTarget uint64
	// DisableEvidenceBake reverts canary verdicts to Health counters alone —
	// the pre-telemetry behavior, kept for A/B efficacy experiments. A trial
	// that degrades latency but still delivers correct metadata promotes
	// under counter bakes; only flight evidence catches it.
	DisableEvidenceBake bool
	// DisableVerify skips the S27 differential-verification gate: structural
	// validation alone admits a description, as before the gate existed. Kept
	// as an ablation — with it set, a description whose views disagree (or
	// that the harness cannot certify at all) provisions onto hosts and only
	// the canary bake can catch the damage downstream.
	DisableVerify bool
}

const (
	// rpcDeadlineNs bounds every control RPC (1ms virtual);
	// telemetryDeadlineNs bounds payload-carrying telemetry transfers, which
	// need more headroom.
	rpcDeadlineNs       = 1_000_000
	telemetryDeadlineNs = 8 * rpcDeadlineNs
	// latencyBudgetFactor and latencyBudgetSlackNs set the evidence-bake
	// latency gate: a canary promotes only if its trial p99 poll→deliver
	// latency is ≤ baseline p99 × factor + slack. The slack absorbs log2
	// bucket quantization around small baselines.
	latencyBudgetFactor  = 4
	latencyBudgetSlackNs = 256
)

func (o Options) withDefaults() Options {
	if o.Clock == nil {
		o.Clock = vclock.Wall()
	}
	if len(o.Intent) == 0 {
		o.Intent = []string{"rss", "pkt_len"}
	}
	if o.LeaseNs == 0 {
		o.LeaseNs = 30_000_000_000
	}
	if o.BakeTarget == 0 {
		o.BakeTarget = 64
	}
	return o
}

// member is the controller's view of one host.
type member struct {
	host *Host
	link *Link

	ok     bool
	reason string // quarantine reason when !ok
	digest string // recomputed content address of the host's description
	val    *Validated
	// lastSeq is the highest telemetry report sequence accepted from this
	// host; non-advancing sequences are replays and are rejected.
	lastSeq uint64
}

// QuarantinedHost is one operator-visible quarantine record.
type QuarantinedHost struct {
	Host   string
	Reason string
}

// InventoryReport summarizes one discovery sweep.
type InventoryReport struct {
	Total       int
	Healthy     int
	Digests     []string // distinct healthy description digests, sorted
	Quarantined []QuarantinedHost
}

// Controller inventories a heterogeneous fleet over describe handshakes,
// compiles one layout per (description digest, intent) pair through the
// content-addressed cache, and rolls out interface upgrades canary-first
// with automatic rollback on oracle violation. Single-threaded by the
// chaos discipline; the obs hooks are safe to render concurrently.
type Controller struct {
	opts    Options
	clk     vclock.Clock
	cache   *core.CompileCache
	members []*member
	nextGen uint64
	seedSt  uint64

	phase  atomic.Int32
	active *Rollout

	transcript []string

	// rollup aggregates accepted telemetry reports into fleet-level metrics;
	// trace accumulates the correlated rollout span tree. reg is remembered
	// so per-rollout labeled gauges can be registered as rollouts start.
	rollup *telemetry.Rollup
	trace  *telemetry.Trace
	reg    *obs.Registry

	rollouts, promotions, rollbacks obs.Counter
	canaryViolations, rpcRetries    obs.Counter
	telemetryReports                obs.Counter
	telemetryRejects                obs.Counter
}

// NewController builds an empty controller; add hosts with AddHost.
func NewController(opts Options) *Controller {
	opts = opts.withDefaults()
	return &Controller{
		opts:    opts,
		clk:     opts.Clock,
		cache:   core.NewCompileCache(0),
		nextGen: 1,
		seedSt:  opts.Seed,
		rollup:  telemetry.NewRollup(),
		trace:   telemetry.NewTrace(),
	}
}

// AddHost attaches a host behind its control link.
func (c *Controller) AddHost(h *Host, l *Link) {
	if l == nil {
		l = NewLink(c.clk, 0)
	}
	c.members = append(c.members, &member{host: h, link: l})
}

// Phase reports the current rollout phase.
func (c *Controller) Phase() Phase { return Phase(c.phase.Load()) }

// CacheStats snapshots the compile-cache counters.
func (c *Controller) CacheStats() core.CacheStats { return c.cache.Stats() }

// Transcript returns the operator log (phase transitions, quarantines,
// rollbacks) accumulated so far.
func (c *Controller) Transcript() []string {
	return append([]string(nil), c.transcript...)
}

func (c *Controller) logf(format string, args ...interface{}) {
	c.transcript = append(c.transcript, fmt.Sprintf(format, args...))
}

// nextSeed draws the next deterministic jitter seed (splitmix64 stream).
func (c *Controller) nextSeed() uint64 {
	c.seedSt += 0x9e3779b97f4a7c15
	z := c.seedSt
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rpc runs one control RPC under the member's link with a deadline and
// bounded exponential backoff (seeded jitter, budget charged to the
// shared clock by the link itself).
func (c *Controller) rpc(m *member, fn func() error) error {
	return retry.Policy{
		JitterSeed: c.nextSeed(),
		Sleep:      func(d uint64) { c.clk.Advance(d) },
		OnError:    func(int, error) { c.rpcRetries.Inc() },
	}.Do(func() error {
		return m.link.call(rpcDeadlineNs, fn)
	})
}

// verifyDescription runs the S27 differential-verification gate on a
// structurally valid description and returns the quarantine reason, or ""
// when the description holds a passing certificate. Certificates are
// digest-keyed and cached process-wide, so a fleet of hosts sharing one
// description pays for a single harness run. Structural validation says the
// description is well-formed; the certificate says the compiler triad and
// the SoftNIC golden model agree on every completion path it describes —
// without it, a description whose generated accessors read the wrong bits
// would provision cleanly and corrupt metadata on every delivery.
func (c *Controller) verifyDescription(nicName, src string) string {
	if c.opts.DisableVerify {
		return ""
	}
	cert := diffverify.CertifyCached(nicName, src)
	if cert.Passed {
		return ""
	}
	return fmt.Sprintf("verification: %s", cert.Reason)
}

// intent materializes the controller's read set as a core intent.
func (c *Controller) intent(sems []string) (*core.Intent, error) {
	names := make([]semantics.Name, len(sems))
	for i, s := range sems {
		names[i] = semantics.Name(s)
	}
	return core.IntentFromSemantics("fleet", semantics.Default, names...)
}

// Inventory sweeps the fleet with describe handshakes. Every answer is
// untrusted: it crosses the wire as JSON and is structurally validated
// before anything is compiled for the host. Hosts that are unreachable or
// fail validation are quarantined with an operator-visible reason; they
// keep serving whatever layout they already have.
func (c *Controller) Inventory() InventoryReport {
	rep := InventoryReport{Total: len(c.members)}
	digests := make(map[string]bool)
	for _, m := range c.members {
		m.ok, m.reason, m.val, m.digest = false, "", nil, ""
		var raw []byte
		err := c.rpc(m, func() error {
			d, derr := m.host.Describe()
			if derr != nil {
				return derr
			}
			raw, derr = d.Encode()
			return derr
		})
		if err != nil {
			m.reason = fmt.Sprintf("unreachable: %v", err)
		} else if v, verr := Validate(raw); verr != nil {
			m.reason = verr.Error()
		} else if vreason := c.verifyDescription(v.Desc.NIC, v.Desc.P4); vreason != "" {
			m.reason = vreason
		} else {
			m.ok, m.val, m.digest = true, v, v.Digest
		}
		if m.ok {
			rep.Healthy++
			digests[m.digest] = true
		} else {
			rep.Quarantined = append(rep.Quarantined, QuarantinedHost{Host: m.host.Name, Reason: m.reason})
			c.logf("quarantine %s: %s", m.host.Name, m.reason)
		}
	}
	for d := range digests {
		rep.Digests = append(rep.Digests, d)
	}
	sort.Strings(rep.Digests)
	c.logf("inventory: %d/%d healthy, %d distinct descriptions, %d quarantined",
		rep.Healthy, rep.Total, len(rep.Digests), len(rep.Quarantined))
	return rep
}

// Provision compiles the fleet intent for every healthy host (one compile
// per distinct description, however many hosts share it — the cache and
// its singleflight do the de-duplication) and installs it as each host's
// last-known-good layout. Requires a prior Inventory.
func (c *Controller) Provision() error {
	intent, err := c.intent(c.opts.Intent)
	if err != nil {
		return err
	}
	gen := c.nextGen
	c.nextGen++
	installed := 0
	for _, m := range c.members {
		if !m.ok {
			continue
		}
		val := m.val
		res, cerr := c.cache.Get(core.CompileKey(m.digest, intent, core.CompileOptions{}),
			func() (*core.Result, error) { return val.Compile(intent, core.CompileOptions{}) })
		if cerr != nil {
			m.ok, m.reason = false, fmt.Sprintf("compile: %v", cerr)
			c.logf("quarantine %s: %s", m.host.Name, m.reason)
			continue
		}
		aerr := c.rpc(m, func() error { return m.host.ApplyTrial(gen, res, c.opts.LeaseNs) })
		if aerr == nil {
			aerr = c.rpc(m, func() error { return m.host.Commit(gen) })
		}
		if aerr != nil {
			m.ok, m.reason = false, fmt.Sprintf("provision: %v", aerr)
			c.logf("quarantine %s: %s", m.host.Name, m.reason)
			continue
		}
		installed++
	}
	st := c.cache.Stats()
	c.logf("provision gen %d: %d hosts installed, cache %d/%d hit (%.1f%%)",
		gen, installed, st.Hits+st.Coalesced, st.Gets, 100*st.HitRate())
	return nil
}

// Upgrade is one fleet-wide interface change: a new read set and/or
// vendor-pushed description updates (replacement P4 source per NIC model).
// Description updates are structurally validated before any host is
// touched; a structurally valid description that lies about field meaning
// is exactly what the canary bake exists to catch.
type Upgrade struct {
	Name string
	// Semantics is the new fleet intent ("" entries invalid); empty slice
	// keeps the controller's current intent.
	Semantics []string
	// Descriptions maps NIC model name → replacement P4 source.
	Descriptions map[string]string
}

// Rollout is one in-flight upgrade.
type Rollout struct {
	c        *Controller
	up       Upgrade
	gen      uint64
	compiled map[string]*core.Result // effective digest → layout
	digests  map[*member]string      // member → effective digest (override-aware)
	targets  []*member
	// canaries/applied are ordered (deterministic RPC and jitter-draw order
	// under seeded chaos); isCanary answers membership.
	canaries []*member
	isCanary map[*member]bool
	applied  []*member
	baseline map[*member]Health
	// baseReport is each canary's pre-trial telemetry report; its histogram
	// anchors the latency budget. Absent (unreachable or rejected at canary
	// time) the latency gate is disarmed for that canary — the anomaly gate
	// never is. cutoff is the controller's own clock at trial apply: flight
	// events at or before it are pre-trial history, not trial evidence.
	baseReport map[*member]*telemetry.Report
	cutoff     map[*member]uint64
	// phase mirrors the controller's phase for this rollout only, so the
	// per-rollout labeled gauge survives later rollouts overwriting the
	// controller-global one.
	phase atomic.Int32
	// span/trialSpan/bakeSpan are trace handles for the rollout span tree.
	span      int
	trialSpan map[*member]int
	bakeSpan  int
	// Err records what aborted or rolled back the rollout.
	Err error
}

// Phase reports this rollout's own terminal-aware phase (unlike
// Controller.Phase, which tracks only the most recent rollout).
func (r *Rollout) Phase() Phase { return Phase(r.phase.Load()) }

// Gen is the generation this rollout installs.
func (r *Rollout) Gen() uint64 { return r.gen }

// StartRollout validates and compiles an upgrade, then opens the canary
// phase: one canary per distinct effective description. Returns an error
// (and touches no host) when validation or compilation fails, or when a
// rollout is already active.
func (c *Controller) StartRollout(up Upgrade) (*Rollout, error) {
	if c.active != nil {
		return nil, fmt.Errorf("fleet: rollout %q still active in phase %s", c.active.up.Name, c.Phase())
	}
	sems := up.Semantics
	if len(sems) == 0 {
		sems = c.opts.Intent
	}
	intent, err := c.intent(sems)
	if err != nil {
		return nil, err
	}
	// Validate pushed descriptions up front: structural failures abort the
	// rollout at inventory time, before any host is touched.
	overrides := make(map[string]*Validated) // NIC model name → validated source
	for nicName, src := range up.Descriptions {
		v, verr := ValidateSource(nicName, src)
		if verr != nil {
			return nil, fmt.Errorf("fleet: upgrade %q description for %s rejected: %v", up.Name, nicName, verr)
		}
		// The verification gate applies to pushed descriptions too: a vendor
		// update whose views disagree never reaches a canary. (A description
		// that *lies about meaning* — swapped or stripped semantics — still
		// certifies: the triad agrees on the bits; only the canary bake
		// against SoftNIC ground truth can judge meaning.)
		if vreason := c.verifyDescription(nicName, src); vreason != "" {
			return nil, fmt.Errorf("fleet: upgrade %q description for %s rejected: %s", up.Name, nicName, vreason)
		}
		overrides[nicName] = v
	}
	r := &Rollout{
		c:          c,
		up:         up,
		gen:        c.nextGen,
		compiled:   make(map[string]*core.Result),
		digests:    make(map[*member]string),
		isCanary:   make(map[*member]bool),
		baseline:   make(map[*member]Health),
		baseReport: make(map[*member]*telemetry.Report),
		cutoff:     make(map[*member]uint64),
		trialSpan:  make(map[*member]int),
		span:       -1,
		bakeSpan:   -1,
	}
	c.nextGen++
	canaryByDigest := make(map[string]*member)
	for _, m := range c.members {
		if !m.ok {
			continue
		}
		val, digest := m.val, m.digest
		if ov, hit := overrides[m.host.Model.Name]; hit {
			val, digest = ov, ov.Digest
		}
		if _, done := r.compiled[digest]; !done {
			res, cerr := c.cache.Get(core.CompileKey(digest, intent, core.CompileOptions{}),
				func() (*core.Result, error) { return val.Compile(intent, core.CompileOptions{}) })
			if cerr != nil {
				return nil, fmt.Errorf("fleet: upgrade %q compile for %s: %v", up.Name, m.host.Model.Name, cerr)
			}
			r.compiled[digest] = res
		}
		r.targets = append(r.targets, m)
		r.digests[m] = digest
		if canaryByDigest[digest] == nil {
			canaryByDigest[digest] = m
			r.canaries = append(r.canaries, m)
			r.isCanary[m] = true
		}
	}
	if len(r.targets) == 0 {
		return nil, fmt.Errorf("fleet: upgrade %q has no healthy targets", up.Name)
	}
	c.active = r
	c.phase.Store(int32(PhaseCanary))
	r.phase.Store(int32(PhaseCanary))
	c.rollouts.Inc()
	r.span = c.trace.Begin(fmt.Sprintf("rollout %s gen %d", up.Name, r.gen), "rollout", "rollout",
		c.clk.Now(), map[string]string{
			"gen":      strconv.FormatUint(r.gen, 10),
			"targets":  strconv.Itoa(len(r.targets)),
			"canaries": strconv.Itoa(len(r.canaries)),
		})
	if c.reg != nil {
		// Per-rollout labeled phase series: unlike the unlabeled
		// fleet_rollout_phase gauge (which tracks only the latest rollout),
		// each rollout keeps its own terminal value visible.
		rr := r
		c.reg.WithLabels(obs.L("rollout", up.Name), obs.L("gen", strconv.FormatUint(r.gen, 10))).
			GaugeFunc("fleet_rollout_phase", "per-rollout phase (0=idle 1=canary 2=bake 3=promote 4=promoted 5=rolled-back)",
				func() int64 { return int64(rr.phase.Load()) })
	}
	c.logf("rollout %q gen %d: %d targets, %d canaries (%d distinct descriptions)",
		up.Name, r.gen, len(r.targets), len(r.canaries), len(r.compiled))
	return r, nil
}

// Step advances the rollout one phase transition. The caller interleaves
// Step with data-plane traffic so canaries accumulate bake deliveries.
// Terminal phases make Step a no-op. Returns Err once terminal-by-failure.
func (r *Rollout) Step() error {
	c := r.c
	switch c.Phase() {
	case PhaseCanary:
		for _, m := range r.canaries {
			res := r.compiled[r.digests[m]]
			base := m.host.Health() // pre-trial snapshot is the violation baseline
			if !c.opts.DisableEvidenceBake {
				// Best-effort pre-trial report: its histogram anchors the
				// latency budget. A canary whose baseline is unavailable still
				// trials — with the latency gate disarmed, never the anomaly
				// gate — so a flaky link cannot veto the rollout before it
				// starts.
				if rep, ferr := c.fetchReport(m); ferr == nil {
					r.baseReport[m] = rep
				} else {
					c.logf("rollout %q: canary %s baseline telemetry unavailable (%v); latency gate disarmed",
						r.up.Name, m.host.Name, ferr)
				}
			}
			r.cutoff[m] = c.clk.Now()
			err := c.rpc(m, func() error { return m.host.ApplyTrial(r.gen, res, c.opts.LeaseNs) })
			if err != nil {
				c.logf("rollout %q: canary %s apply failed: %v — rolling back", r.up.Name, m.host.Name, err)
				r.rollback(fmt.Errorf("canary %s apply: %w", m.host.Name, err))
				return r.Err
			}
			r.applied = append(r.applied, m)
			r.baseline[m] = base
			r.trialSpan[m] = c.trace.Begin("trial "+m.host.Name, "trial", m.host.Name,
				c.clk.Now(), map[string]string{"gen": strconv.FormatUint(r.gen, 10)})
		}
		c.phase.Store(int32(PhaseBake))
		r.phase.Store(int32(PhaseBake))
		r.bakeSpan = c.trace.Begin("bake", "bake", "rollout", c.clk.Now(),
			map[string]string{"target": strconv.FormatUint(c.opts.BakeTarget, 10)})
		c.logf("rollout %q: %d canaries on trial gen %d, baking to %d deliveries",
			r.up.Name, len(r.canaries), r.gen, c.opts.BakeTarget)
		return nil

	case PhaseBake:
		baked := uint64(0)
		first := true
		for _, m := range r.canaries {
			var h Health
			err := c.rpc(m, func() error { h = m.host.Health(); return nil })
			if err != nil {
				c.logf("rollout %q: canary %s unreachable mid-bake — rolling back", r.up.Name, m.host.Name)
				r.rollback(fmt.Errorf("canary %s unreachable: %w", m.host.Name, err))
				return r.Err
			}
			base := r.baseline[m]
			if !h.Trial || h.Gen != r.gen {
				// The lease fired (controller was silent too long): the host
				// already reverted itself. Treat as a failed canary.
				c.logf("rollout %q: canary %s lease-reverted to gen %d — rolling back", r.up.Name, m.host.Name, h.Gen)
				r.rollback(fmt.Errorf("canary %s lease-reverted", m.host.Name))
				return r.Err
			}
			if h.Garbage > base.Garbage || h.OrderViolations > base.OrderViolations {
				c.canaryViolations.Inc()
				cause := fmt.Sprintf("canary %s oracle violation: %s", m.host.Name, h.Detail)
				if ev := r.citeEvidence(m); ev != "" {
					cause += "; flight evidence: " + ev
				}
				c.logf("rollout %q: canary %s oracle violation (%s) — rolling back", r.up.Name, m.host.Name, h.Detail)
				r.rollback(errors.New(cause))
				return r.Err
			}
			if n := h.Delivered - base.Delivered; first || n < baked {
				baked, first = n, false
			}
		}
		if baked < c.opts.BakeTarget {
			return nil // keep baking; caller drives more traffic and re-Steps
		}
		if !c.opts.DisableEvidenceBake {
			if err := r.evidenceVerdict(); err != nil {
				r.rollback(err)
				return r.Err
			}
		}
		c.phase.Store(int32(PhasePromote))
		r.phase.Store(int32(PhasePromote))
		c.logf("rollout %q: bake clean (%d deliveries/canary), promoting", r.up.Name, baked)
		return nil

	case PhasePromote:
		promoted := 0
		for _, m := range r.targets {
			res := r.compiled[r.digests[m]]
			var err error
			if !r.isCanary[m] {
				err = c.rpc(m, func() error { return m.host.ApplyTrial(r.gen, res, c.opts.LeaseNs) })
			}
			if err == nil {
				err = c.rpc(m, func() error { return m.host.Commit(r.gen) })
			}
			if err != nil {
				// A straggler stays on its last-known-good layout (or lease-
				// reverts to it); it is not rolled back fleet-wide.
				c.logf("rollout %q: %s unreachable at promote, stays on LKG", r.up.Name, m.host.Name)
				continue
			}
			promoted++
		}
		c.active = nil
		c.phase.Store(int32(PhasePromoted))
		r.phase.Store(int32(PhasePromoted))
		c.promotions.Inc()
		r.closeSpans("promote", map[string]string{"hosts": strconv.Itoa(promoted)})
		c.logf("rollout %q: promoted gen %d on %d/%d hosts", r.up.Name, r.gen, promoted, len(r.targets))
		return nil
	}
	return r.Err
}

// citeEvidence best-effort fetches the canary's flight evidence and formats
// the trial-window anomalies for a rollback reason. Empty when evidence
// bakes are disabled or the report is unavailable.
func (r *Rollout) citeEvidence(m *member) string {
	if r.c.opts.DisableEvidenceBake {
		return ""
	}
	rep, err := r.c.fetchReport(m)
	if err != nil {
		return ""
	}
	return formatAnomalies(trialAnomalies(rep, r.cutoff[m]), 4)
}

// trialAnomalies filters report anomalies to rollback-triggering codes
// inside the trial window (strictly after the baseline report's NowNs).
func trialAnomalies(rep *telemetry.Report, cutoffNs uint64) []telemetry.Anomaly {
	var out []telemetry.Anomaly
	for _, a := range rep.Anomalies {
		switch a.Code {
		case "garbage", "order_viol", "rollback":
		default:
			continue // ring_full is backpressure, explained by conservation
		}
		if a.TS > cutoffNs {
			out = append(out, a)
		}
	}
	return out
}

// formatAnomalies renders up to max anomaly citations.
func formatAnomalies(anoms []telemetry.Anomaly, max int) string {
	if len(anoms) == 0 {
		return ""
	}
	cited := make([]string, 0, max)
	for i, a := range anoms {
		if i >= max {
			cited = append(cited, fmt.Sprintf("… %d more", len(anoms)-max))
			break
		}
		cited = append(cited, a.String())
	}
	out := cited[0]
	for _, s := range cited[1:] {
		out += " " + s
	}
	return out
}

// evidenceVerdict is the flight-evidence half of the bake: every canary's
// post-bake telemetry report must show zero unexplained anomalies in the
// trial window AND a trial p99 poll→deliver latency within the budget
// derived from its own pre-trial baseline. Health counters alone miss a
// trial that degrades latency but still delivers correct metadata; the
// report's histogram and slowest-delivery exhibits catch it, and the
// offending flight events are cited verbatim in the rollback reason.
func (r *Rollout) evidenceVerdict() error {
	c := r.c
	for _, m := range r.canaries {
		rep, err := c.fetchReport(m)
		if err != nil {
			var ie *integrityError
			if errors.As(err, &ie) {
				c.quarantine(m, fmt.Sprintf("telemetry: %v", ie.err))
				return fmt.Errorf("canary %s telemetry rejected: %w", m.host.Name, ie.err)
			}
			return fmt.Errorf("canary %s unreachable for evidence bake: %w", m.host.Name, err)
		}
		if anoms := trialAnomalies(rep, r.cutoff[m]); len(anoms) > 0 {
			c.canaryViolations.Inc()
			return fmt.Errorf("canary %s flight evidence: %d unexplained anomalies in trial window: %s",
				m.host.Name, len(anoms), formatAnomalies(anoms, 4))
		}
		// Latency gate, skipped when either window has no deliveries (a fresh
		// fleet has no baseline to hold the trial against).
		base := r.baseReport[m]
		if base != nil && base.Deliver.Count > 0 && rep.Deliver.Count > 0 {
			baseP99 := base.Deliver.Quantile(0.99)
			budget := baseP99*latencyBudgetFactor + latencyBudgetSlackNs
			p99 := rep.Deliver.Quantile(0.99)
			if p99 > budget {
				c.canaryViolations.Inc()
				exhibits := formatAnomalies(rep.Slowest, 3)
				return fmt.Errorf("canary %s latency evidence: trial p99 %dns exceeds budget %dns (baseline p99 %dns × %d + %dns); slowest deliveries: %s",
					m.host.Name, p99, budget, baseP99, latencyBudgetFactor, latencyBudgetSlackNs, exhibits)
			}
			c.logf("rollout %q: canary %s evidence clean (trial p99 %dns ≤ budget %dns, 0 anomalies)",
				r.up.Name, m.host.Name, p99, budget)
		}
		m.lastSeq = rep.Seq
		c.rollup.Absorb(rep)
		c.telemetryReports.Inc()
	}
	return nil
}

// closeSpans ends the rollout span tree with a terminal verdict instant.
func (r *Rollout) closeSpans(verdict string, args map[string]string) {
	c := r.c
	now := c.clk.Now()
	for _, m := range r.canaries {
		if i, ok := r.trialSpan[m]; ok {
			c.trace.End(i, now)
		}
	}
	if r.bakeSpan >= 0 {
		c.trace.End(r.bakeSpan, now)
	}
	c.trace.Instant(verdict, "verdict", "rollout", now, args)
	if r.span >= 0 {
		c.trace.End(r.span, now)
	}
}

// rollback aborts every applied canary (unreachable ones are left to their
// trial lease, which reverts them without the controller). Non-canary
// hosts were never touched: rollback costs them nothing.
func (r *Rollout) rollback(cause error) {
	c := r.c
	for _, m := range r.applied {
		gen := r.gen
		if err := c.rpc(m, func() error { return m.host.Abort(gen) }); err != nil {
			c.logf("rollout %q: abort %s unreachable, trial lease will revert it", r.up.Name, m.host.Name)
		}
	}
	r.Err = cause
	c.active = nil
	c.phase.Store(int32(PhaseRolledBack))
	r.phase.Store(int32(PhaseRolledBack))
	c.rollbacks.Inc()
	r.closeSpans("rollback", map[string]string{"cause": cause.Error()})
	c.logf("rollout %q: rolled back (%v); fleet serves on last-known-good", r.up.Name, cause)
}

// Run drives a rollout to a terminal phase, calling pump between steps to
// generate canary traffic. Returns nil on promotion, the cause on rollback.
func (r *Rollout) Run(pump func()) error {
	for {
		switch r.c.Phase() {
		case PhasePromoted:
			return nil
		case PhaseRolledBack, PhaseIdle:
			return r.Err
		}
		if err := r.Step(); err != nil {
			return err
		}
		if pump != nil {
			pump()
		}
	}
}

// QuarantinedCount reports hosts currently quarantined.
func (c *Controller) QuarantinedCount() int {
	n := 0
	for _, m := range c.members {
		if !m.ok {
			n++
		}
	}
	return n
}

// RegisterMetrics exposes the fleet gauges on reg: rollout phase,
// quarantined hosts, cache hit rate, the rollout/RPC/telemetry counters,
// and the telemetry rollup aggregates. Rollouts started after this call
// additionally get their own {rollout,gen}-labeled phase series, so
// concurrent scrapes see every rollout's terminal phase — not just the
// last writer's.
func (c *Controller) RegisterMetrics(reg *obs.Registry) {
	c.reg = reg
	c.rollup.Bind(reg)
	reg.AttachCounter("fleet_telemetry_reports_total", "telemetry reports validated, cross-checked, and absorbed", &c.telemetryReports)
	reg.AttachCounter("fleet_telemetry_rejects_total", "telemetry reports rejected (invalid, stale, or counter-divergent)", &c.telemetryRejects)
	reg.GaugeFunc("fleet_rollout_phase", "current rollout phase (0=idle 1=canary 2=bake 3=promote 4=promoted 5=rolled-back)",
		func() int64 { return int64(c.phase.Load()) })
	reg.GaugeFunc("fleet_quarantined_hosts", "hosts quarantined by inventory validation",
		func() int64 { return int64(c.QuarantinedCount()) })
	reg.FloatFunc("fleet_cache_hit_rate", "compile cache hit rate (hits+coalesced over gets)",
		func() float64 { return c.cache.Stats().HitRate() })
	reg.CounterFunc("fleet_cache_compiles", "compile cache misses (actual compiles)",
		func() uint64 { return c.cache.Stats().Misses })
	reg.AttachCounter("fleet_rollouts_total", "rollouts started", &c.rollouts)
	reg.AttachCounter("fleet_promotions_total", "rollouts promoted fleet-wide", &c.promotions)
	reg.AttachCounter("fleet_rollbacks_total", "rollouts rolled back", &c.rollbacks)
	reg.AttachCounter("fleet_canary_violations_total", "canary oracle violations detected", &c.canaryViolations)
	reg.AttachCounter("fleet_rpc_retries_total", "control RPC attempts that failed and were retried", &c.rpcRetries)
}
