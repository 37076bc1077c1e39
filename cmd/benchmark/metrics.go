package main

import (
	"fmt"
	"math"
	"slices"

	"opendesc"
)

// metricDef declares one metric: the name and unit it is printed under, the
// direction that is better, and — for end-to-end metrics — the share of the
// parent's median by which it may worsen before a change is a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the numbers a user of the system feels. Every workload
// reports every one of them (README.md says what each means on each
// workload); they are timed with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"sim_pps", "pkt/s", higher, 0.25},
	{"host_ns_per_pkt", "ns", lower, 0.25},
	{"allocs_per_pkt", "allocs", lower, 0.05},
	{"lat_p50_us", "us", lower, 0.25},
}

// perLayer are the numbers of single layers, taken in the traced pass from
// outside each layer's public functions. A layer that does not run on a
// workload reports 0 there. They explain the end-to-end numbers and are
// never gated.
var perLayer = []metricDef{
	{Name: "nicsim.rx_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "nicsim.rx_allocs_per_pkt", Unit: "allocs", Better: lower},
	{Name: "nicsim.cmpt_bytes", Unit: "B", Better: lower},
	{Name: "nicsim.apply_config_us", Unit: "us", Better: lower},
	{Name: "nicsim.new_us", Unit: "us", Better: lower},
	{Name: "ring.push_consume_ns", Unit: "ns", Better: lower},
	{Name: "ring.highwater", Unit: "count", Better: lower},
	{Name: "ring.full_stalls", Unit: "count", Better: lower},
	{Name: "codegen.read_hw_ns", Unit: "ns", Better: lower},
	{Name: "codegen.read_soft_ns", Unit: "ns", Better: lower},
	{Name: "codegen.hw_read_frac", Unit: "ratio", Better: higher},
	{Name: "codegen.validate_struct_ns", Unit: "ns", Better: lower},
	{Name: "codegen.validate_deep_ns", Unit: "ns", Better: lower},
	{Name: "codegen.link_us", Unit: "us", Better: lower},
	{Name: "softnic.shim_ns_per_call", Unit: "ns", Better: lower},
	{Name: "opendesc.open_us", Unit: "us", Better: lower},
	{Name: "opendesc.rx_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "opendesc.poll_self_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "opendesc.get_ns_per_read", Unit: "ns", Better: lower},
	{Name: "opendesc.queue_wait_us_p50", Unit: "us", Better: lower},
	{Name: "opendesc.quarantined", Unit: "1/Mpkt", Better: lower},
	{Name: "opendesc.soft_delivered", Unit: "1/Mpkt", Better: lower},
	{Name: "flight.record_ns", Unit: "ns", Better: lower},
	{Name: "flight.tax_frac", Unit: "ratio", Better: lower},
	{Name: "obs.observe_ns", Unit: "ns", Better: lower},
	{Name: "evolve.poll_self_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "evolve.renegotiate_us", Unit: "us", Better: lower},
	{Name: "evolve.switches", Unit: "1/Mpkt", Better: lower},
	{Name: "evolve.drained_pkts", Unit: "1/Mpkt", Better: lower},
	{Name: "evolve.rollbacks", Unit: "count", Better: lower},
	{Name: "tenant.rx_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "tenant.classify_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "tenant.poll_self_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "tenant.steals", Unit: "1/Mpkt", Better: lower},
	{Name: "tenant.shard_imbalance", Unit: "ratio", Better: lower},
	{Name: "tenant.fairness", Unit: "ratio", Better: higher},
	{Name: "p4.frontend_us", Unit: "us", Better: lower},
	{Name: "core.select_us", Unit: "us", Better: lower},
	{Name: "core.paths_enumerated", Unit: "count", Better: lower},
	{Name: "diffverify.verify_ms_per_nic", Unit: "ms", Better: lower},
	{Name: "diffverify.checks", Unit: "count", Better: higher},
	{Name: "workload.gen_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "bench.clock_ns", Unit: "ns", Better: lower},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: lower},
	{Name: "bench.residual_frac", Unit: "ratio", Better: lower},
	{Name: "bench.gen_late_frac", Unit: "ratio", Better: lower},
	{Name: "bench.slo_ok_frac", Unit: "ratio", Better: higher},
	{Name: "bench.lat_p90_us", Unit: "us", Better: lower},
	{Name: "bench.lat_p99_us", Unit: "us", Better: lower},
	{Name: "bench.lat_p999_us", Unit: "us", Better: lower},
	{Name: "bench.r050k_p50_us", Unit: "us", Better: lower},
	{Name: "bench.r200k_p50_us", Unit: "us", Better: lower},
	{Name: "bench.r200k_p90_us", Unit: "us", Better: lower},
	{Name: "bench.max_rate_ok_pps", Unit: "pkt/s", Better: higher},
}

// measured is the outcome of one pass over one workload.
type measured struct {
	Workload  string             `json:"workload"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Detail are human-readable lines: sample counts, ungated tails, tables.
	Detail []string `json:"-"`
	// Problems make the run incorrect; Warnings do not.
	Problems []string `json:"problems,omitempty"`
	Warnings []string `json:"warnings,omitempty"`
}

func (m *measured) correct() bool { return m.Failed == 0 && len(m.Problems) == 0 }

func (m *measured) problemf(format string, a ...any) {
	m.Problems = append(m.Problems, fmt.Sprintf(format, a...))
}

func (m *measured) warnf(format string, a ...any) {
	m.Warnings = append(m.Warnings, fmt.Sprintf(format, a...))
}

func (m *measured) detailf(format string, a ...any) {
	m.Detail = append(m.Detail, fmt.Sprintf(format, a...))
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// latencySummary sorts the samples and describes them by the percentile
// rule: the median and the highest percentile with at least minBeyond
// samples beyond it, with the sample count.
func latencySummary(samples []uint32) string {
	slices.Sort(samples)
	n := len(samples)
	s := fmt.Sprintf("n=%d p50=%.2fus", n, float64(quantile(samples, 0.5))/1e3)
	if q, ok := highestTail(n); ok {
		s += fmt.Sprintf(" p%g=%.2fus (highest percentile with >=%d samples beyond it)", q*100, float64(quantile(samples, q))/1e3, minBeyond)
	}
	return s
}

// nsPerPkt is the quiet-lap cost of one packet, in the nanoseconds ns picks
// out of a unit. A unit's cost is shared among the packets it offered (on a
// correct run every one of them is delivered, if not within the same unit:
// the Poll of a long burst is in its last unit).
func (w *window) nsPerPkt(ns func(prev, cur cut) int64) float64 {
	return mean(w.quietLap(func(prev, cur cut) float64 {
		if cur.offered == prev.offered {
			return math.NaN()
		}
		return float64(ns(prev, cur)) / float64(cur.offered-prev.offered)
	}))
}

// busyNsPerPkt is the time inside the stack's Rx and Poll calls per packet.
func (w *window) busyNsPerPkt() float64 {
	return w.nsPerPkt(func(prev, cur cut) int64 { return cur.rxNs - prev.rxNs + cur.pollNs - prev.pollNs })
}

// hostNsPerPkt is the time inside the stack's Poll calls per packet.
func (w *window) hostNsPerPkt() float64 {
	return w.nsPerPkt(func(prev, cur cut) int64 { return cur.pollNs - prev.pollNs })
}

// quietLatencyUs is the q-quantile of a unit's latency samples (a closed-loop
// or grid unit has one), taken quiet per lap position, and then the median
// position, in microseconds.
func (w *window) quietLatencyUs(q float64) float64 {
	return median(w.quietLap(func(prev, cur cut) float64 {
		switch cur.lat - prev.lat {
		case 0:
			return math.NaN()
		case 1:
			return float64(w.lat[prev.lat])
		}
		samples := slices.Clone(w.lat[prev.lat:cur.lat])
		slices.Sort(samples)
		return float64(quantile(samples, q))
	})) / 1e3
}

// sloShare is the share of the window's offered packets whose latency sample
// is within the limit; refused and undelivered packets miss it. It is taken
// over the whole window, stalls of the box included, and so is not gated.
func sloShare(w *window, sloUs float64, pktsPerSample uint64) float64 {
	ok := uint64(0)
	for _, l := range w.lat {
		if float64(l) <= sloUs*1e3 {
			ok += pktsPerSample
		}
	}
	return float64(min(ok, w.good)) / float64(w.offered)
}

// endToEndMetrics derives the end-to-end numbers from an untraced pass
// and runs the workload's sanity predictions.
func endToEndMetrics(p *pass) *measured {
	m := &measured{Workload: p.w.name, Metrics: map[string]float64{}}
	for _, w := range p.steps {
		m.Attempted += w.offered
		m.Failed += w.failed()
	}
	g := p.steps[p.gated]
	if g.delivered == 0 {
		m.problemf("no packet was delivered")
		return m
	}
	pktsPerSample := uint64(1)
	if p.w.kind != openLoop {
		pktsPerSample = uint64(p.w.burst)
	}
	var setupNs float64
	for _, ns := range p.quietSetup() {
		setupNs += ns
	}
	m.Metrics["setup_s"] = setupNs / 1e9
	m.Metrics["sim_pps"] = 1e9 / g.busyNsPerPkt()
	m.Metrics["host_ns_per_pkt"] = g.hostNsPerPkt()
	m.Metrics["allocs_per_pkt"] = float64(g.mallocs) / float64(g.delivered)
	m.Metrics["lat_p50_us"] = p.latencyUs()

	m.detailf("window: %d offered, %d delivered, %d refused, %d reads; busy %.1f%% of %.2fs (Rx %.1f%%, Poll %.1f%%); the timings above are quiet-machine numbers: per lap position the %g%% quantile over %d units, %.0f laps",
		g.offered, g.delivered, g.refused, g.reads, 100*float64(g.rxNs+g.pollNs)/float64(g.wallNs), float64(g.wallNs)/1e9,
		100*float64(g.rxNs)/float64(g.wallNs), 100*float64(g.pollNs)/float64(g.wallNs), 100*quietQuantile, len(g.cuts)-1, float64(len(g.cuts)-1)/float64(g.slots))
	m.detailf("the same over the whole window, box and all: %.0f pkt/s, host %.1f ns/pkt",
		float64(g.delivered)/(float64(g.rxNs+g.pollNs)/1e9), float64(g.pollNs)/float64(g.delivered))
	m.detailf("latency over the whole window (%s): %s; %.4f within the %.0fus limit",
		latencyKind(p.w), latencySummary(slices.Clone(g.lat)), sloShare(g, p.w.sloUs, pktsPerSample), p.w.sloUs)
	var wholeNs int64
	for _, ns := range p.setupNs {
		wholeNs += ns
	}
	rounds := len(p.setupNs) / p.setupPieces
	m.detailf("set-up: %d rounds of %d pieces, %.4fs each as they ran", rounds, p.setupPieces, float64(wholeNs)/float64(rounds)/1e9)
	if b := p.bring; b != nil {
		m.detailf("ungated, the median cell: cold CompileP4 %.1fus, Open %.1fus over %d each; six-NIC verification pass %.2fms over %d",
			b.quietUs(b.compileNs), b.quietUs(b.openNs), len(b.openNs), float64(quiet(slices.Clone(b.verifyNs)))/1e6, len(b.verifyNs))
	}
	sanity(p, m)
	if p.w.kind == openLoop {
		openLoopContext(p, m)
	}
	return m
}

// latencyUs is lat_p50_us: what a packet waits for, on a quiet machine.
func (p *pass) latencyUs() float64 {
	g := p.steps[p.gated]
	switch p.w.kind {
	case openLoop:
		// A packet's own latency from its due time: the median of each unit.
		return g.quietLatencyUs(0.5)
	case grid:
		// Time to first traffic of the median cell: its cold compile, its
		// open and its smoke burst, each when the machine was quiet.
		b := p.bring
		firstTraffic := g.quietLap(func(prev, cur cut) float64 {
			return float64(cur.rxNs - prev.rxNs + cur.pollNs - prev.pollNs)
		})
		compile, open := b.quietCells(b.compileNs), b.quietCells(b.openNs)
		for c := range firstTraffic {
			firstTraffic[c] += compile[c] + open[c]
		}
		return median(firstTraffic) / 1e3
	}
	// The turnaround of a burst (first Rx to last handler return, the
	// latency of its last packet): the mean burst of the quiet lap.
	return float64(p.w.burst) * g.busyNsPerPkt() / 1e3
}

func latencyKind(w *workloadDef) string {
	switch w.kind {
	case openLoop:
		return fmt.Sprintf("per packet from its due time at %d pkt/s", gatedRatePPS)
	case grid:
		return fmt.Sprintf("cold compile + open + %d-packet smoke burst of one cell: time to first traffic", w.burst)
	}
	return fmt.Sprintf("turnaround of a %d-packet burst", w.burst)
}

// sanity runs the predictions a workload is built on: if one fails, the
// workload is not measuring what its name says.
func sanity(p *pass, m *measured) {
	g := p.steps[p.gated]
	switch p.w.name {
	case "hw_fastpath":
		if miss := p.r.st.drv.Result.Missing(); len(miss) != 0 {
			m.problemf("hw_fastpath must be all-hardware, but %v are shims", miss)
		}
	case "shim_hardened":
		if miss := p.r.st.drv.Result.Missing(); len(miss) < 3 {
			m.problemf("shim_hardened needs at least 3 shimmed semantics, has %v", miss)
		}
		if p.quarantined == 0 {
			m.problemf("shim_hardened quarantined nothing: the seeded corruption did not reach the validator")
		}
		m.detailf("hardening: %d quarantined, %d delivered from software", p.quarantined, p.softDelivered)
	case "evolve_shift":
		want := g.delivered / flipEvery
		if p.switches+1 < want || p.switches > want+1 {
			m.problemf("evolve_shift made %d switchovers over %d deliveries, want %d±1 (one per read-mix flip)", p.switches, g.delivered, want)
		}
		if p.rollbacks != 0 {
			m.problemf("evolve_shift rolled back %d switchovers", p.rollbacks)
		}
		slices.Sort(g.switchNs)
		m.detailf("switchovers: %d (%d rollbacks, %d packets drained), switching-Poll p50 %.1fus over %d observed",
			p.switches, p.rollbacks, p.drained, float64(quantile(g.switchNs, 0.5))/1e3, len(g.switchNs))
	case "tenants_zipf":
		if f := tenantFairness(p); f < 0.99 {
			m.problemf("tenants_zipf service fairness %.4f < 0.99", f)
		}
	}
}

// tenantFairness is Jain's index over per-tenant good deliveries ÷ offered.
func tenantFairness(p *pass) float64 {
	c := p.r.c
	offeredPerLap := make([]float64, numTenants)
	for _, t := range c.tr.tenantOf {
		offeredPerLap[t]++
	}
	// Whole laps were offered (bursts divide the trace), so per-tenant
	// offered load is the per-lap count times the same lap count.
	laps := float64(c.delivered) / tracePackets
	shares := make([]float64, numTenants)
	for t := range shares {
		if offeredPerLap[t] > 0 {
			shares[t] = float64(c.perTenant[t]) / (offeredPerLap[t] * laps)
		} else {
			shares[t] = 1
		}
	}
	return opendesc.JainFairness(shares)
}

// stepSaturated reports whether an open-loop step could not keep its rate:
// the stack was busy nearly all the time, or the generator ended the step
// far behind schedule. Its latencies then measure the backlog, not the stack.
func stepSaturated(w *window) bool {
	return float64(w.rxNs+w.pollNs) > 0.9*float64(w.wallNs) || w.endLateNs > 1_000_000
}

// openLoopContext reports the ungated open-loop numbers: every step's
// latency, the tails of the gated step, generator lateness, and the highest
// stepped rate the stack sustains within the limit.
func openLoopContext(p *pass, m *measured) map[string]float64 {
	out := map[string]float64{}
	maxOK := 0.0
	for i, s := range openLoopSteps {
		w := p.steps[i]
		slo := sloShare(w, p.w.sloUs, 1)
		sat := stepSaturated(w)
		if !sat && slo >= 0.95 && s.pps > maxOK {
			maxOK = s.pps
		}
		m.detailf("step %6.0f pkt/s: %s; slo_ok %.4f; busy %.1f%%; late sends %.4f; saturated=%v",
			s.pps, latencySummary(slices.Clone(w.lat)), slo, 100*float64(w.rxNs+w.pollNs)/float64(w.wallNs),
			float64(w.lateSends)/float64(w.offered), sat)
		out[fmt.Sprintf("bench.r%03.0fk_p50_us", s.pps/1000)] = w.quietLatencyUs(0.5)
		out[fmt.Sprintf("bench.r%03.0fk_p90_us", s.pps/1000)] = w.quietLatencyUs(0.9)
	}
	g := p.steps[p.gated]
	whole := slices.Clone(g.lat)
	slices.Sort(whole)
	out["bench.gen_late_frac"] = float64(g.lateSends) / float64(g.offered)
	out["bench.lat_p99_us"] = float64(quantile(whole, 0.99)) / 1e3
	out["bench.lat_p999_us"] = float64(quantile(whole, 0.999)) / 1e3
	out["bench.max_rate_ok_pps"] = maxOK
	m.detailf("ungated at %d pkt/s: quiet p90=%.2fus; over the whole step p99=%.1fus p99.9=%.1fus; highest stepped rate within the limit: %.0f pkt/s",
		gatedRatePPS, g.quietLatencyUs(0.9), out["bench.lat_p99_us"], out["bench.lat_p999_us"], maxOK)
	if out["bench.gen_late_frac"] > 0.01 {
		m.warnf("%.2f%% of sends at %d pkt/s were issued >10us late: latencies include generator lag", 100*out["bench.gen_late_frac"], gatedRatePPS)
	}
	if stepSaturated(g) {
		m.warnf("the %d pkt/s step shows backlog growth: this box is too slow for the fixed rate, its latencies are unresolved", gatedRatePPS)
	}
	return out
}
