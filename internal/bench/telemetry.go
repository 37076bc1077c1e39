package bench

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"opendesc/internal/chaos"
	"opendesc/internal/fleet"
	"opendesc/internal/nic"
	"opendesc/internal/perf"
	"opendesc/internal/vclock"
	"opendesc/internal/workload"
)

// e21Host builds a single-host fleet on the named model, inventoried and
// provisioned, ready to pump traffic. e1000e is the workhorse: it advertises
// both intent semantics (rss, pkt_len) in hardware, so the baseline layout is
// all-hardware at 70ns/deliver and a stripped description degrades it to two
// SoftNIC shim reads at 920ns — the exact regression E21 exists to catch.
func e21Host(opts fleet.Options) (*fleet.Controller, *fleet.Host, error) {
	var model *nic.Model
	for _, m := range nic.All() {
		if m.Name == "e1000e" {
			model = m
			break
		}
	}
	if model == nil {
		return nil, nil, fmt.Errorf("e21: no e1000e model bundled")
	}
	clk := vclock.NewVirtual(0)
	opts.Clock = clk
	if opts.LeaseNs == 0 {
		opts.LeaseNs = 1 << 40
	}
	ctrl := fleet.NewController(opts)
	h, err := fleet.NewHost("e1000e-a", model, fleet.HostOptions{Clock: clk})
	if err != nil {
		return nil, nil, err
	}
	ctrl.AddHost(h, fleet.NewLink(clk, 1000))
	if rep := ctrl.Inventory(); rep.Healthy != 1 {
		return nil, nil, fmt.Errorf("e21 inventory: %d healthy, want 1", rep.Healthy)
	}
	if err := ctrl.Provision(); err != nil {
		return nil, nil, err
	}
	return ctrl, h, nil
}

// e21Tax measures the wall-clock cost of n packets through one fleet host's
// full datapath (Rx, SoftNIC golden check, flight record, histogram observe,
// deliver) with the flight recorder enabled or runtime-disabled. The loops
// are byte-identical apart from SetEnabled, so the difference is exactly the
// always-on telemetry instrumentation tax.
func e21Tax(n int, record bool) (float64, error) {
	_, h, err := e21Host(fleet.Options{})
	if err != nil {
		return 0, err
	}
	h.FlightRecorder().SetEnabled(record)
	tr, err := workload.Generate(workload.DefaultSpec())
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		p := tr.Packets[i%len(tr.Packets)]
		tries := 0
		for !h.Rx(p) {
			h.Poll()
			if tries++; tries > 1<<16 {
				return 0, fmt.Errorf("e21: rx stalled at packet %d", i)
			}
		}
		if i%8 == 7 {
			h.Poll()
		}
	}
	for h.Poll() > 0 {
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(n)
	hl := h.Health()
	if hl.Accepted != hl.Delivered || hl.Garbage != 0 {
		return 0, fmt.Errorf("e21 tax run corrupted the datapath: %+v", hl)
	}
	return ns, nil
}

// e21Report measures the periodic control-plane cost of building, sealing,
// and encoding one telemetry report from a warm host, and its wire size.
func e21Report(packets int) (nsPerReport float64, wireBytes int, err error) {
	_, h, err := e21Host(fleet.Options{})
	if err != nil {
		return 0, 0, err
	}
	tr, err := workload.Generate(workload.DefaultSpec())
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < packets; i++ {
		p := tr.Packets[i%len(tr.Packets)]
		for !h.Rx(p) {
			h.Poll()
		}
		if i%8 == 7 {
			h.Poll()
		}
	}
	for h.Poll() > 0 {
	}
	const rounds = 64
	start := time.Now()
	var data []byte
	for i := 0; i < rounds; i++ {
		if data, err = h.Telemetry(); err != nil {
			return 0, 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / rounds, len(data), nil
}

// e21Evidence is the outcome of one efficacy arm: the same tampered push
// (description stops advertising rss and pkt_len, deliveries fall back to
// bit-correct SoftNIC shims) baked with or without flight evidence.
type e21Evidence struct {
	baselineP99 uint64 // p99 poll→deliver on the all-hardware layout (ns)
	trialP99    uint64 // p99 on the stripped layout (ns), from the promoted arm
	budgetNs    uint64 // baselineP99 × factor + slack the verdict enforces
	servesNs    uint64 // deliver cost the host ends the arm serving at
	rolledBack  bool
	reason      string
}

// e21Efficacy drives the tampered rollout through one bake mode.
func e21Efficacy(disabled bool) (*e21Evidence, error) {
	ctrl, h, err := e21Host(fleet.Options{BakeTarget: 16, DisableEvidenceBake: disabled})
	if err != nil {
		return nil, err
	}
	tr, err := workload.Generate(workload.DefaultSpec())
	if err != nil {
		return nil, err
	}
	next := 0
	pump := func(rounds int) {
		for i := 0; i < rounds; i++ {
			for !h.Rx(tr.Packets[next%len(tr.Packets)]) {
				h.Poll()
			}
			next++
			if i%4 == 3 {
				h.Poll()
			}
		}
		for h.Poll() > 0 {
		}
	}

	pump(128) // baseline window on the all-hardware layout
	if got := h.DeliverCostNs(); got != 70 {
		return nil, fmt.Errorf("e21 baseline deliver cost %dns, want 70 (all-hardware rss+pkt_len)", got)
	}
	ev := &e21Evidence{baselineP99: h.TelemetryReport().Deliver.Quantile(0.99)}
	// Budget arithmetic mirrors the controller defaults (factor 4, slack 256).
	ev.budgetNs = ev.baselineP99*4 + 256

	src, err := fleet.StripSemantics(h.Model.Source, "rss", "pkt_len")
	if err != nil {
		return nil, err
	}
	r, err := ctrl.StartRollout(fleet.Upgrade{
		Name: "fw-refresh", Descriptions: map[string]string{h.Model.Name: src},
	})
	if err != nil {
		return nil, fmt.Errorf("stripped description must pass static validation: %w", err)
	}
	err = r.Run(func() { pump(32) })
	ev.servesNs = h.DeliverCostNs()
	if err != nil {
		ev.rolledBack = true
		ev.reason = err.Error()
	} else {
		// Promoted: the serving layout is the stripped trial; its cumulative
		// histogram is the trial-window evidence the other arm rolled back on.
		ev.trialP99 = h.TelemetryReport().Deliver.Quantile(0.99)
	}
	hl := h.Health()
	if hl.Garbage != 0 || hl.OrderViolations != 0 {
		return nil, fmt.Errorf("e21: SoftNIC shim deliveries must be bit-correct, got %+v", hl)
	}
	if hl.Accepted != hl.Delivered {
		return nil, fmt.Errorf("e21 conservation: accepted %d != delivered %d", hl.Accepted, hl.Delivered)
	}
	return ev, nil
}

// e21TaxCeilingNs is the hard ceiling on what the always-on recorder may add
// to one packet's trip through device and host, in nanoseconds.
const e21TaxCeilingNs = 150

// e21TaxRounds is how many alternating recorder-on/off rounds the tax
// estimate takes the minimum over. A 4096-packet pass lasts ~5 ms, about as
// long as a shared box stays at one speed, so each arm needs enough rounds to
// have landed in a fast spell.
const e21TaxRounds = 15

// E21Telemetry is the fleet observability experiment (DESIGN.md §S26):
// the always-on telemetry instrumentation tax per packet across the simulated
// device and the host path (hard ceiling e21TaxCeilingNs), the periodic
// report build/seal/encode cost and wire size, evidence-bake efficacy on a latency-degrading-but-delivering tampered
// description (counter-only bakes promote it; the flight-evidence latency
// gate rolls it back citing p99 numbers and the slowest flight deliveries),
// and the 16-seed forged-telemetry chaos sweep run twice per seed to pin
// byte-identical traces. Wall-clock numbers are context (Info) except the
// tax ceiling; counts and p99s are deterministic and gate the ratchet.
func E21Telemetry(packets int) (*Table, error) {
	if packets < 4096 {
		packets = 4096
	}

	// Telemetry tax: one untimed warm-up pass (the first pass of a process
	// pays cold caches and frequency ramp — without it the tax estimate is
	// dominated by which mode happened to run first), then alternating
	// on/off passes keeping each mode's best time (the E17 estimator — the
	// minimum is the code's cost without the noise).
	if _, err := e21Tax(packets/4, true); err != nil {
		return nil, err
	}
	onNs, offNs := -1.0, -1.0
	for round := 0; round < e21TaxRounds; round++ {
		on, err := e21Tax(packets, true)
		if err != nil {
			return nil, err
		}
		off, err := e21Tax(packets, false)
		if err != nil {
			return nil, err
		}
		if onNs < 0 || on < onNs {
			onNs = on
		}
		if offNs < 0 || off < offNs {
			offNs = off
		}
	}
	// The ceiling is absolute. What the recorder costs per packet does not
	// depend on how long the simulated device takes to produce that packet,
	// and Rx+Poll is ~90% simulator: a ratio over it loosens whenever the
	// simulator slows and trips whenever it speeds up. 150 ns/pkt is what 5%
	// came to while RxPacket cost ~3 µs.
	taxNs := onNs - offNs
	if taxNs >= e21TaxCeilingNs {
		return nil, fmt.Errorf("e21: telemetry tax %.0f ns/pkt (recorder on %.0f, off %.0f), ceiling is %d ns/pkt",
			taxNs, onNs, offNs, e21TaxCeilingNs)
	}
	tax := taxNs / offNs

	reportNs, reportBytes, err := e21Report(1024)
	if err != nil {
		return nil, err
	}

	// Efficacy: the same tampered push through both bake modes.
	caught, err := e21Efficacy(false)
	if err != nil {
		return nil, err
	}
	missed, err := e21Efficacy(true)
	if err != nil {
		return nil, err
	}
	if !caught.rolledBack {
		return nil, fmt.Errorf("e21: latency-degrading upgrade promoted under evidence bake")
	}
	for _, want := range []string{"latency evidence", "slowest deliveries", "deliver["} {
		if !strings.Contains(caught.reason, want) {
			return nil, fmt.Errorf("e21: rollback reason %q does not cite %q", caught.reason, want)
		}
	}
	if caught.servesNs != 70 {
		return nil, fmt.Errorf("e21: host serves at %dns after rollback, want the 70ns last-known-good", caught.servesNs)
	}
	if missed.rolledBack {
		return nil, fmt.Errorf("e21: counter-only bake unexpectedly rolled back: %s", missed.reason)
	}
	if missed.servesNs != 920 {
		return nil, fmt.Errorf("e21: promoted trial serves at %dns, want 920 (two soft reads)", missed.servesNs)
	}
	// The cost model is deterministic, so the evidence numbers are exact:
	// 70ns lands in the [64,127] log2 bucket, 920ns in [512,1023].
	if caught.baselineP99 != 127 || missed.trialP99 != 1023 {
		return nil, fmt.Errorf("e21: p99 evidence baseline=%d trial=%d, want 127/1023",
			caught.baselineP99, missed.trialP99)
	}
	if missed.trialP99 <= caught.budgetNs {
		return nil, fmt.Errorf("e21: trial p99 %dns within budget %dns — gate was vacuous",
			missed.trialP99, caught.budgetNs)
	}

	// Forged-telemetry chaos sweep: host 1 re-seals clean-slate reports with
	// valid digests; only the controller's counter cross-check can expose it.
	// Each seed runs twice — the traces must be byte-identical.
	var cases, reports, rejects uint64
	for seed := uint64(1); seed <= 16; seed++ {
		cfg := chaos.FleetConfig{Hosts: 8, Steps: 512, ForgedTelemetry: true}
		res := chaos.RunFleet(cfg, seed)
		if res.Violation != nil {
			return nil, fmt.Errorf("e21 chaos seed=%d: %v", seed, res.Violation)
		}
		again := chaos.RunFleet(cfg, seed)
		if !bytes.Equal(res.Trace, again.Trace) {
			return nil, fmt.Errorf("e21 chaos seed=%d: forged-telemetry traces differ between identical runs", seed)
		}
		cases++
		reports += res.TelemetryReports
		rejects += res.TelemetryRejects
	}
	if reports == 0 || rejects == 0 {
		return nil, fmt.Errorf("e21 chaos: reports=%d rejects=%d — forged reports never caught", reports, rejects)
	}

	tab := &Table{
		ID:     "E21",
		Title:  fmt.Sprintf("fleet telemetry: instrumentation tax, evidence bake, forged-report sweep (%d packets/pass)", packets),
		Header: []string{"measurement", "value"},
		Record: newPerfRecord("e21_teleme", "E21",
			"fleet telemetry: instrumentation tax, evidence-bake efficacy, forged-report chaos sweep", packets, 0),
	}
	rec := tab.Record
	addTiming(rec, "datapath/recorder_on", "ns/pkt", onNs)
	addTiming(rec, "datapath/recorder_off", "ns/pkt", offNs)
	rec.AddValue("telemetry/tax_ns", "ns/pkt", taxNs, perf.Info)
	rec.AddValue("telemetry/tax_pct", "ratio", tax, perf.Info)
	rec.AddValue("report/encode_ns", "ns", reportNs*handicap, perf.Info)
	rec.AddValue("report/bytes", "count", float64(reportBytes), perf.Info)
	rec.AddValue("evidence/baseline_p99_ns", "count", float64(caught.baselineP99), perf.Lower)
	rec.AddValue("evidence/trial_p99_ns", "count", float64(missed.trialP99), perf.Info)
	rec.AddValue("evidence/budget_ns", "count", float64(caught.budgetNs), perf.Info)
	rec.AddValue("evidence/rollbacks", "count", boolCount(caught.rolledBack), perf.Higher)
	rec.AddValue("evidence/counter_bake_promotions", "count", boolCount(!missed.rolledBack), perf.Info)
	rec.AddValue("chaos/cases", "count", float64(cases), perf.Higher)
	rec.AddValue("chaos/reports", "count", float64(reports), perf.Higher)
	rec.AddValue("chaos/forged_rejects", "count", float64(rejects), perf.Higher)
	rec.AddValue("chaos/violations", "count", 0, perf.Lower)

	tab.AddRow("datapath, recorder on", fmt.Sprintf("%.0f ns/pkt", onNs))
	tab.AddRow("datapath, recorder disabled", fmt.Sprintf("%.0f ns/pkt (tax %.0f ns/pkt, ceiling %d; %.1f%% of device+host)",
		offNs, taxNs, e21TaxCeilingNs, 100*tax))
	tab.AddRow("report build+seal+encode", fmt.Sprintf("%.0f ns (%d bytes on the wire)", reportNs, reportBytes))
	tab.AddRow("baseline p99 / budget", fmt.Sprintf("%d ns / %d ns (×4 + 256)", caught.baselineP99, caught.budgetNs))
	tab.AddRow("stripped trial p99", fmt.Sprintf("%d ns (70→920 ns deliver, zero garbage)", missed.trialP99))
	tab.AddRow("evidence bake", "rolled back, slowest flight deliveries cited verbatim")
	tab.AddRow("counter-only bake", fmt.Sprintf("promoted the regression (serves at %d ns)", missed.servesNs))
	tab.AddRow("forged-telemetry chaos", fmt.Sprintf("%d seeds ×2 byte-identical, %d reports, %d forged rejected, 0 violations",
		cases, reports, rejects))
	tab.Note = fmt.Sprintf(
		"tampered push = rss/pkt_len @semantic annotations stripped: deliveries stay bit-correct through SoftNIC\n"+
			"shims, so Health-counter bakes see zero violations and promote; only the flight-evidence latency gate\n"+
			"(trial p99 ≤ baseline p99 × 4 + 256ns) catches it, citing the slowest deliver events verbatim\n"+
			"rollback reason excerpt: %.160s…", caught.reason)
	return tab, nil
}

func boolCount(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
