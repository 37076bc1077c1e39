package bench

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"opendesc/internal/chaos"
	"opendesc/internal/fleet"
	"opendesc/internal/nic"
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

// e21Result is the whole experiment: both bake arms of the same tampered
// push, the report cost, and the forged-telemetry sweep's totals.
type e21Result struct {
	caught, missed *e21Evidence // evidence bake, counter-only bake
	reportNs       float64
	reportBytes    int

	chaosCases, chaosReports, chaosRejects uint64
}

// E21Telemetry is the fleet observability experiment (EXPERIMENTS.md E21):
// the periodic report build/seal/encode cost and wire size (context),
// evidence-bake efficacy on a latency-degrading-but-delivering tampered
// description (counter-only bakes promote it; the flight-evidence latency
// gate rolls it back citing p99 numbers and the slowest flight deliveries),
// and the 16-seed forged-telemetry chaos sweep run twice per seed to pin
// byte-identical traces. The p99s come from a deterministic cost model and
// repeat exactly. What always-on recording costs a packet is cmd/benchmark's
// flight.tax_frac.
func E21Telemetry() (*Table, error) {
	res := &e21Result{}
	var err error
	if res.reportNs, res.reportBytes, err = e21Report(1024); err != nil {
		return nil, err
	}

	// Efficacy: the same tampered push through both bake modes.
	if res.caught, err = e21Efficacy(false); err != nil {
		return nil, err
	}
	if res.missed, err = e21Efficacy(true); err != nil {
		return nil, err
	}
	caught, missed := res.caught, res.missed
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
	if missed.trialP99 <= caught.budgetNs {
		return nil, fmt.Errorf("e21: trial p99 %dns within budget %dns — gate was vacuous",
			missed.trialP99, caught.budgetNs)
	}

	// Forged-telemetry chaos sweep: host 1 re-seals clean-slate reports with
	// valid digests; only the controller's counter cross-check can expose it.
	// Each seed runs twice — the traces must be byte-identical.
	for seed := uint64(1); seed <= 16; seed++ {
		cfg := chaos.Config{Mode: chaos.ModeFleet, Queues: 8, Steps: 512, ForgedTelemetry: true}
		r := chaos.Run(cfg, seed)
		if r.Violation != nil {
			return nil, fmt.Errorf("e21 chaos seed=%d: %v", seed, r.Violation)
		}
		again := chaos.Run(cfg, seed)
		if !bytes.Equal(r.Trace, again.Trace) {
			return nil, fmt.Errorf("e21 chaos seed=%d: forged-telemetry traces differ between identical runs", seed)
		}
		res.chaosCases++
		res.chaosReports += r.TelemetryReports
		res.chaosRejects += r.TelemetryRejects
	}

	tab := &Table{
		ID:     "E21",
		Title:  "fleet telemetry: evidence bake, forged-report sweep",
		Header: []string{"measurement", "value"},
		Note: fmt.Sprintf(
			"tampered push = rss/pkt_len @semantic annotations stripped: deliveries stay bit-correct through SoftNIC\n"+
				"shims, so Health-counter bakes see zero violations and promote; only the flight-evidence latency gate\n"+
				"(trial p99 ≤ baseline p99 × 4 + 256ns) catches it, citing the slowest deliver events verbatim\n"+
				"rollback reason excerpt: %.160s…", caught.reason),
		run: res,
	}
	tab.AddRow("report build+seal+encode", fmt.Sprintf("%.0f ns (%d bytes on the wire)", res.reportNs, res.reportBytes))
	tab.AddRow("baseline p99 / budget", fmt.Sprintf("%d ns / %d ns (×4 + 256)", caught.baselineP99, caught.budgetNs))
	tab.AddRow("stripped trial p99", fmt.Sprintf("%d ns (70→920 ns deliver, zero garbage)", missed.trialP99))
	tab.AddRow("evidence bake", "rolled back, slowest flight deliveries cited verbatim")
	tab.AddRow("counter-only bake", fmt.Sprintf("promoted the regression (serves at %d ns)", missed.servesNs))
	tab.AddRow("forged-telemetry chaos", fmt.Sprintf("%d seeds ×2 byte-identical, %d reports, %d forged rejected, 0 violations",
		res.chaosCases, res.chaosReports, res.chaosRejects))
	return tab, nil
}
