package bench

import (
	"fmt"
	"math"

	"opendesc/internal/core"
	"opendesc/internal/evolve"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
	"opendesc/internal/perf"
	"opendesc/internal/rxpath"
	"opendesc/internal/semantics"
	"opendesc/internal/workload"
)

// e15Phase describes one half of the shifting workload: how often the
// application reads each requested semantic (1 = every packet).
type e15Phase struct {
	name string
	mix  map[semantics.Name]float64
}

// e15ReadEvery converts a mix frequency into a read period for the drive
// loop (freq 1.0 → every packet, 1/16 → every 16th).
func e15ReadEvery(freq float64) int {
	if freq >= 1 {
		return 1
	}
	if freq <= 0 {
		return 0
	}
	return int(math.Round(1 / freq))
}

// e15Cost is the modelled steady-state per-packet datapath cost of running
// a layout under a read mix: Eq. 1 evaluated with the observed frequencies —
// sum of freq(s)·w(s) over semantics the path leaves to software, plus the
// alpha-weighted DMA footprint.
func e15Cost(res *core.Result, mix map[semantics.Name]float64, costs semantics.CostModel) float64 {
	c := core.DefaultAlpha * float64(res.CompletionBytes())
	for _, s := range res.Missing() {
		c += mix[s] * costs(s)
	}
	return c
}

// E15Evolve drives a workload whose feature mix shifts mid-run through the
// internal/evolve renegotiation engine and compares its per-phase datapath
// cost against the layout pinned at compile time. Phase 1 is checksum-heavy
// (the mix the static compile is optimal for); phase 2 flips to hash-heavy,
// stranding the pinned layout while the evolving driver renegotiates onto
// the RSS path. Reports adaptation latency (packets into phase 2 before the
// generation swap) and the switchover loss counter, which must be zero.
func E15Evolve(packets int) (*Table, error) {
	if packets < 512 {
		packets = 512
	}
	const nicName = "e1000e"
	intent, err := core.IntentFromSemantics("e15", semantics.Default,
		semantics.RSS, semantics.IPChecksum, semantics.VLAN, semantics.PktLen)
	if err != nil {
		return nil, err
	}

	phases := []e15Phase{
		{"csum-heavy", map[semantics.Name]float64{
			semantics.IPChecksum: 1, semantics.RSS: 1.0 / 16,
			semantics.VLAN: 1.0 / 4, semantics.PktLen: 1.0 / 4,
		}},
		{"hash-heavy", map[semantics.Name]float64{
			semantics.RSS: 1, semantics.IPChecksum: 1.0 / 16,
			semantics.VLAN: 1.0 / 4, semantics.PktLen: 1.0 / 4,
		}},
	}

	// MinShimSamples = MaxUint64 keeps the re-solve on the static w(s)
	// table so the experiment is deterministic across machines; the live
	// signal is then purely the observed read mix.
	model, err := nic.Load(nicName)
	if err != nil {
		return nil, err
	}
	dev, err := nicsim.New(model, nicsim.Config{})
	if err != nil {
		return nil, err
	}
	eng, err := evolve.New(dev, intent, core.CompileOptions{}, evolve.Options{
		Interval:       256,
		MinWindow:      128,
		MinShimSamples: math.MaxUint64,
	})
	if err != nil {
		return nil, err
	}
	pinned := eng.Result() // generation 0 == the static compile

	spec := workload.DefaultSpec()
	spec.Packets = packets
	tr, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}

	costs := semantics.RegistryCosts(semantics.Default)
	tab := &Table{
		ID:     "E15",
		Title:  "live renegotiation under a mid-run feature-mix shift (e1000e)",
		Header: []string{"phase", "driver", "path", "bytes", "cost/pkt", "adapt(pkts)"},
		Record: newPerfRecord("e15_evolve", "E15",
			"Live renegotiation under a mid-run feature-mix shift (e1000e)", packets, 0),
	}
	// E15 is a deterministic seeded drive, not a timed min-of-rounds loop.
	tab.Record.Method.Estimator = "deterministic-drive"
	tab.Record.Method.Warmup = false

	perPhase := packets / len(phases)
	adapt := make([]int, len(phases))
	results := make([]*core.Result, len(phases))
	for pi, ph := range phases {
		adapt[pi] = -1
		startGen := eng.Generation()
		for i := 0; i < perPhase; i++ {
			p := tr.Packets[(pi*perPhase+i)%len(tr.Packets)]
			if !eng.Rx(p) {
				return nil, fmt.Errorf("e15: rx stalled in phase %s packet %d", ph.name, i)
			}
			delivered := i
			eng.Poll(func(_ []byte, m rxpath.Meta) {
				for s, freq := range ph.mix {
					if every := e15ReadEvery(freq); every != 0 && delivered%every == 0 {
						m.Get(string(s))
					}
				}
			})
			if adapt[pi] < 0 && eng.Generation() != startGen {
				adapt[pi] = i + 1
			}
		}
		results[pi] = eng.Result()
	}

	st := eng.Stats()
	rec := tab.Record
	for pi, ph := range phases {
		pinnedCost := e15Cost(pinned, ph.mix, costs)
		evolvedCost := e15Cost(results[pi], ph.mix, costs)
		tab.AddRow(ph.name, "pinned", pathLabel(pinned), pinned.CompletionBytes(),
			pinnedCost, "-")
		ad := "converged"
		if adapt[pi] >= 0 {
			ad = fmt.Sprintf("%d", adapt[pi])
		}
		tab.AddRow(ph.name, "evolving", pathLabel(results[pi]), results[pi].CompletionBytes(),
			evolvedCost, ad)

		// The modelled Eq. 1 costs are deterministic, but they move whenever
		// the solver or cost table legitimately changes — gate them with the
		// ratio threshold, not exactly.
		rec.AddValue("cost/"+ph.name+"/pinned", "cost_per_pkt", pinnedCost, perf.Lower)
		rec.AddValue("cost/"+ph.name+"/evolving", "cost_per_pkt", evolvedCost, perf.Lower)
		rec.AddValue("footprint/"+ph.name+"/evolving", "bytes",
			float64(results[pi].CompletionBytes()), perf.Lower)
		if adapt[pi] >= 0 {
			rec.AddValue("adapt_packets/"+ph.name, "count", float64(adapt[pi]), perf.Lower)
		}
	}
	rec.AddValue("switch/drops", "count", float64(st.SwitchDrops), perf.Lower)
	rec.AddValue("switch/count", "count", float64(st.Switchovers), perf.Info)
	rec.AddValue("switch/drained", "count", float64(st.PacketsDrained), perf.Info)
	rec.AddValue("switch/latency_p50", "ns", float64(st.SwitchLatencyP50), perf.Info)
	tab.Note = fmt.Sprintf(
		"cost/pkt = Σ freq(s)·w(s) over software semantics + α·bytes (Eq. 1 under the live mix)\n"+
			"switchovers=%d renegotiations=%d drained=%d drops=%d (must be 0) switch p50=%dns",
		st.Switchovers, st.Renegotiations, st.PacketsDrained, st.SwitchDrops, st.SwitchLatencyP50)
	if st.SwitchDrops != 0 {
		return nil, fmt.Errorf("e15: %d packets dropped across switchovers, want 0", st.SwitchDrops)
	}
	return tab, nil
}

// pathLabel renders a result's selected path as its hardware-provided set.
func pathLabel(res *core.Result) string {
	return res.HardwareSet().String()
}
