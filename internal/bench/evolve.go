package bench

import (
	"fmt"
	"math"

	"opendesc/internal/core"
	"opendesc/internal/evolve"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
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

// e15Run is the outcome of the two-phase drive: per phase the layout each
// driver ended on and its modelled cost under that phase's mix, and the
// engine's switchover counters.
type e15Run struct {
	pinned *core.Result // generation 0, the static compile
	phases []e15PhaseRun
	stats  evolve.Stats
}

type e15PhaseRun struct {
	name                 string
	evolved              *core.Result
	pinnedCost, evolCost float64
	adapt                int // packets into the phase before the generation changed; -1 = never
}

// E15Evolve drives a workload whose feature mix shifts mid-run through the
// internal/evolve renegotiation engine and compares its per-phase datapath
// cost against the layout pinned at compile time. Phase 1 is checksum-heavy
// (the mix the static compile is optimal for); phase 2 flips to hash-heavy,
// stranding the pinned layout while the evolving driver renegotiates onto
// the RSS path. Reports adaptation latency (packets into phase 2 before the
// generation swap) and the switchover loss counter, which must be zero.
func E15Evolve(packets int) (*Table, error) {
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
	run := &e15Run{pinned: eng.Result()}

	spec := workload.DefaultSpec()
	spec.Packets = packets
	tr, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}

	costs := semantics.RegistryCosts(semantics.Default)
	perPhase := packets / len(phases)
	for pi, ph := range phases {
		adapt := -1
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
			if adapt < 0 && eng.Generation() != startGen {
				adapt = i + 1
			}
		}
		res := eng.Result()
		run.phases = append(run.phases, e15PhaseRun{
			name: ph.name, evolved: res, adapt: adapt,
			pinnedCost: e15Cost(run.pinned, ph.mix, costs),
			evolCost:   e15Cost(res, ph.mix, costs),
		})
	}
	run.stats = eng.Stats()
	if run.stats.SwitchDrops != 0 {
		return nil, fmt.Errorf("e15: %d packets dropped across switchovers, want 0", run.stats.SwitchDrops)
	}

	st := run.stats
	tab := &Table{
		ID:     "E15",
		Title:  "live renegotiation under a mid-run feature-mix shift (e1000e)",
		Header: []string{"phase", "driver", "path", "bytes", "cost/pkt", "adapt(pkts)"},
		Note: fmt.Sprintf(
			"cost/pkt = Σ freq(s)·w(s) over software semantics + α·bytes (Eq. 1 under the live mix)\n"+
				"switchovers=%d renegotiations=%d drained=%d drops=%d (must be 0) switch p50=%dns",
			st.Switchovers, st.Renegotiations, st.PacketsDrained, st.SwitchDrops, st.SwitchLatencyP50),
		run: run,
	}
	for _, ph := range run.phases {
		tab.AddRow(ph.name, "pinned", pathLabel(run.pinned), run.pinned.CompletionBytes(), ph.pinnedCost, "-")
		ad := "converged"
		if ph.adapt >= 0 {
			ad = fmt.Sprintf("%d", ph.adapt)
		}
		tab.AddRow(ph.name, "evolving", pathLabel(ph.evolved), ph.evolved.CompletionBytes(), ph.evolCost, ad)
	}
	return tab, nil
}

// pathLabel renders a result's selected path as its hardware-provided set.
func pathLabel(res *core.Result) string {
	return res.HardwareSet().String()
}
