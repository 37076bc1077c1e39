package bench

import (
	"io"
	"time"
)

// Params is everything a caller may vary about a run. Every other parameter
// is pinned in Experiments, so a table from `opendesc experiments` and the
// table a test asserted on come from the same run.
type Params struct {
	// Quick shortens the timing windows (E4, E9) and the E18 chaos corpus.
	// No deterministic cell depends on it.
	Quick bool
	// FlightDump, when non-empty, is where E17 writes its .odfl postmortems
	// and E20 its 16-host fleet's artifacts: the controller's spans.json and
	// one <host>.odfl flight ring per host.
	FlightDump string
	// Transcript, when non-nil, receives the scenario transcripts of E19
	// (per-tenant rows per plane shape) and E20 (the 16-host fleet's
	// inventory, rollouts, telemetry rollup and controller log).
	Transcript io.Writer
}

// window is the per-measurement floor of the timed loops.
func (p Params) window() time.Duration {
	if p.Quick {
		return 20 * time.Millisecond
	}
	return 200 * time.Millisecond
}

// Experiment is one registry entry; EXPERIMENTS.md has a section per entry.
type Experiment struct {
	ID  string
	Run func(Params) (*Table, error)
}

// fixed adapts an experiment that takes no parameters.
func fixed(run func() (*Table, error)) func(Params) (*Table, error) {
	return func(Params) (*Table, error) { return run() }
}

// Experiments is the registry, in experiment order: what
// `opendesc experiments` prints and what TestEveryExperiment runs. E7 is a
// set of correctness tests, not a table (EXPERIMENTS.md E7 names them); the
// number E11 is unused.
var Experiments = []Experiment{
	{"e1", fixed(E1PathSelection)},
	{"e2", fixed(E2MultiNIC)},
	{"e3", fixed(E3Coverage)},
	{"e4", func(p Params) (*Table, error) { return E4Datapath(512, p.window()) }},
	{"e5", fixed(E5FootprintSweep)},
	{"e6", fixed(E6Unsatisfiable)},
	{"e8", fixed(E8QDMAFormats)},
	{"e9", func(p Params) (*Table, error) { return E9MbufDyn(p.window()) }},
	{"e10", fixed(E10CompileTime)},
	{"e12", fixed(E12CostModel)},
	{"e13", fixed(E13Pruning)},
	{"e14", fixed(E14OffloadPlan)},
	{"e15", func(Params) (*Table, error) { return E15Evolve(2048) }},
	{"e16", func(Params) (*Table, error) { return E16Faults(20_000) }},
	{"e17", func(p Params) (*Table, error) { return E17Flight(4096, p.FlightDump) }},
	{"e18", func(p Params) (*Table, error) {
		if p.Quick {
			return E18Chaos(1_000)
		}
		return E18Chaos(10_000)
	}},
	{"e19", func(p Params) (*Table, error) { return E19Tenants(4096, p.Transcript) }},
	{"e20", func(p Params) (*Table, error) { return E20Fleet(p.Transcript, p.FlightDump) }},
	{"e21", fixed(E21Telemetry)},
	{"e22", func(Params) (*Table, error) { return E22Diffverify(32) }}, // mutants per NIC, ×6 NICs
}
