package bench

import "time"

// Params is everything a caller may vary about a run. Every other parameter
// is pinned in Experiments, so a table from descbench and the table a test
// asserted on come from the same run.
type Params struct {
	// Quick shortens the timing windows (E4, E9) and the E18 chaos corpus.
	// No deterministic cell depends on it.
	Quick bool
	// FlightDump, when non-empty, is where E17 writes its .odfl postmortems.
	FlightDump string
}

// window is the per-measurement floor of the timed loops.
func (p Params) window() time.Duration {
	if p.Quick {
		return 20 * time.Millisecond
	}
	return 200 * time.Millisecond
}

// Experiment is one entry of the DESIGN.md index.
type Experiment struct {
	ID  string
	Run func(Params) (*Table, error)
}

// fixed adapts an experiment that takes no parameters.
func fixed(run func() (*Table, error)) func(Params) (*Table, error) {
	return func(Params) (*Table, error) { return run() }
}

// Experiments is the registry, in index order: what `descbench` prints and
// what TestEveryExperiment runs. E7 is a correctness test, not a table; E11
// was retired (EXPERIMENTS.md keeps its last measurement and the finding).
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
	{"e19", func(Params) (*Table, error) { return E19Tenants(4096) }},
	{"e20", fixed(E20Fleet)},
	{"e21", fixed(E21Telemetry)},
	{"e22", func(Params) (*Table, error) { return E22Diffverify(32) }}, // mutants per NIC, ×6 NICs
}
