package bench

import (
	"fmt"
	"time"

	"opendesc/internal/diffverify"
	"opendesc/internal/nic"
)

// e22Run is the whole experiment: the exhaustive six-NIC pass's coverage, the
// ablation's catches, the mutant sweep's verdict histogram and the
// certificate. Disagreements and underdetermined cases fail the experiment, so
// a run that exists has zero of both.
type e22Run struct {
	paths, cases, checks int
	ablationCaught       int
	reproducer           string // first ablation disagreement, rendered
	screened             int
	outcomes             map[string]int // mutant verdicts by diffverify.Outcome*
	sweepNs              float64
	cert                 diffverify.Certificate
}

// E22Diffverify is the S27 differential-verification experiment
// (EXPERIMENTS.md E22): exhaustive four-view equivalence over every bundled
// description (static layout, CFG walk, interpreter, generated accessors,
// plus SoftNIC golden packets), the broken-accessor ablation on every NIC
// (the harness must catch an injected one-bit codegen bug with a minimal
// accessor-view reproducer), and a seeded adversarial mutant sweep run twice
// to pin verdict determinism. Every count repeats exactly. What a pass costs
// is cmd/benchmark's diffverify.verify_ms_per_nic, BenchmarkVerifySixNICs and
// TestVerifyAllocGate.
func E22Diffverify(mutantsPerNIC int) (*Table, error) {
	models := nic.All()
	run := &e22Run{outcomes: map[string]int{}}

	for _, m := range models {
		rep, err := diffverify.VerifySource(m.Name, m.Source, diffverify.Options{})
		if err != nil {
			return nil, fmt.Errorf("e22: %s rejected: %v", m.Name, err)
		}
		if !rep.OK() {
			return nil, fmt.Errorf("e22: %s disagrees:\n%s", m.Name, rep)
		}
		if rep.Skipped != 0 {
			return nil, fmt.Errorf("e22: %s left %d cases underdetermined", m.Name, rep.Skipped)
		}
		run.paths += rep.Paths
		run.cases += rep.Cases
		run.checks += rep.Checks
	}

	// Ablation: a deliberately mis-offset accessor must be caught on every
	// NIC, and the first reproducer must blame the accessor view.
	for _, m := range models {
		rep, err := diffverify.VerifySource(m.Name, m.Source, diffverify.Options{BreakAccessor: true})
		if err != nil {
			return nil, fmt.Errorf("e22 ablation: %s rejected: %v", m.Name, err)
		}
		if rep.OK() {
			return nil, fmt.Errorf("e22 ablation: broken accessor on %s not caught", m.Name)
		}
		if d := rep.Disagreements[0]; d.View != "accessor" {
			return nil, fmt.Errorf("e22 ablation: %s first disagreement blames view %q, want accessor", m.Name, d.View)
		}
		if run.reproducer == "" {
			run.reproducer = rep.Disagreements[0].String()
		}
		run.ablationCaught++
	}

	// Adversarial mutant sweep, seeded, run twice: identical seeds must give
	// identical verdicts, and no screened mutant may expose a triad
	// disagreement (a disagree verdict means a real compiler bug).
	sweepStart := time.Now()
	for _, m := range models {
		a := diffverify.Sweep(m.Name, m.Source, 1, mutantsPerNIC)
		b := diffverify.Sweep(m.Name, m.Source, 1, mutantsPerNIC)
		if len(a) != len(b) {
			return nil, fmt.Errorf("e22: %s sweep lengths differ between identical runs", m.Name)
		}
		for i, v := range a {
			if v != b[i] {
				return nil, fmt.Errorf("e22: %s mutant seed %#x verdict differs between identical runs", m.Name, v.Seed)
			}
			if v.Outcome == diffverify.OutcomeDisagree {
				return nil, fmt.Errorf("e22: %s mutant seed %#x (ops %s) exposes a disagreement: %s",
					m.Name, v.Seed, v.Ops, v.Reason)
			}
			run.outcomes[v.Outcome]++
			run.screened++
		}
	}
	run.sweepNs = float64(time.Since(sweepStart).Nanoseconds())

	// Certificate flow: the digest-keyed verdict the fleet controller gates
	// provisioning on must pass for a bundled description.
	run.cert = diffverify.Certify(models[0].Name, models[0].Source)
	if !run.cert.Passed {
		return nil, fmt.Errorf("e22: certificate for %s failed: %s", run.cert.NIC, run.cert.Reason)
	}

	tab := &Table{
		ID:     "E22",
		Title:  fmt.Sprintf("differential verification: four-view harness, ablation, %d-mutant sweep", run.screened),
		Header: []string{"measurement", "value"},
		Note: fmt.Sprintf(
			"four views per completion path: static layout, independent CFG walk, P4 interpreter, generated\n"+
				"accessors — plus SoftNIC golden packets; a disagreement renders as a minimal reproducer, e.g.\n"+
				"ablation excerpt: %.160s…", run.reproducer),
		run: run,
	}
	tab.AddRow("exhaustive six-NIC pass", fmt.Sprintf("%d paths, %d cases, %d checks", run.paths, run.cases, run.checks))
	tab.AddRow("underdetermined / disagreements", "0 / 0")
	tab.AddRow("accessor ablation", fmt.Sprintf("caught on %d/%d NICs (minimal reproducer, accessor view)", run.ablationCaught, len(models)))
	tab.AddRow("mutant sweep", fmt.Sprintf("%d screened ×2 identical: %d pass, %d rejected, 0 disagree (%.2f ms)",
		run.screened, run.outcomes[diffverify.OutcomePass], run.outcomes[diffverify.OutcomeRejected], run.sweepNs/1e6))
	tab.AddRow("certificate", fmt.Sprintf("%s %.12s… PASS", run.cert.NIC, run.cert.Digest))
	return tab, nil
}
