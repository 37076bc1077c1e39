package bench

import (
	"fmt"
	"strings"
	"time"

	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/p4/sema"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/workload"
)

// E12CostModel is the cost-model-source ablation (EXPERIMENTS.md E12): path
// selection under the static cost table versus costs measured on the running
// machine (softnic calibration). The paper's Fig. 6 choice — "it is assumed
// that the software rss is cheaper than recomputing the csum" — is exactly
// the kind of assumption this ablation probes: on machines where Toeplitz
// hashing is slower than header checksumming, the measured model flips the
// selected branch.
func E12CostModel() (*Table, error) {
	samples := workload.MustGenerate(workload.Spec{
		Packets: 64, Flows: 16, PayloadBytes: 64, TCPFraction: 0.7, Seed: 11,
	}).Packets
	calibrated := softnic.CalibratedCosts(semantics.Default, samples, 32)
	static := semantics.RegistryCosts(semantics.Default)

	t := &Table{
		ID:    "E12",
		Title: "Ablation: static vs calibrated cost model w(s)",
		Note: "Selected completion per intent under both models. 'flip' marks\n" +
			"decisions that depend on the cost-model source — including the paper's\n" +
			"own Fig. 6 assumption that software RSS is cheaper than software csum.",
		Header: []string{"nic", "intent", "static-sel", "calibrated-sel", "w_s(rss)", "w_c(rss)", "w_s(csum)", "w_c(csum)", "flip"},
	}
	cases := []struct {
		nic  string
		sems []semantics.Name
	}{
		{"e1000e", []semantics.Name{semantics.RSS, semantics.IPChecksum}},
		{"mlx5", []semantics.Name{semantics.RSS, semantics.VLAN, semantics.PktLen}},
		{"mlx5", []semantics.Name{semantics.RSS, semantics.IPChecksum, semantics.PktLen}},
		{"qdma", []semantics.Name{semantics.KVKey, semantics.RSS}},
	}
	for _, c := range cases {
		m := nic.MustLoad(c.nic)
		sel := func(cm semantics.CostModel) (string, error) {
			res, err := m.Compile(mustIntent(c.sems...), core.CompileOptions{
				Select: core.SelectOptions{Costs: cm},
			})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%dB/path%d sw=%s", res.CompletionBytes(),
				res.Selected.Path.ID, intentNames(res.Missing())), nil
		}
		s, err := sel(static)
		if err != nil {
			return nil, err
		}
		cc, err := sel(calibrated)
		if err != nil {
			return nil, err
		}
		flip := ""
		if s != cc {
			flip = "FLIP"
		}
		t.AddRow(c.nic, intentNames(c.sems), s, cc,
			static(semantics.RSS), calibrated(semantics.RSS),
			static(semantics.IPChecksum), calibrated(semantics.IPChecksum),
			flip)
	}
	return t, nil
}

// wideDeparser builds a synthetic deparser with n correlated branch pairs on
// shared context bits: with pruning, path count stays 2^n over n bits; the
// correlated second branches add nothing. Without pruning it doubles per
// branch pair to 4^n.
func wideDeparser(n int) (*nic.Model, error) {
	var sb strings.Builder
	sb.WriteString("struct ctx_t {")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, " bit<1> f%d;", i)
	}
	sb.WriteString(" }\nheader d_t { bit<8> x; }\nstruct meta_t { @semantic(\"rss\") bit<8> a; @semantic(\"vlan\") bit<8> b; }\n")
	sb.WriteString("@bind(\"CTX\",\"ctx_t\") @bind(\"DESC\",\"d_t\") @bind(\"META\",\"meta_t\")\n")
	sb.WriteString("control CmptDeparser<CTX,DESC,META>(cmpt_out co, in CTX ctx, in DESC d, in META m) { apply {\n")
	for i := 0; i < n; i++ {
		// Two correlated branches on the same bit.
		fmt.Fprintf(&sb, "if (ctx.f%d == 1) { co.emit(m.a); } else { co.emit(m.b); }\n", i)
		fmt.Fprintf(&sb, "if (ctx.f%d == 1) { co.emit(m.b); } else { co.emit(m.a); }\n", i)
	}
	sb.WriteString("} }\n")
	return nic.Parse("wide.p4", sb.String())
}

// E13Pruning is the symbolic-pruning ablation: feasible-path counts and
// enumeration latency with and without consistency pruning, on the bundled
// NICs (where branches are independent, so pruning changes nothing) and on
// synthetic deparsers with correlated branches (where the unpruned set
// explodes).
func E13Pruning() (*Table, error) {
	t := &Table{
		ID:    "E13",
		Title: "Ablation: symbolic path pruning",
		Note: "Correlated context branches make the unpruned path set explode\n" +
			"(4^n vs the 2^n feasible ones); bundled NICs have independent\n" +
			"branches, so pruning is free there.",
		Header: []string{"deparser", "paths-pruned", "paths-unpruned", "enum-us-pruned", "enum-us-unpruned"},
	}
	run := func(name string, info *sema.Info, maxPaths int) error {
		g, err := core.BuildDeparserGraph(info)
		if err != nil {
			return err
		}
		count := func(disable bool) (int, float64, error) {
			const rounds = 20
			var n int
			start := time.Now()
			for i := 0; i < rounds; i++ {
				paths, err := core.EnumeratePaths(g, core.EnumerateOptions{
					DisablePruning: disable, MaxPaths: maxPaths,
				})
				if err != nil {
					return 0, 0, err
				}
				n = len(paths)
			}
			return n, float64(time.Since(start).Microseconds()) / rounds, nil
		}
		p, pt, err := count(false)
		if err != nil {
			return err
		}
		u, ut, err := count(true)
		if err != nil {
			return err
		}
		t.AddRow(name, p, u, pt, ut)
		return nil
	}
	for _, m := range nic.All() {
		if err := run(m.Name, m.Info, 0); err != nil {
			return nil, err
		}
	}
	for _, n := range []int{2, 4, 6} {
		m, err := wideDeparser(n)
		if err != nil {
			return nil, err
		}
		if err := run(fmt.Sprintf("synthetic-%d-correlated", n), m.Info, 1<<16); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// E14OffloadPlan exercises the §5 placement question — "whether a feature
// should be offloaded to the NIC even if technically possible, or if
// sometimes using a software counterpart is not more desirable" — by
// planning each intent's missing features onto each NIC's pipeline
// resources. It is a placement cost model: a pipeline form is a stage count,
// not a program.
func E14OffloadPlan() (*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: "Offload placement: descriptor vs pushed-pipeline vs software (§5)",
		Note: "A placement cost model: missing features with a stage count are pushed to\n" +
			"the pipeline while stages last (payload-inspecting features need externs);\n" +
			"the rest stay as host shims. Fixed-function NICs cannot push anything.",
		Header: []string{"nic", "intent", "descriptor", "pipeline", "software", "stages", "residual-cost"},
	}
	cases := []struct {
		nic  string
		sems []semantics.Name
	}{
		{"e1000", []semantics.Name{semantics.RSS, semantics.IPChecksum, semantics.FlowID}},
		{"e1000e", []semantics.Name{semantics.RSS, semantics.IPChecksum, semantics.FlowID}},
		{"mlx5", []semantics.Name{semantics.RSS, semantics.FlowID, semantics.PktLen}},
		{"mlx5", []semantics.Name{semantics.RSS, semantics.KVKey, semantics.PktLen}},
		{"qdma", []semantics.Name{semantics.RSS, semantics.KVKey, semantics.InnerCsum}},
	}
	for _, c := range cases {
		m := nic.MustLoad(c.nic)
		res, err := m.Compile(mustIntent(c.sems...), core.CompileOptions{})
		if err != nil {
			t.AddRow(c.nic, intentNames(c.sems), "-", "-", "-", "-", "unsat")
			continue
		}
		plan, err := core.PlanOffloads(res, m.Pipeline, nil)
		if err != nil {
			return nil, err
		}
		var desc []string
		for _, e := range plan.Entries {
			if e.Placement == core.PlaceDescriptor {
				desc = append(desc, string(e.Semantic))
			}
		}
		t.AddRow(c.nic, intentNames(c.sems),
			strings.Join(desc, "+"),
			intentNames(plan.Pushed()),
			intentNames(plan.Software()),
			plan.StagesUsed,
			plan.HostCost,
		)
	}
	return t, nil
}
