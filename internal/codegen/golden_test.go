package codegen

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/semantics"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files under testdata/")

// goldenCases pin the generated output for representative NIC×intent pairs;
// any unintended change to layout selection, offsets or codegen shows up as
// a golden diff.
var goldenCases = []struct {
	name    string
	nic     string
	sems    []semantics.Name
	render  func(*core.Result) string
	outfile string
}{
	{
		name: "e1000e_fig6_go", nic: "e1000e",
		sems:    []semantics.Name{semantics.RSS, semantics.IPChecksum},
		render:  func(r *core.Result) string { return GenGo(r, "e1000eacc") },
		outfile: "e1000e_fig6.go.golden",
	},
	{
		name: "mlx5_xdp_ebpf", nic: "mlx5",
		sems:    []semantics.Name{semantics.RSS, semantics.Timestamp, semantics.VLAN},
		render:  GenEBPF,
		outfile: "mlx5_xdp.c.golden",
	},
	{
		name: "qdma_kv_c", nic: "qdma",
		sems:    []semantics.Name{semantics.KVKey, semantics.RSS, semantics.PktLen},
		render:  func(r *core.Result) string { return GenC(r, "qdma") },
		outfile: "qdma_kv.h.golden",
	},
	{
		name: "e1000e_report", nic: "e1000e",
		sems:    []semantics.Name{semantics.RSS, semantics.IPChecksum},
		render:  func(r *core.Result) string { return r.Report() },
		outfile: "e1000e_report.txt.golden",
	},
	{
		name: "e1000e_dot", nic: "e1000e",
		sems:    []semantics.Name{semantics.RSS},
		render:  func(r *core.Result) string { return r.Graph.DOT() },
		outfile: "e1000e_cfg.dot.golden",
	},
}

func TestGoldenOutputs(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			intent, err := core.IntentFromSemantics("golden", semantics.Default, c.sems...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := nic.MustLoad(c.nic).Compile(intent, core.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got := c.render(res)
			path := filepath.Join("testdata", c.outfile)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Errorf("output drifted from %s;\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}
