package diffverify

import (
	"reflect"
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/nic"
)

// swapFirstDiscriminant mis-lowers g the way a compiler bug would: the first
// branch or switch sends its first two arms to each other's successors. It
// reports whether g had one.
func swapFirstDiscriminant(g *core.Graph) bool {
	for _, n := range g.Nodes {
		if (n.Kind == core.NodeBranch || n.Kind == core.NodeSwitch) && len(n.Succs) >= 2 {
			n.Succs[0].To, n.Succs[1].To = n.Succs[1].To, n.Succs[0].To
			return true
		}
	}
	return false
}

// TestMisLoweredGraphRejected: the compiler's graph is not the oracle. With
// the first branch or switch of the deparser's CFG mis-lowered and the paths
// re-enumerated from it, the harness must report disagreements on every NIC
// that has a discriminant: view B interprets the source, so under each path's
// environment it emits the layout the source selects, not the one the
// mis-lowered graph enumerated for it.
func TestMisLoweredGraphRejected(t *testing.T) {
	var rejected []string
	for _, m := range nic.All() {
		a, err := core.Analyze(m.Info, core.EnumerateOptions{}, nil) // a graph of its own to mis-lower
		if err != nil {
			t.Fatal(err)
		}
		if !swapFirstDiscriminant(a.Graph) {
			continue
		}
		paths, err := core.EnumeratePaths(a.Graph, core.EnumerateOptions{})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		rep := &Report{NIC: m.Name, Paths: len(paths)}
		ck, err := newChecker(m.Name, a.Graph, paths, Options{}, rep)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		for _, p := range paths {
			pc, err := ck.bindPath(p)
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			if err := pc.run(); err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
		}
		if rep.OK() {
			t.Errorf("%s: mis-lowered graph certified: %s", m.Name, rep)
			continue
		}
		t.Logf("%s: %s", m.Name, rep.Disagreements[0].Summary())
		rejected = append(rejected, m.Name)
	}
	if want := []string{"e1000e", "ice", "ixgbe", "mlx5", "qdma"}; !reflect.DeepEqual(rejected, want) {
		t.Errorf("rejected on %v, want %v", rejected, want)
	}

	// The regression row on the other side: a correctly lowered mutant
	// (ixgbe, sweep seed 2) whose first two paths have identical layouts
	// under different constraints. A record matching both belongs to the
	// focus path; matching it to the sibling first would test the sibling's
	// constraints and falsely disagree.
	const seed uint64 = 0xad98bc04e64e33b7
	src, _, err := Mutate(nic.MustLoad("ixgbe").Source, seed)
	if err != nil {
		t.Fatal(err)
	}
	mutant, err := nic.Parse("ixgbe.p4", src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := mutant.Analysis(core.EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Paths) < 2 || !reflect.DeepEqual(a.Paths[0].Fields, a.Paths[1].Fields) {
		t.Fatal("the mutant no longer has two paths with one layout")
	}
	if v := Screen("ixgbe", nic.MustLoad("ixgbe").Source, seed); v.Outcome != OutcomePass {
		t.Errorf("mutant %#x: %s %s", seed, v.Outcome, v.Reason)
	}
}
