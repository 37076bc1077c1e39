package nic

import (
	"fmt"
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/p4/ast"
	"opendesc/internal/semantics"
)

func TestAllModelsRegistered(t *testing.T) {
	want := []string{"e1000", "e1000e", "ice", "ixgbe", "mlx5", "qdma"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("models = %d, want %d", len(all), len(want))
	}
	for i, m := range all {
		if m.Name != want[i] {
			t.Errorf("model %d = %s, want %s", i, m.Name, want[i])
		}
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("cx7"); err == nil {
		t.Error("unknown model should error")
	}
}

func TestPathCounts(t *testing.T) {
	want := map[string]int{
		"e1000":  1, // single fixed layout
		"e1000e": 2, // rss XOR ip_id+csum (Fig. 6)
		"ice":    3, // legacy / flex-NIC / flex-comms RXDID profiles
		"ixgbe":  3, // fragment-csum / rss / flow-director
		"mlx5":   4, // full, compressed, mini-hash, mini-csum
		"qdma":   5, // 8B(x2 variants), 16B, 32B, 64B
	}
	for name, n := range want {
		m := MustLoad(name)
		paths, err := m.Paths()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(paths) != n {
			for _, p := range paths {
				t.Logf("%s: %s", name, p)
			}
			t.Errorf("%s paths = %d, want %d", name, len(paths), n)
		}
	}
}

func TestCompletionSizes(t *testing.T) {
	want := map[string][]int{
		"e1000":  {8},
		"e1000e": {11, 11},
		"ice":    {16, 32, 32},
		"mlx5":   {8, 8, 16, 64},
		"qdma":   {8, 8, 16, 32, 64},
	}
	for name, sizes := range want {
		m := MustLoad(name)
		paths, err := m.Paths()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := map[int]int{}
		for _, p := range paths {
			got[p.SizeBytes()]++
		}
		wantCount := map[int]int{}
		for _, s := range sizes {
			wantCount[s]++
		}
		for s, n := range wantCount {
			if got[s] != n {
				t.Errorf("%s: %d paths of %dB, want %d (have %v)", name, got[s], s, n, got)
			}
		}
	}
}

// TestMlx5TwelveMetadataFields pins the paper's coverage denominator: "the 12
// metadata information available in NVIDIA Mellanox ConnectX descriptors".
func TestMlx5TwelveMetadataFields(t *testing.T) {
	n, err := MustLoad("mlx5").MetadataFieldCount()
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		s, _ := MustLoad("mlx5").ProvidableSet()
		t.Errorf("mlx5 metadata fields = %d (%v), want 12", n, s)
	}
}

func TestMlx5FullPathProvidesAll12(t *testing.T) {
	m := MustLoad("mlx5")
	paths, err := m.Paths()
	if err != nil {
		t.Fatal(err)
	}
	var full *core.Path
	for _, p := range paths {
		if p.SizeBytes() == 64 {
			full = p
		}
	}
	if full == nil {
		t.Fatal("no 64B path")
	}
	if len(full.Prov()) != 12 {
		t.Errorf("full CQE provides %d semantics: %v", len(full.Prov()), full.Prov())
	}
}

func TestE1000SingleLayoutHasIPChecksum(t *testing.T) {
	m := MustLoad("e1000")
	paths, err := m.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("paths = %d", len(paths))
	}
	if !paths[0].Prov().Has(semantics.IPChecksum) {
		t.Errorf("e1000 must provide ip_checksum: %v", paths[0].Prov())
	}
	if len(paths[0].Constraints) != 0 {
		t.Errorf("single-layout NIC should need no context config: %v", paths[0].Constraints)
	}
}

func TestE1000eFig6Compile(t *testing.T) {
	m := MustLoad("e1000e")
	intent, err := core.IntentFromSemantics("app", semantics.Default,
		semantics.RSS, semantics.IPChecksum)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Compile(intent, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Selected.Path.Prov().Has(semantics.IPChecksum) {
		t.Errorf("Fig. 6: csum branch must win, got %v", res.Selected.Path)
	}
	if got := res.Missing(); len(got) != 1 || got[0] != semantics.RSS {
		t.Errorf("missing = %v", got)
	}
}

func TestQdmaKVKeyOnlyOnProgrammable(t *testing.T) {
	intent, err := core.IntentFromSemantics("kv", semantics.Default, semantics.KVKey, semantics.RSS)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MustLoad("qdma").Compile(intent, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HardwareSet().Has(semantics.KVKey) {
		t.Errorf("qdma should serve kv_key in hardware; accessors: %+v", res.Accessors)
	}
	if res.CompletionBytes() != 16 {
		t.Errorf("kv intent should pick the 16B entry, got %dB", res.CompletionBytes())
	}
	// Fixed-function NICs must fall back to software for kv_key.
	resFixed, err := MustLoad("e1000e").Compile(intent, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resFixed.HardwareSet().Has(semantics.KVKey) {
		t.Error("e1000e cannot provide kv_key in hardware")
	}
}

func TestTimestampIntentAcrossNICs(t *testing.T) {
	intent, err := core.IntentFromSemantics("ts", semantics.Default, semantics.Timestamp)
	if err != nil {
		t.Fatal(err)
	}
	// mlx5 and qdma can provide timestamps; e1000 cannot and must reject
	// (timestamp has no software fallback).
	for _, name := range []string{"mlx5", "qdma"} {
		res, err := MustLoad(name).Compile(intent, core.CompileOptions{})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !res.HardwareSet().Has(semantics.Timestamp) {
			t.Errorf("%s should provide timestamp", name)
		}
	}
	for _, name := range []string{"e1000", "e1000e", "ixgbe"} {
		if _, err := MustLoad(name).Compile(intent, core.CompileOptions{}); err == nil {
			t.Errorf("%s: timestamp intent should be unsatisfiable", name)
		}
	}
}

func TestTxLayouts(t *testing.T) {
	want := map[string]int{
		"e1000":  1,
		"e1000e": 1,
		"ice":    1,
		"ixgbe":  1,
		"mlx5":   1,
		"qdma":   3, // 8/16/32-byte H2C descriptor formats
	}
	for _, m := range All() {
		fs, err := core.TxFormats(m.Info)
		if err != nil {
			t.Errorf("%s: %v", m.Name, err)
			continue
		}
		if n, ok := want[m.Name]; !ok {
			t.Errorf("%s: no pinned TX format count", m.Name)
		} else if len(fs) != n {
			t.Errorf("%s tx formats = %d, want %d", m.Name, len(fs), n)
		}
	}
}

func TestQdmaTxLayoutSizes(t *testing.T) {
	fs, err := core.TxFormats(MustLoad("qdma").Info)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int]bool{}
	for _, f := range fs {
		sizes[f.SizeBytes()] = true
	}
	for _, want := range []int{8, 16, 32} {
		if !sizes[want] {
			t.Errorf("missing %dB TX format, have %v", want, sizes)
		}
	}
}

func TestGraphCached(t *testing.T) {
	m := MustLoad("e1000e")
	g1, err := m.Graph()
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := m.Graph()
	if g1 != g2 {
		t.Error("graph should be cached")
	}
}

func TestProvidableSets(t *testing.T) {
	// Spot-check flexibility ordering: programmable NICs provide strictly
	// more than fixed-function ones.
	sizes := map[string]int{}
	for _, m := range All() {
		s, err := m.ProvidableSet()
		if err != nil {
			t.Fatal(err)
		}
		sizes[m.Name] = len(s)
	}
	if !(sizes["qdma"] > sizes["mlx5"] && sizes["mlx5"] > sizes["e1000e"] && sizes["e1000e"] > sizes["e1000"]) {
		t.Errorf("providable-set sizes should grow with programmability: %v", sizes)
	}
}

// TestDescriptionsPrintRoundtrip pins that every bundled P4 description
// survives the canonical print → reparse → print cycle byte-identically —
// the fixed-point property the parser fuzzer asserts, on the real corpus.
func TestDescriptionsPrintRoundtrip(t *testing.T) {
	for _, m := range All() {
		printed := ast.SprintProgram(m.Info.Prog)
		// The reparsed program also checks and compiles identically.
		m2, err := Parse(m.Name+"-printed.p4", printed)
		if err != nil {
			t.Fatalf("%s: canonical print does not reparse and check: %v", m.Name, err)
		}
		if ast.SprintProgram(m2.Info.Prog) != printed {
			t.Errorf("%s: printing is not a fixed point", m.Name)
		}
		a, err := m2.Analysis(core.EnumerateOptions{})
		if err != nil {
			t.Fatalf("%s: reparsed program: %v", m.Name, err)
		}
		paths := a.Paths
		orig, _ := m.Paths()
		if len(paths) != len(orig) {
			t.Errorf("%s: reparsed paths %d != %d", m.Name, len(paths), len(orig))
		}
		for i := range paths {
			if fmt.Sprint(paths[i], paths[i].Fields) != fmt.Sprint(orig[i], orig[i].Fields) {
				t.Errorf("%s: reparsed path %d not equivalent", m.Name, i)
			}
		}
	}
}

// TestIceFlexProfiles pins the E810 flexible-descriptor behaviour: the
// timestamp intent forces the flex-NIC profile, the tunnel intent the
// flex-comms profile, and a bare intent stays on the 16-byte legacy layout.
func TestIceFlexProfiles(t *testing.T) {
	m := MustLoad("ice")
	cases := []struct {
		sems  []semantics.Name
		bytes int
		rxdid *uint64
	}{
		{[]semantics.Name{semantics.PktLen, semantics.IPChecksum}, 16, nil},
		{[]semantics.Name{semantics.Timestamp, semantics.RSS}, 32, ptr(1)},
		{[]semantics.Name{semantics.TunnelID, semantics.Mark}, 32, ptr(2)},
	}
	for _, c := range cases {
		intent, err := core.IntentFromSemantics("i", semantics.Default, c.sems...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Compile(intent, core.CompileOptions{})
		if err != nil {
			t.Fatalf("%v: %v", c.sems, err)
		}
		if res.CompletionBytes() != c.bytes {
			t.Errorf("%v: completion %dB, want %d", c.sems, res.CompletionBytes(), c.bytes)
		}
		if c.rxdid != nil {
			found := false
			for _, cons := range res.Config {
				if cons.Var == "ctx.rxdid" && cons.Equal && cons.Val.Uint == *c.rxdid {
					found = true
				}
			}
			if !found {
				t.Errorf("%v: config %v, want rxdid == %d", c.sems, res.Config, *c.rxdid)
			}
		}
	}
}

func ptr(v uint64) *uint64 { return &v }

// MetadataFieldCount counts the distinct semantic-tagged metadata items the
// NIC can emit (the "12 metadata information available in ConnectX
// descriptors" denominator of the paper's coverage claim).
func (m *Model) MetadataFieldCount() (int, error) {
	s, err := m.ProvidableSet()
	if err != nil {
		return 0, err
	}
	return len(s), nil
}
