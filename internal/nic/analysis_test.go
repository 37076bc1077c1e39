package nic

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/semantics"
)

// The warm compiles (Model.Compile / Model.CompileJoint over a cached
// core.Analysis) are checked against the first compile of a model Parse
// built afresh from the same source, frontend included.

// fresh parses m's source again: a model no compile has analysed yet.
func fresh(t testing.TB, m *Model) *Model {
	t.Helper()
	f, err := Parse(m.Name+".p4", m.Source)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// gridIntents are cmd/benchmark's four compile_open intents, plus one that no
// software shim can serve (timestamp, mark) so the unsatisfiable outcome is on
// the grid too.
var gridIntents = [][]semantics.Name{
	{"rss"},
	{"rss", "vlan", "pkt_len"},
	{"ip_checksum", "vlan", "rss", "kv_key"},
	{"rss", "vlan", "pkt_len", "ip_checksum", "l4_checksum", "ptype", "flow_id", "l4_dst_port"},
	{"rss", semantics.Timestamp, semantics.Mark},
}

func gridIntent(t testing.TB, i int, override bool) *core.Intent {
	t.Helper()
	it, err := core.IntentFromSemantics(fmt.Sprintf("grid%d", i), semantics.Default, gridIntents[i]...)
	if err != nil {
		t.Fatal(err)
	}
	if override {
		// A per-field @cost: make the last field nearly free in software.
		it.Fields[len(it.Fields)-1].CostOverride = 0.25
	}
	return it
}

// liveMix is a cost model of the shape evolve.Engine builds at run time:
// the registry cost scaled by a per-semantic read frequency, infinities kept.
func liveMix(s semantics.Name) float64 {
	w := semantics.RegistryCosts(semantics.Default)(s)
	if math.IsInf(w, 1) {
		return w
	}
	return w * float64(len(s)%4) / 3
}

var gridSelects = []core.SelectOptions{
	{},               // default alpha
	{Alpha: -1},      // footprint term off
	{Alpha: 1000},    // footprint dominates
	{Costs: liveMix}, // live-mix cost model
	{Alpha: 0.05, Costs: liveMix},
}

var gridEnumerates = []core.EnumerateOptions{
	{},
	{DisablePruning: true},
	{MaxPaths: 2}, // ErrTooManyPaths on every NIC with more than two paths
	{DisablePruning: true, MaxPaths: 64},
}

func sameErr(t *testing.T, label string, warm, cold error) bool {
	t.Helper()
	if (warm == nil) != (cold == nil) {
		t.Fatalf("%s: warm err %v, cold err %v", label, warm, cold)
	}
	if cold == nil {
		return false
	}
	if warm.Error() != cold.Error() {
		t.Errorf("%s: warm err %q, cold err %q", label, warm, cold)
	}
	if errors.Is(warm, core.ErrTooManyPaths) != errors.Is(cold, core.ErrTooManyPaths) {
		t.Errorf("%s: ErrTooManyPaths differs: warm %v, cold %v", label, warm, cold)
	}
	var wu, cu *core.UnsatisfiableError
	if errors.As(warm, &wu) != errors.As(cold, &cu) {
		t.Errorf("%s: UnsatisfiableError differs: warm %v, cold %v", label, warm, cold)
	} else if cu != nil && (wu.Control != cu.Control || !reflect.DeepEqual(wu.MissingEverywhere, cu.MissingEverywhere)) {
		t.Errorf("%s: unsatisfiable contents: warm %+v, cold %+v", label, wu, cu)
	}
	return true
}

func bits(f float64) uint64 { return math.Float64bits(f) }

func sameScored(t *testing.T, label string, warm, cold core.Scored) {
	t.Helper()
	if warm.Path.ID != cold.Path.ID || bits(warm.Total) != bits(cold.Total) ||
		bits(warm.SoftCost) != bits(cold.SoftCost) || bits(warm.DMACost) != bits(cold.DMACost) ||
		!reflect.DeepEqual(warm.Missing, cold.Missing) {
		t.Errorf("%s: scored differs:\nwarm %+v\ncold %+v", label, warm, cold)
	}
}

func sameResult(t *testing.T, label string, warm, cold *core.Result) {
	t.Helper()
	if warm.NIC != cold.NIC || warm.Control != cold.Control || warm.Intent != cold.Intent {
		t.Errorf("%s: header differs: %s/%s vs %s/%s", label, warm.NIC, warm.Control, cold.NIC, cold.Control)
	}
	if digest(warm.Graph, warm.Paths) != digest(cold.Graph, cold.Paths) {
		t.Errorf("%s: graph or paths differ", label)
	}
	sameScored(t, label+" selected", warm.Selected, cold.Selected)
	if len(warm.Scored) != len(cold.Scored) {
		t.Fatalf("%s: %d scored vs %d", label, len(warm.Scored), len(cold.Scored))
	}
	for i := range cold.Scored {
		sameScored(t, fmt.Sprintf("%s scored[%d]", label, i), warm.Scored[i], cold.Scored[i])
	}
	if !reflect.DeepEqual(warm.Accessors, cold.Accessors) {
		t.Errorf("%s: accessors differ:\nwarm %+v\ncold %+v", label, warm.Accessors, cold.Accessors)
	}
	if !reflect.DeepEqual(warm.Config, cold.Config) {
		t.Errorf("%s: config differs: warm %v, cold %v", label, warm.Config, cold.Config)
	}
}

// digest renders everything a compile reads from an analysis: the graph's
// shape and, per path, constraints, emits, fields with offsets, size and Prov.
func digest(g *core.Graph, paths []*core.Path) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s entry=%d exit=%d\n", g.Control, g.Entry.ID, g.Exit.ID)
	for _, n := range g.Nodes {
		fmt.Fprintf(&sb, "n%d k%d", n.ID, n.Kind)
		if n.Emit != nil {
			fmt.Fprintf(&sb, " %s %+v", n.Emit.Source, n.Emit.Fields)
		}
		for _, e := range n.Succs {
			fmt.Fprintf(&sb, " ->%d %v %t", e.To.ID, e.CaseVals, e.IsDefault)
		}
		sb.WriteByte('\n')
	}
	for _, p := range paths {
		fmt.Fprintf(&sb, "p%d %dB %v %+v %v [", p.ID, p.SizeBits(), p.Constraints, p.Fields, p.Prov().Sorted())
		for _, e := range p.Emits {
			fmt.Fprintf(&sb, "%s;", e.Source)
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

func TestWarmCompileMatchesCold(t *testing.T) {
	var ok, tooMany, unsat int
	for _, m := range All() {
		for _, en := range gridEnumerates {
			for si, sel := range gridSelects {
				for i := range gridIntents {
					for _, override := range []bool{false, true} {
						intent := gridIntent(t, i, override)
						opts := core.CompileOptions{Select: sel, Enumerate: en}
						label := fmt.Sprintf("%s intent%d override=%t select%d %+v", m.Name, i, override, si, en)
						warm, werr := m.Compile(intent, opts)
						cold, cerr := fresh(t, m).Compile(intent, opts)
						var u *core.UnsatisfiableError
						switch {
						case !sameErr(t, label, werr, cerr):
							sameResult(t, label, warm, cold)
							ok++
						case errors.Is(cerr, core.ErrTooManyPaths):
							tooMany++
						case errors.As(cerr, &u):
							unsat++
						default:
							t.Errorf("%s: unexpected error %v", label, cerr)
						}
					}
				}
			}
		}
	}
	if ok == 0 || tooMany == 0 || unsat == 0 {
		t.Errorf("grid misses an outcome: %d ok, %d too many paths, %d unsatisfiable", ok, tooMany, unsat)
	}
	t.Logf("%d ok, %d too many paths, %d unsatisfiable", ok, tooMany, unsat)
}

func jointTenants(t testing.TB, n int) []core.TenantIntent {
	ts := make([]core.TenantIntent, n)
	for i := range ts {
		ts[i] = core.TenantIntent{
			Tenant: fmt.Sprintf("t%d", i),
			Intent: gridIntent(t, i%4, i%5 == 4),
			Weight: float64(i % 3), // 0 means 1
		}
		if i%4 == 3 {
			ts[i].Costs = liveMix
		}
	}
	return ts
}

func TestWarmCompileJointMatchesCold(t *testing.T) {
	for _, m := range All() {
		for _, en := range gridEnumerates {
			for si, sel := range gridSelects {
				for _, n := range []int{0, 1, 4, 16, 17} {
					tenants := jointTenants(t, n)
					if n == 17 { // one tenant nothing can serve
						tenants[16].Intent = gridIntent(t, 4, false)
					}
					opts := core.CompileOptions{Select: sel, Enumerate: en}
					label := fmt.Sprintf("%s joint%d select%d %+v", m.Name, n, si, en)
					warm, werr := m.CompileJoint(tenants, opts)
					cold, cerr := fresh(t, m).CompileJoint(tenants, opts)
					if sameErr(t, label, werr, cerr) {
						continue
					}
					if warm.NIC != cold.NIC || warm.Control != cold.Control || !reflect.DeepEqual(warm.Config, cold.Config) ||
						digest(warm.Graph, warm.Paths) != digest(cold.Graph, cold.Paths) {
						t.Errorf("%s: joint header differs", label)
					}
					ws, cs := append([]core.JointScored{warm.Selected}, warm.Scored...), append([]core.JointScored{cold.Selected}, cold.Scored...)
					if len(ws) != len(cs) {
						t.Fatalf("%s: %d joint scored vs %d", label, len(ws), len(cs))
					}
					for i := range cs {
						w, c := ws[i], cs[i]
						if w.Path.ID != c.Path.ID || bits(w.Total) != bits(c.Total) || bits(w.SoftCost) != bits(c.SoftCost) ||
							bits(w.DMACost) != bits(c.DMACost) {
							t.Errorf("%s: joint scored[%d] differs:\nwarm %+v\ncold %+v", label, i, w, c)
						}
					}
					for i := range cold.PerTenant {
						sameResult(t, fmt.Sprintf("%s tenant%d", label, i), warm.PerTenant[i], cold.PerTenant[i])
					}
				}
			}
		}
	}
}

// TestAnalysisSharedUnchanged is the immutability the sharing rests on: 32
// goroutines compile different intents, single and joint, against one freshly
// parsed Model (so the first analysis is raced for too), and afterwards the
// shared analysis still reads exactly like one built cold. Run under -race.
func TestAnalysisSharedUnchanged(t *testing.T) {
	for _, reg := range All() {
		m := fresh(t, reg)
		var wg sync.WaitGroup
		for g := 0; g < 32; g++ {
			opts := core.CompileOptions{Select: gridSelects[g%len(gridSelects)]}
			var singles []*core.Intent
			var joints [][]core.TenantIntent
			for i := range gridIntents {
				if g%2 == 0 {
					singles = append(singles, gridIntent(t, i, g%3 == 0))
				} else {
					joints = append(joints, jointTenants(t, 1+(g+i)%16))
				}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, it := range singles {
					res, err := m.Compile(it, opts)
					if err == nil && res.Accessor(it.Fields[0].Semantic) == nil {
						t.Errorf("%s: no accessor for first field", m.Name)
					}
				}
				for _, ts := range joints {
					if _, err := m.CompileJoint(ts, opts); err != nil {
						t.Errorf("%s joint: %v", m.Name, err)
					}
				}
				if _, err := m.ProvidableSet(); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		shared, err := m.Analysis(core.EnumerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := fresh(t, reg).Analysis(core.EnumerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if digest(shared.Graph, shared.Paths) != digest(cold.Graph, cold.Paths) {
			t.Errorf("%s: shared analysis changed under concurrent compiles", m.Name)
		}
		if m.analyses.Len() != 1 {
			t.Errorf("%s: %d analyses cached for one option value", m.Name, m.analyses.Len())
		}
	}
}

func TestAnalysisCachedPerEnumerateOptions(t *testing.T) {
	m := MustLoad("mlx5")
	intent := gridIntent(t, 1, false)
	a, _ := m.Compile(intent, core.CompileOptions{})
	b, _ := m.Compile(intent, core.CompileOptions{Select: core.SelectOptions{Alpha: 3}})
	if a.Graph != b.Graph || a.Paths[0] != b.Paths[0] {
		t.Error("default compiles should share one analysis")
	}
	c, err := m.Compile(intent, core.CompileOptions{Enumerate: core.EnumerateOptions{DisablePruning: true}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Graph == a.Graph {
		t.Error("a different enumeration option value needs its own analysis")
	}
	// Errors are cached like results.
	small := core.CompileOptions{Enumerate: core.EnumerateOptions{MaxPaths: 1}}
	_, e1 := m.Compile(intent, small)
	_, e2 := m.CompileJoint(jointTenants(t, 2), small)
	if !errors.Is(e1, core.ErrTooManyPaths) || !errors.Is(e2, core.ErrTooManyPaths) {
		t.Errorf("MaxPaths 1 on mlx5: %v / %v", e1, e2)
	}
}
