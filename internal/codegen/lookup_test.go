package codegen

import (
	"sync"
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/semantics"
)

// lookupIntents are the four intents of the benchmark's compile_open grid:
// one field, the fast-path triple, the paper's Fig. 1 key-value intent, and
// an eight-semantic telemetry intent.
var lookupIntents = [][]semantics.Name{
	{semantics.RSS},
	{semantics.RSS, semantics.VLAN, semantics.PktLen},
	{semantics.IPChecksum, semantics.VLAN, semantics.RSS, semantics.KVKey},
	{semantics.RSS, semantics.VLAN, semantics.PktLen, semantics.IPChecksum,
		semantics.L4Checksum, semantics.PType, semantics.FlowID, semantics.L4Port},
}

var (
	lookupOnce     sync.Once
	lookupRuntimes []*Runtime
)

// lookupGrid links a hardware and an all-software runtime for every bundled
// NIC × intent cell, once.
func lookupGrid(t testing.TB) []*Runtime {
	lookupOnce.Do(func() {
		for _, m := range nic.All() {
			for _, sems := range lookupIntents {
				intent, err := core.IntentFromSemantics("lookup", semantics.Default, sems...)
				if err != nil {
					panic(err)
				}
				res, err := m.Compile(intent, core.CompileOptions{})
				if err != nil {
					panic(m.Name + ": " + err.Error())
				}
				lookupRuntimes = append(lookupRuntimes, NewRuntime(res, nil), NewSoftRuntime(res, nil))
			}
		}
	})
	if len(lookupRuntimes) != 2*6*len(lookupIntents) {
		t.Fatalf("grid has %d runtimes, want six NICs x %d intents x 2", len(lookupRuntimes), len(lookupIntents))
	}
	return lookupRuntimes
}

// mapOracle is the resolver the runtime had before the reader table: a map
// from semantic to accessor, later entries winning.
func mapOracle(rt *Runtime) map[semantics.Name]*Reader {
	byName := make(map[semantics.Name]*Reader, len(rt.Readers))
	for _, r := range rt.Readers {
		byName[r.Semantic] = r
	}
	return byName
}

// checkLookup compares the table scan with the map for one name.
func checkLookup(t *testing.T, rt *Runtime, byName map[semantics.Name]*Reader, name semantics.Name) {
	t.Helper()
	want := byName[name]
	got, i := rt.Lookup(name)
	switch {
	case got != want:
		t.Errorf("%s: Lookup(%q) = %p, map says %p", rt.Result.NIC, name, got, want)
	case want == nil && i != -1:
		t.Errorf("%s: Lookup(%q) misses with index %d, want -1", rt.Result.NIC, name, i)
	case want != nil && (i < 0 || i >= len(rt.Readers) || rt.Readers[i] != want):
		t.Errorf("%s: Lookup(%q) index %d does not address its reader", rt.Result.NIC, name, i)
	}
	if rt.Reader(name) != want {
		t.Errorf("%s: Reader(%q) disagrees with the map", rt.Result.NIC, name)
	}
}

// nearMisses are names that share their length or a prefix with n.
func nearMisses(n semantics.Name) []semantics.Name {
	s := string(n)
	return []semantics.Name{
		semantics.Name(s[:len(s)-1]),          // proper prefix
		semantics.Name(s + "_"),               // n is its prefix
		semantics.Name(s[:len(s)-1] + "\x00"), // same length, last byte differs
		semantics.Name("_" + s[1:]),           // same length, first byte differs
	}
}

func TestReaderLookupMatchesMapOracle(t *testing.T) {
	registered := semantics.Default.Names()
	for _, rt := range lookupGrid(t) {
		byName := mapOracle(rt)
		if len(byName) != len(rt.Readers) {
			t.Fatalf("%s: %d readers, %d distinct semantics", rt.Result.NIC, len(rt.Readers), len(byName))
		}
		checkLookup(t, rt, byName, "")
		for _, name := range registered { // inside the intent and outside it
			checkLookup(t, rt, byName, name)
		}
		for _, r := range rt.Readers {
			checkLookup(t, rt, byName, r.Semantic)
			for _, name := range nearMisses(r.Semantic) {
				checkLookup(t, rt, byName, name)
			}
		}
	}
}

// TestReaderLookupDuplicateSemantic: ParseIntent and IntentFromSemantics
// refuse a semantic named twice, but an Intent's fields can be filled by hand,
// and the map kept the later accessor.
func TestReaderLookupDuplicateSemantic(t *testing.T) {
	intent, err := core.IntentFromSemantics("app_intent", semantics.Default, semantics.RSS, semantics.VLAN)
	if err != nil {
		t.Fatal(err)
	}
	intent.Fields = append(intent.Fields, intent.Fields[0])
	res, err := nic.MustLoad("mlx5").Compile(intent, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(res, nil)
	if len(rt.Readers) != 3 {
		t.Fatalf("%d readers, want one per intent field", len(rt.Readers))
	}
	byName := mapOracle(rt)
	checkLookup(t, rt, byName, semantics.RSS)
	checkLookup(t, rt, byName, semantics.VLAN)
}

func FuzzReaderLookup(f *testing.F) {
	f.Add(uint8(0), "")
	f.Add(uint8(3), "rss")
	f.Add(uint8(7), "vlan")
	f.Add(uint8(21), "pkt_len")
	f.Add(uint8(47), "l4_dst_por")
	f.Add(uint8(46), "l4_dst_port_")
	f.Fuzz(func(t *testing.T, cell uint8, name string) {
		grid := lookupGrid(t)
		rt := grid[int(cell)%len(grid)]
		checkLookup(t, rt, mapOracle(rt), semantics.Name(name))
	})
}
