package nicsim

import (
	"fmt"
	"slices"
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/diffverify"
	"opendesc/internal/nic"
)

// mutantsPerNIC is how many seeded mutants of each bundled description the
// stride test builds a device for.
const mutantsPerNIC = 16

// TestRingFitsEveryDescription: the completion ring's stride is read off the
// description — the largest enumerated path, in whole 8-byte words — and is
// enough for it: on every bundled NIC and every mutant of one the compiler
// front end accepts, each path's completions cross the ring byte for byte
// with a zero tail (differential compares the whole entry against the eager
// reference, which serializes into its own 256-byte buffer).
func TestRingFitsEveryDescription(t *testing.T) {
	trace := differentialTrace(t)
	type desc struct {
		m      *nic.Model
		mutant bool
	}
	var descs []desc
	for _, m := range nic.All() {
		descs = append(descs, desc{m: m})
		for seed := uint64(1); seed <= mutantsPerNIC; seed++ {
			src, ops, err := diffverify.Mutate(m.Source, seed)
			if err != nil {
				continue
			}
			mm, err := nic.Parse(fmt.Sprintf("%s~%d[%s].p4", m.Name, seed, ops), src)
			if err != nil {
				continue // the mutant does not parse or type-check: nothing to build
			}
			descs = append(descs, desc{mm, true})
		}
	}
	mutants, strides := 0, map[int]bool{}
	for _, d := range descs {
		paths, err := d.m.Paths()
		if err != nil {
			if !d.mutant {
				t.Fatal(err)
			}
			continue // rejected by path enumeration, as New would reject it
		}
		largest := 0
		for _, p := range paths {
			largest = max(largest, p.SizeBytes())
		}
		if largest == 0 || largest > maxCompletionBytes {
			continue // a mutant that emits nothing, or more than a record may hold
		}
		if d.mutant {
			mutants++
		}
		t.Run(d.m.Name, func(t *testing.T) {
			dev := MustNew(d.m, Config{})
			if got, want := dev.CmptRing.EntrySize(), (largest+7)&^7; got != want {
				t.Fatalf("ring stride %d B, want %d B (largest path %d B)", got, want, largest)
			}
			strides[dev.CmptRing.EntrySize()] = true
			for _, p := range paths {
				if differential(t, d.m, p.Constraints, trace, "") == 0 && !d.mutant {
					t.Errorf("path %d accepted nothing: the comparison is vacuous", p.ID)
				}
			}
		})
	}
	if mutants < 4*mutantsPerNIC {
		t.Errorf("only %d mutants reached a device: the sweep is not exercising the mutator", mutants)
	}
	if len(strides) < 4 {
		t.Errorf("strides seen %v: the descriptions do not span different ring geometries", strides)
	}
}

// newAllocLimit is what one New allocated on every bundled NIC when it kept
// one field list per emit vertex.
const newAllocLimit = 8

// TestNewAllocGate bounds what building a device allocates per NIC: the
// decision tree, the plans and the per-path counters each sit in one backing
// slice sized up front, and the registers are slots in the device. A count
// above newAllocLimit means a per-route slice or a growing append came back.
// Programming a register and resetting the device allocate nothing.
func TestNewAllocGate(t *testing.T) {
	for _, m := range nic.All() {
		dev := MustNew(m, Config{}) // the model's analysis is cached, not counted
		got := testing.AllocsPerRun(20, func() { MustNew(m, Config{}) })
		t.Logf("%s: %.0f allocs per New (limit %d)", m.Name, got, newAllocLimit)
		if got > newAllocLimit {
			t.Errorf("%s: New allocates %.0f, limit %d", m.Name, got, newAllocLimit)
		}
		reg := dev.graph.Leaves[slices.IndexFunc(dev.graph.Leaves, func(l core.Leaf) bool { return l.Context })].Name
		if got := testing.AllocsPerRun(20, func() { dev.WriteReg(reg, 1) }); got != 0 {
			t.Errorf("%s: WriteReg(%s) allocates %.0f", m.Name, reg, got)
		}
		if got := testing.AllocsPerRun(20, func() { _ = dev.Reset() }); got != 0 {
			t.Errorf("%s: Reset allocates %.0f", m.Name, got)
		}
	}
}

// TestBuildRefusesABadRoute: New checks each enumerated path's route against
// the graph once, where the walk checked its length on every packet — a route
// that stops short of the exit, names an edge the vertex does not have, or
// repeats another path's route is refused.
func TestBuildRefusesABadRoute(t *testing.T) {
	m := nic.MustLoad("mlx5")
	paths, err := m.Paths()
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(p []*core.Path){
		"short":    func(p []*core.Path) { p[0].Route = p[0].Route[:len(p[0].Route)-1] },
		"no edge":  func(p []*core.Path) { p[0].Route = append([]int{9}, p[0].Route[1:]...) },
		"repeated": func(p []*core.Path) { p[1].Route = p[0].Route },
		"too long": func(p []*core.Path) { p[0].Route = append(append([]int(nil), p[0].Route...), 0) },
	} {
		bad := make([]*core.Path, len(paths))
		for i, p := range paths {
			cp := *p
			bad[i] = &cp
		}
		mutate(bad)
		d := &Device{graph: MustNew(m, Config{}).graph, paths: bad, routes: make([]route, len(bad)), cmptBuf: make([]byte, maxCompletionBytes)}
		if err := d.build(); err == nil {
			t.Errorf("%s: a bad route was accepted", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}
