package nicsim

import (
	"fmt"
	"testing"

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
			mm, err := modelFromSource(fmt.Sprintf("%s~%d[%s]", m.Name, seed, ops), src)
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
				if differential(t, d.m, p.Constraints, trace) == 0 && !d.mutant {
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
