package workload

import (
	"bytes"
	"math"
	"testing"

	"opendesc/internal/pkt"
)

// TestZipfDeterminism: same seed ⇒ byte-identical trace (the chaos S23
// discipline); a different seed must diverge.
func TestZipfDeterminism(t *testing.T) {
	spec := ZipfSpec{Packets: 512, Flows: 1 << 20, Skew: 1.1, Tenants: 8, Seed: 42}
	a := MustGenerateZipf(spec)
	b := MustGenerateZipf(spec)
	if len(a.Packets) != len(b.Packets) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Packets), len(b.Packets))
	}
	for i := range a.Packets {
		if !bytes.Equal(a.Packets[i], b.Packets[i]) {
			t.Fatalf("packet %d differs between identical-seed runs", i)
		}
		if a.TenantOf[i] != b.TenantOf[i] || a.FlowOf[i] != b.FlowOf[i] {
			t.Fatalf("attribution differs at packet %d", i)
		}
	}
	spec.Seed = 43
	c := MustGenerateZipf(spec)
	same := true
	for i := range a.Packets {
		if !bytes.Equal(a.Packets[i], c.Packets[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestZipfSkewShape: under heavy skew the head flow must dominate far beyond
// its uniform share, and skew 0 must stay near-uniform.
func TestZipfSkewShape(t *testing.T) {
	const packets = 20000
	flows := 1 << 16
	skewed := MustGenerateZipf(ZipfSpec{Packets: packets, Flows: flows, Skew: 1.2, Tenants: 1, Seed: 7})
	head := 0
	for _, r := range skewed.FlowOf {
		if r == 1 {
			head++
		}
	}
	// Uniform share would be packets/flows < 1; Zipf(1.2) over 64k flows
	// puts several percent of all traffic on rank 1.
	if head < packets/100 {
		t.Errorf("rank-1 flow got %d of %d packets under skew 1.2; want ≥ 1%%", head, packets)
	}
	if skewed.DistinctFlows >= packets {
		t.Errorf("skewed trace touched %d distinct flows in %d packets; expected heavy reuse",
			skewed.DistinctFlows, packets)
	}

	uniform := MustGenerateZipf(ZipfSpec{Packets: packets, Flows: flows, Skew: 0, Tenants: 1, Seed: 7})
	if uniform.DistinctFlows < packets*3/4 {
		t.Errorf("uniform trace touched only %d distinct flows in %d packets", uniform.DistinctFlows, packets)
	}
}

// TestZipfTenantAttribution: the built packets must decode back to the
// declared tenant (dst port) and flow (src address) attribution.
func TestZipfTenantAttribution(t *testing.T) {
	tr := MustGenerateZipf(ZipfSpec{Packets: 256, Flows: 4096, Skew: 1, Tenants: 16, Seed: 3})
	var info pkt.Info
	for i, p := range tr.Packets {
		if err := pkt.Decode(p, &info); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if got := int(info.DstPort) - BasePort; got != tr.TenantOf[i] {
			t.Fatalf("packet %d: dst port says tenant %d, TenantOf %d", i, got, tr.TenantOf[i])
		}
		f := tr.FlowOf[i] - 1
		want := [4]byte{10, byte(f >> 16), byte(f >> 8), byte(f)}
		if [4]byte(info.SrcIP[:4]) != want {
			t.Fatalf("packet %d: src %v, want %v", i, info.SrcIP[:4], want)
		}
		if tr.TenantOf[i] != f%16 {
			t.Fatalf("packet %d: tenant %d, want rank-round-robin %d", i, tr.TenantOf[i], f%16)
		}
	}
}

func TestZipfValidation(t *testing.T) {
	ok := ZipfSpec{Packets: 16, Flows: 1024, Skew: 1, Tenants: 4, Seed: 1}
	cases := []struct {
		name   string
		mutate func(*ZipfSpec)
	}{
		{"zero packets", func(s *ZipfSpec) { s.Packets = 0 }},
		{"negative packets", func(s *ZipfSpec) { s.Packets = -5 }},
		{"zero flows", func(s *ZipfSpec) { s.Flows = 0 }},
		{"flow overflow", func(s *ZipfSpec) { s.Flows = maxZipfFlows + 1 }},
		{"negative skew", func(s *ZipfSpec) { s.Skew = -0.5 }},
		{"NaN skew", func(s *ZipfSpec) { s.Skew = math.NaN() }},
		{"Inf skew", func(s *ZipfSpec) { s.Skew = math.Inf(1) }},
		{"zero tenants", func(s *ZipfSpec) { s.Tenants = 0 }},
		{"tenants exceed flows", func(s *ZipfSpec) { s.Flows = 4; s.Tenants = 8 }},
		{"tenant namespace overflow", func(s *ZipfSpec) { s.Flows = 1 << 20; s.Tenants = 5000 }},
	}
	for _, c := range cases {
		spec := ok
		c.mutate(&spec)
		if _, err := GenerateZipf(spec); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
	if _, err := GenerateZipf(ok); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestZipfRankBounds: the inverse-transform sampler must stay in [1, N] at
// the extremes of u for representative skews.
func TestZipfRankBounds(t *testing.T) {
	for _, s := range []float64{0, 0.5, 1, 1.2, 2, 4} {
		for _, u := range []float64{0, 1e-12, 0.5, 1 - 1e-12} {
			r := zipfRank(u, 1<<20, s)
			if r < 1 || r > 1<<20 {
				t.Errorf("zipfRank(%v, 2^20, %v) = %d out of range", u, s, r)
			}
		}
		if zipfRank(0.5, 1, s) != 1 {
			t.Errorf("single-flow population must always rank 1")
		}
	}
}

// MustGenerateZipf panics on an invalid spec.
func MustGenerateZipf(spec ZipfSpec) *ZipfTrace {
	tr, err := GenerateZipf(spec)
	if err != nil {
		panic(err)
	}
	return tr
}
