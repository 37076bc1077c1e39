package workload

import (
	"bytes"
	"testing"

	"opendesc/internal/pkt"
)

func TestDeterministic(t *testing.T) {
	spec := DefaultSpec()
	spec.Packets = 128
	a := MustGenerate(spec)
	b := MustGenerate(spec)
	if len(a.Packets) != len(b.Packets) {
		t.Fatal("lengths differ")
	}
	for i := range a.Packets {
		if !bytes.Equal(a.Packets[i], b.Packets[i]) {
			t.Fatalf("packet %d differs between same-seed runs", i)
		}
	}
	spec.Seed = 2
	c := MustGenerate(spec)
	same := 0
	for i := range a.Packets {
		if bytes.Equal(a.Packets[i], c.Packets[i]) {
			same++
		}
	}
	if same == len(a.Packets) {
		t.Error("different seeds produced identical traces")
	}
}

func TestAllPacketsDecode(t *testing.T) {
	spec := Spec{
		Packets: 512, Flows: 32, PayloadBytes: 128,
		TCPFraction: 0.5, VLANFraction: 0.4, TunnelFraction: 0.2,
		BadCsumFraction: 0.1, KVFraction: 0.2, Seed: 7,
	}
	tr := MustGenerate(spec)
	var in pkt.Info
	kinds := map[pkt.L4Kind]int{}
	vlans, tunnels := 0, 0
	for i, p := range tr.Packets {
		if err := pkt.Decode(p, &in); err != nil {
			t.Fatalf("packet %d undecodable: %v", i, err)
		}
		kinds[in.L4]++
		if in.VLANCount > 0 {
			vlans++
		}
		if in.L4 == pkt.L4UDP && in.DstPort == 4789 {
			tunnels++
		}
	}
	if kinds[pkt.L4TCP] == 0 || kinds[pkt.L4UDP] == 0 {
		t.Errorf("mix missing a protocol: %v", kinds)
	}
	if vlans == 0 || vlans == spec.Packets {
		t.Errorf("vlan fraction degenerate: %d/%d", vlans, spec.Packets)
	}
	if tunnels == 0 {
		t.Error("no tunnel packets generated")
	}
}

func TestFlowCount(t *testing.T) {
	spec := DefaultSpec()
	spec.Packets = 256
	spec.Flows = 16
	spec.VLANFraction = 0
	spec.TCPFraction = 1
	tr := MustGenerate(spec)
	var in pkt.Info
	flows := map[[2]uint16]bool{}
	for _, p := range tr.Packets {
		if err := pkt.Decode(p, &in); err != nil {
			t.Fatal(err)
		}
		flows[[2]uint16{in.SrcPort, in.DstPort}] = true
	}
	if len(flows) != 16 {
		t.Errorf("distinct flows = %d, want 16", len(flows))
	}
}

func TestBadChecksumFraction(t *testing.T) {
	spec := DefaultSpec()
	spec.Packets = 400
	spec.BadCsumFraction = 0.5
	spec.VLANFraction = 0
	tr := MustGenerate(spec)
	var in pkt.Info
	bad := 0
	for _, p := range tr.Packets {
		if err := pkt.Decode(p, &in); err != nil {
			t.Fatal(err)
		}
		if !pkt.VerifyL4(&in) {
			bad++
		}
	}
	if bad < 100 || bad > 300 {
		t.Errorf("bad checksum count = %d of 400, want ≈200", bad)
	}
}

func TestKVPayloads(t *testing.T) {
	spec := DefaultSpec()
	spec.Packets = 100
	spec.KVFraction = 1
	spec.TunnelFraction = 0
	tr := MustGenerate(spec)
	var in pkt.Info
	for _, p := range tr.Packets {
		if err := pkt.Decode(p, &in); err != nil {
			t.Fatal(err)
		}
		if in.DstPort != 11211 {
			t.Fatalf("kv packet on port %d", in.DstPort)
		}
		if !bytes.HasPrefix(in.Payload(), []byte("get key:")) {
			t.Fatalf("kv payload = %q", in.Payload())
		}
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := Generate(Spec{Packets: 0}); err == nil {
		t.Error("zero packets accepted")
	}
	if _, err := Generate(Spec{Packets: 1, TCPFraction: 1.5}); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if _, err := Generate(Spec{Packets: 1, VLANFraction: -0.1}); err == nil {
		t.Error("negative fraction accepted")
	}
}

func TestTotalBytes(t *testing.T) {
	tr := MustGenerate(Spec{Packets: 10, PayloadBytes: 100, Seed: 1})
	if tr.TotalBytes() < 10*100 {
		t.Errorf("total bytes = %d", tr.TotalBytes())
	}
}

// TotalBytes sums the wire lengths.
func (t *Trace) TotalBytes() int {
	n := 0
	for _, p := range t.Packets {
		n += len(p)
	}
	return n
}
