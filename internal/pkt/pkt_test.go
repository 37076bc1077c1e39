package pkt

import (
	"testing"
	"testing/quick"
)

func TestDecodeUDPv4(t *testing.T) {
	p := NewBuilder().
		WithIPv4([4]byte{10, 1, 2, 3}, [4]byte{10, 4, 5, 6}).
		WithUDP(1234, 5678).
		WithIPID(0xCAFE).
		WithPayload([]byte("payload!")).
		Build()
	var in Info
	if err := Decode(p, &in); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if in.L3 != L3IPv4 || in.L4 != L4UDP {
		t.Errorf("layers = %v/%v", in.L3, in.L4)
	}
	if in.SrcPort != 1234 || in.DstPort != 5678 {
		t.Errorf("ports = %d/%d", in.SrcPort, in.DstPort)
	}
	if in.IPID != 0xCAFE {
		t.Errorf("ipid = %#x", in.IPID)
	}
	if in.SrcIP[0] != 10 || in.SrcIP[3] != 3 {
		t.Errorf("src ip = %v", in.SrcIP[:4])
	}
	if string(in.Payload()) != "payload!" {
		t.Errorf("payload = %q", in.Payload())
	}
	if in.VLANCount > 0 {
		t.Error("untagged packet reports VLAN")
	}
}

func TestDecodeTCPFlags(t *testing.T) {
	p := NewBuilder().WithTCP(80, 443, 0x12).Build()
	var in Info
	if err := Decode(p, &in); err != nil {
		t.Fatal(err)
	}
	if in.L4 != L4TCP || in.TCPFlags != 0x12 {
		t.Errorf("tcp flags = %#x", in.TCPFlags)
	}
	if in.PayloadOff != len(p) {
		t.Errorf("payload off = %d, len = %d", in.PayloadOff, len(p))
	}
}

func TestDecodeVLANAndQinQ(t *testing.T) {
	single := NewBuilder().WithVLAN(0x0123).Build()
	var in Info
	if err := Decode(single, &in); err != nil {
		t.Fatal(err)
	}
	if in.VLANCount != 1 || in.OuterTCI() != 0x0123 {
		t.Errorf("vlan = %d tags, outer %#x", in.VLANCount, in.OuterTCI())
	}
	double := NewBuilder().WithVLAN(0x0100).WithVLAN(0x0200).Build()
	if err := Decode(double, &in); err != nil {
		t.Fatal(err)
	}
	if in.VLANCount != 2 || in.VLANTCIs[0] != 0x0100 || in.VLANTCIs[1] != 0x0200 {
		t.Errorf("qinq = %v (%d)", in.VLANTCIs, in.VLANCount)
	}
}

func TestDecodeIPv6(t *testing.T) {
	var src, dst [16]byte
	src[15], dst[15] = 1, 2
	p := NewBuilder().WithIPv6(src, dst).WithTCP(1, 2, 0).Build()
	var in Info
	if err := Decode(p, &in); err != nil {
		t.Fatal(err)
	}
	if in.L3 != L3IPv6 || in.L4 != L4TCP {
		t.Errorf("layers = %v/%v", in.L3, in.L4)
	}
	if in.SrcIP != src || in.DstIP != dst {
		t.Error("ipv6 addresses mangled")
	}
}

func TestDecodeTruncated(t *testing.T) {
	p := NewBuilder().WithTCP(1, 2, 0).Build()
	for _, cut := range []int{0, 5, 13, 15, 20, 33, 40} {
		if cut >= len(p) {
			continue
		}
		var in Info
		if err := Decode(p[:cut], &in); err == nil {
			t.Errorf("cut at %d: expected error", cut)
		}
	}
}

func TestDecodeNonIP(t *testing.T) {
	p := NewBuilder().Build()
	p[12], p[13] = 0x08, 0x06 // ARP
	var in Info
	if err := Decode(p, &in); err != nil {
		t.Fatalf("ARP should decode to L3Other: %v", err)
	}
	if in.L3 != L3Other {
		t.Errorf("l3 = %v", in.L3)
	}
}

func TestDecodeBadIPVersion(t *testing.T) {
	p := NewBuilder().Build()
	var in Info
	if err := Decode(p, &in); err != nil {
		t.Fatal(err)
	}
	p[in.L3Off] = 0x95 // version 9
	if err := Decode(p, &in); err != ErrBadVersion {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestPTypeCode(t *testing.T) {
	var in Info
	in.L3, in.L4 = L3IPv4, L4TCP
	if in.PTypeCode() != 0x11 {
		t.Errorf("ptype = %#x", in.PTypeCode())
	}
	in.L3, in.L4 = L3IPv6, L4UDP
	if in.PTypeCode() != 0x22 {
		t.Errorf("ptype = %#x", in.PTypeCode())
	}
}

func TestIPv4HeaderChecksumValid(t *testing.T) {
	p := NewBuilder().Build()
	var in Info
	if err := Decode(p, &in); err != nil {
		t.Fatal(err)
	}
	hdr := p[in.L3Off : in.L3Off+IPv4MinLen]
	if !VerifyIPv4Header(hdr) {
		t.Error("builder checksum invalid")
	}
	bad := NewBuilder().WithBadIPChecksum().Build()
	Decode(bad, &in)
	if VerifyIPv4Header(bad[in.L3Off : in.L3Off+IPv4MinLen]) {
		t.Error("corrupted checksum verified")
	}
}

func TestL4ChecksumRoundtrip(t *testing.T) {
	for _, build := range []*Builder{
		NewBuilder().WithTCP(80, 443, 0x18).WithPayload([]byte("abcdef")),
		NewBuilder().WithUDP(53, 5353).WithPayload([]byte("odd")),
		NewBuilder().WithVLAN(7).WithTCP(1, 2, 0),
	} {
		p := build.Build()
		var in Info
		if err := Decode(p, &in); err != nil {
			t.Fatal(err)
		}
		if !VerifyL4(&in) {
			t.Errorf("builder L4 checksum invalid (%v)", in.L4)
		}
	}
	bad := NewBuilder().WithTCP(80, 443, 0).WithBadL4Checksum().Build()
	var in Info
	Decode(bad, &in)
	if VerifyL4(&in) {
		t.Error("corrupted L4 checksum verified")
	}
}

func TestChecksumAccumulatorOddSegments(t *testing.T) {
	data := []byte{0x12, 0x34, 0x56, 0x78, 0x9A}
	whole := Checksum(data)
	var c ChecksumAccumulator
	c.Add(data[:1])
	c.Add(data[1:2])
	c.Add(data[2:])
	if got := c.Sum(); got != whole {
		t.Errorf("split sum %#x != whole %#x", got, whole)
	}
}

func TestChecksumRFCExample(t *testing.T) {
	// RFC 1071 example: 0001 f203 f4f5 f6f7 → sum 0xddf2, checksum ^sum.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Errorf("checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
}

// Property: any built packet decodes with consistent lengths and verifying
// checksums.
func TestQuickBuilderDecode(t *testing.T) {
	f := func(seed uint32, tcp bool, vlan bool, payloadLen uint8) bool {
		b := NewBuilder().
			WithIPv4(
				[4]byte{byte(seed), byte(seed >> 8), byte(seed >> 16), byte(seed >> 24)},
				[4]byte{1, 2, 3, 4},
			).
			WithIPID(uint16(seed)).
			WithPayload(make([]byte, int(payloadLen)))
		if tcp {
			b.WithTCP(uint16(seed), uint16(seed>>16), 0x10)
		} else {
			b.WithUDP(uint16(seed), uint16(seed>>16))
		}
		if vlan {
			b.WithVLAN(uint16(seed) & 0x0FFF)
		}
		p := b.Build()
		var in Info
		if err := Decode(p, &in); err != nil {
			return false
		}
		if in.VLANCount > 0 != vlan {
			return false
		}
		if len(in.Payload()) != int(payloadLen) {
			return false
		}
		hdr := p[in.L3Off : in.L3Off+IPv4MinLen]
		return VerifyIPv4Header(hdr) && VerifyL4(&in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInfoReset(t *testing.T) {
	var in Info
	p := NewBuilder().WithVLAN(5).Build()
	Decode(p, &in)
	short := []byte{1, 2, 3}
	Decode(short, &in)
	if in.L3 != L3None || in.VLANCount != 0 || in.L3Off != -1 {
		t.Errorf("stale state after reset: %+v", in)
	}
}

// Checksum computes the Internet checksum of data in one shot.
func Checksum(data []byte) uint16 {
	var c ChecksumAccumulator
	c.Add(data)
	return c.Sum()
}
