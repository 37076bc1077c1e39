package pkt

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// refAccumulator is the checksum as RFC 1071 states it and as Add computed it
// before it went word-at-a-time: one 16-bit big-endian word per step, an odd
// trailing byte carried over to the next call. It is kept as the oracle.
type refAccumulator struct {
	sum uint64
	odd bool
}

func (c *refAccumulator) Add(data []byte) {
	i := 0
	if c.odd && len(data) > 0 {
		c.sum += uint64(data[0])
		i = 1
		c.odd = false
	}
	for ; i+1 < len(data); i += 2 {
		c.sum += uint64(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if i < len(data) {
		c.sum += uint64(data[i]) << 8
		c.odd = true
	}
}

func (c *refAccumulator) Sum() uint16 {
	s := c.sum
	for s>>16 != 0 {
		s = (s & 0xFFFF) + (s >> 16)
	}
	return ^uint16(s)
}

// FuzzChecksumMatchesReference feeds the same bytes, cut at the same places,
// to the word-at-a-time accumulator and to the 16-bit reference. cuts picks
// the segment lengths (one byte each, so odd→odd carry-overs are common); the
// sums must agree after every Add, not only at the end.
func FuzzChecksumMatchesReference(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9A}, []byte{1, 1, 3})
	f.Add(bytes.Repeat([]byte{0xFF}, 2048), []byte{})            // end-around carry on every word
	f.Add(bytes.Repeat([]byte{0xFF}, 2047), []byte{1, 33, 7, 9}) // the same across odd cuts
	f.Add(bytes.Repeat([]byte{0xFF, 0xFE}, 40), []byte{31, 32, 8})
	f.Add(bytes.Repeat([]byte{0}, 100), []byte{3})
	f.Add(NewBuilder().WithPayload(bytes.Repeat([]byte("kv"), 512)).Build(), []byte{14, 20, 8})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		var got ChecksumAccumulator
		var want refAccumulator
		rest := data
		for _, c := range cuts {
			n := min(int(c), len(rest))
			got.Add(rest[:n])
			want.Add(rest[:n])
			if got.Sum() != want.Sum() {
				t.Fatalf("after %d of %d bytes (last segment %d): %#04x, reference %#04x",
					len(data)-len(rest)+n, len(data), n, got.Sum(), want.Sum())
			}
			rest = rest[n:]
		}
		got.Add(rest)
		want.Add(rest)
		if got.Sum() != want.Sum() {
			t.Fatalf("%d bytes, cuts %v: %#04x, reference %#04x", len(data), cuts, got.Sum(), want.Sum())
		}
		var whole refAccumulator
		whole.Add(data)
		if Checksum(data) != whole.Sum() {
			t.Fatalf("%d bytes in one Add: %#04x, reference %#04x", len(data), Checksum(data), whole.Sum())
		}
	})
}

// zeroSumPacket builds a datagram whose L4 checksum computes to 0: the
// checksum with a zero payload word is exactly the word that cancels it.
func zeroSumPacket(t *testing.T, b *Builder) (packet []byte, in Info) {
	t.Helper()
	payload := make([]byte, 2)
	if err := Decode(b.WithPayload(payload).Build(), &in); err != nil {
		t.Fatal(err)
	}
	c, _ := L4Checksum(&in)
	binary.BigEndian.PutUint16(payload, c)
	packet = b.Build()
	if err := Decode(packet, &in); err != nil {
		t.Fatal(err)
	}
	if c, _ := L4Checksum(&in); c != 0 {
		t.Fatalf("crafted payload: checksum computes to %#04x, want 0", c)
	}
	return packet, in
}

// TestVerifyL4ComputedZero: a checksum that computes to 0 goes on the wire as
// 0xFFFF (RFC 768) and must verify — it used to be compared with 0 and
// flagged, for one valid packet in 65 536.
func TestVerifyL4ComputedZero(t *testing.T) {
	for name, b := range map[string]*Builder{
		"udp4": NewBuilder().WithUDP(53, 5353),
		"tcp4": NewBuilder().WithTCP(80, 443, 0x18),
		"udp6": NewBuilder().WithIPv6([16]byte{0xfe, 0x80, 15: 1}, [16]byte{0xfe, 0x80, 15: 2}).WithUDP(53, 5353),
	} {
		packet, in := zeroSumPacket(t, b)
		_, field, _ := l4Sum(&in)
		if wire := binary.BigEndian.Uint16(field); wire != 0xFFFF {
			t.Errorf("%s: wire checksum %#04x, want 0xFFFF", name, wire)
		}
		if !VerifyL4(&in) {
			t.Errorf("%s: valid packet whose checksum computes to 0 does not verify", name)
		}
		packet[len(packet)-1] ^= 1
		if VerifyL4(&in) {
			t.Errorf("%s: corrupted payload verifies", name)
		}
	}
}

// TestVerifyL4ZeroMeansNoneOnlyOverIPv4: "checksum 0 = not computed" is a
// UDP-over-IPv4 rule; RFC 8200 forbids it over IPv6, and TCP never had it.
func TestVerifyL4ZeroMeansNoneOnlyOverIPv4(t *testing.T) {
	v6 := NewBuilder().WithIPv6([16]byte{0x20, 0x01, 15: 1}, [16]byte{0x20, 0x01, 15: 2})
	for _, c := range []struct {
		name string
		b    *Builder
		want bool
	}{
		{"udp4", NewBuilder().WithUDP(1, 2).WithPayload([]byte("none")), true},
		{"udp6", v6.WithUDP(1, 2).WithPayload([]byte("none")), false},
		{"tcp4", NewBuilder().WithTCP(1, 2, 0).WithPayload([]byte("none")), false},
	} {
		packet := c.b.Build()
		var in Info
		if err := Decode(packet, &in); err != nil {
			t.Fatal(err)
		}
		if !VerifyL4(&in) {
			t.Fatalf("%s: builder checksum invalid", c.name)
		}
		_, field, _ := l4Sum(&in) // aliases the packet
		field[0], field[1] = 0, 0
		if got := VerifyL4(&in); got != c.want {
			t.Errorf("%s with checksum field 0: VerifyL4 = %v, want %v", c.name, got, c.want)
		}
	}
}

var sink16 uint16

func benchChecksum(b *testing.B, n int) {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*131 + 7)
	}
	if a := testing.AllocsPerRun(100, func() { sink16 = Checksum(data) }); a != 0 {
		b.Fatalf("%v allocs per checksum, want 0", a)
	}
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink16 = Checksum(data)
	}
}

func BenchmarkChecksum64(b *testing.B)   { benchChecksum(b, 64) }
func BenchmarkChecksum1024(b *testing.B) { benchChecksum(b, 1024) }
