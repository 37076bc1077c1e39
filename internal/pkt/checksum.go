package pkt

import (
	"encoding/binary"
	"math/bits"
)

// ChecksumAccumulator incrementally computes the Internet (RFC 1071) one's
// complement checksum.
type ChecksumAccumulator struct {
	sum uint64
	odd bool
}

// Add folds data into the checksum, handling odd-length segments across
// calls. Because 2^16 ≡ 1 (mod 0xFFFF), a big-endian 64-bit word is congruent
// to the sum of its four 16-bit words, so the body is summed eight bytes at
// a time with the carry fed back in (end-around) and folded into sum once.
func (c *ChecksumAccumulator) Add(data []byte) {
	if c.odd && len(data) > 0 {
		c.sum += uint64(data[0])
		data = data[1:]
		c.odd = false
	}
	var s, carry uint64
	for len(data) >= 32 {
		s, carry = bits.Add64(s, binary.BigEndian.Uint64(data), carry)
		s, carry = bits.Add64(s, binary.BigEndian.Uint64(data[8:]), carry)
		s, carry = bits.Add64(s, binary.BigEndian.Uint64(data[16:]), carry)
		s, carry = bits.Add64(s, binary.BigEndian.Uint64(data[24:]), carry)
		data = data[32:]
	}
	for len(data) >= 8 {
		s, carry = bits.Add64(s, binary.BigEndian.Uint64(data), carry)
		data = data[8:]
	}
	// The last carry may itself wrap an all-ones word; the second add cannot.
	s, carry = bits.Add64(s, 0, carry)
	s += carry
	s = s>>32 + s&0xFFFFFFFF
	c.sum += s>>16 + s&0xFFFF
	for len(data) >= 2 {
		c.sum += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		c.sum += uint64(data[0]) << 8
		c.odd = true
	}
}

// AddUint16 folds a single big-endian word.
func (c *ChecksumAccumulator) AddUint16(v uint16) { c.sum += uint64(v) }

// Sum finalizes and returns the one's complement checksum.
func (c *ChecksumAccumulator) Sum() uint16 {
	s := c.sum
	for s>>16 != 0 {
		s = (s & 0xFFFF) + (s >> 16)
	}
	return ^uint16(s)
}

// IPv4HeaderChecksum computes the header checksum for the IPv4 header at
// hdr (with the checksum field bytes treated as zero).
func IPv4HeaderChecksum(hdr []byte) uint16 {
	var c ChecksumAccumulator
	c.Add(hdr[:10])
	// skip checksum bytes 10..11
	c.Add(hdr[12:])
	return c.Sum()
}

// VerifyIPv4Header reports whether the IPv4 header at hdr has a valid
// checksum.
func VerifyIPv4Header(hdr []byte) bool {
	var c ChecksumAccumulator
	c.Add(hdr)
	// Summing the full header including its checksum yields 0 when valid.
	return c.Sum() == 0
}

// l4Sum sums the pseudo-header and the whole TCP/UDP segment, checksum field
// included, and returns the two bytes of that field. ok is false if the
// packet has no supported L4.
func l4Sum(in *Info) (c ChecksumAccumulator, field []byte, ok bool) {
	if in.L4 != L4TCP && in.L4 != L4UDP {
		return c, nil, false
	}
	l4 := in.Data[in.L4Off:]
	l4len := len(l4)
	switch in.L3 {
	case L3IPv4:
		c.Add(in.SrcIP[:4])
		c.Add(in.DstIP[:4])
		c.AddUint16(uint16(in.IPProto))
		c.AddUint16(uint16(l4len))
	case L3IPv6:
		c.Add(in.SrcIP[:])
		c.Add(in.DstIP[:])
		c.AddUint16(uint16(l4len >> 16))
		c.AddUint16(uint16(l4len))
		c.AddUint16(uint16(in.IPProto))
	default:
		return c, nil, false
	}
	// Checksum field position inside the L4 header.
	csumOff := 16 // TCP
	if in.L4 == L4UDP {
		csumOff = 6
	}
	c.Add(l4)
	return c, l4[csumOff : csumOff+2], true
}

// L4Checksum computes the TCP/UDP checksum for the parsed packet, including
// the pseudo-header. Returns 0, false if the packet has no supported L4.
func L4Checksum(in *Info) (uint16, bool) {
	c, field, ok := l4Sum(in)
	if !ok {
		return 0, false
	}
	// Take the field back out of the one-pass sum: adding its complement
	// adds 0xFFFF in all, which is zero in one's complement arithmetic.
	c.AddUint16(^binary.BigEndian.Uint16(field))
	return c.Sum(), true
}

// VerifyL4 reports whether the packet's TCP/UDP checksum is valid: the sum
// over pseudo-header and segment including the checksum field is zero, which
// also accepts a computed 0 transmitted as 0xFFFF (RFC 768).
func VerifyL4(in *Info) bool {
	c, field, ok := l4Sum(in)
	if !ok {
		return false
	}
	if in.L4 == L4UDP && in.L3 == L3IPv4 && field[0]|field[1] == 0 {
		return true // UDP checksum optional over IPv4 only (RFC 8200 §8.1)
	}
	return c.Sum() == 0
}
