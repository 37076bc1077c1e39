// Package pkt implements a small, allocation-free packet library for the
// protocols the OpenDesc experiments exercise: Ethernet, 802.1Q VLAN (incl.
// QinQ), IPv4, IPv6, TCP and UDP. It provides zero-copy field views over a
// byte slice plus serialization helpers used by the workload generator.
package pkt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// EtherType values understood by the decoder.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeVLAN uint16 = 0x8100
	EtherTypeQinQ uint16 = 0x88A8
	EtherTypeIPv6 uint16 = 0x86DD
)

// IP protocol numbers.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// Header sizes in bytes.
const (
	EthHeaderLen  = 14
	VLANTagLen    = 4
	IPv4MinLen    = 20
	IPv6HeaderLen = 40
	TCPMinLen     = 20
	UDPHeaderLen  = 8
)

// Errors returned by the decoder.
var (
	ErrTruncated   = errors.New("pkt: truncated packet")
	ErrUnsupported = errors.New("pkt: unsupported protocol")
	ErrBadVersion  = errors.New("pkt: bad IP version")
	ErrBadLength   = errors.New("pkt: inconsistent length fields")
)

// L4Kind classifies the transport layer.
type L4Kind uint8

// Transport classifications.
const (
	L4None L4Kind = iota
	L4TCP
	L4UDP
	L4Other
)

func (k L4Kind) String() string {
	switch k {
	case L4TCP:
		return "tcp"
	case L4UDP:
		return "udp"
	case L4Other:
		return "other"
	}
	return "none"
}

// L3Kind classifies the network layer.
type L3Kind uint8

// Network classifications.
const (
	L3None L3Kind = iota
	L3IPv4
	L3IPv6
	L3Other
)

func (k L3Kind) String() string {
	switch k {
	case L3IPv4:
		return "ipv4"
	case L3IPv6:
		return "ipv6"
	case L3Other:
		return "other"
	}
	return "none"
}

// Info is the parsed view of a packet: offsets of each layer inside the
// original buffer plus the extracted addressing fields. It contains no
// pointers into the heap beyond the original data slice, so decoding is
// allocation-free and Info values can be reused.
type Info struct {
	Data []byte

	// Layer offsets; -1 when the layer is absent.
	L2Off int
	L3Off int
	L4Off int
	// PayloadOff is the offset of the L4 payload (or -1).
	PayloadOff int

	L3 L3Kind
	L4 L4Kind

	// VLAN tags in outer-to-inner order (QinQ ⇒ 2 entries). TCI includes
	// PCP/DEI/VID.
	VLANTCIs  [2]uint16
	VLANCount int

	// IPv4/IPv6 addressing. For IPv4 only the first 4 bytes are meaningful.
	SrcIP [16]byte
	DstIP [16]byte

	SrcPort uint16
	DstPort uint16

	IPProto uint8
	IPID    uint16 // IPv4 only
	TTL     uint8

	// TCPFlags holds the TCP flag byte when L4 == L4TCP.
	TCPFlags uint8
}

// Reset clears the Info for reuse.
func (in *Info) Reset() {
	*in = Info{L2Off: -1, L3Off: -1, L4Off: -1, PayloadOff: -1}
}

// Payload returns the L4 payload bytes (nil when absent).
func (in *Info) Payload() []byte {
	if in.PayloadOff < 0 || in.PayloadOff > len(in.Data) {
		return nil
	}
	return in.Data[in.PayloadOff:]
}

// OuterTCI returns the outermost VLAN TCI (0 when untagged).
func (in *Info) OuterTCI() uint16 {
	if in.VLANCount == 0 {
		return 0
	}
	return in.VLANTCIs[0]
}

// Decode parses an Ethernet frame into info. It stops gracefully at the first
// unsupported or truncated layer: the returned error describes the problem but
// the layers decoded up to that point remain valid.
func Decode(data []byte, in *Info) error {
	in.Reset()
	in.Data = data
	if len(data) < EthHeaderLen {
		return ErrTruncated
	}
	in.L2Off = 0
	etherType := binary.BigEndian.Uint16(data[12:14])
	off := EthHeaderLen

	// VLAN tags (up to 2: QinQ).
	for etherType == EtherTypeVLAN || etherType == EtherTypeQinQ {
		if in.VLANCount >= 2 {
			return fmt.Errorf("%w: more than two VLAN tags", ErrUnsupported)
		}
		if len(data) < off+VLANTagLen {
			return ErrTruncated
		}
		in.VLANTCIs[in.VLANCount] = binary.BigEndian.Uint16(data[off : off+2])
		in.VLANCount++
		etherType = binary.BigEndian.Uint16(data[off+2 : off+4])
		off += VLANTagLen
	}

	switch etherType {
	case EtherTypeIPv4:
		return decodeIPv4(data, off, in)
	case EtherTypeIPv6:
		return decodeIPv6(data, off, in)
	default:
		in.L3 = L3Other
		return nil
	}
}

func decodeIPv4(data []byte, off int, in *Info) error {
	if len(data) < off+IPv4MinLen {
		return ErrTruncated
	}
	b := data[off:]
	if b[0]>>4 != 4 {
		return ErrBadVersion
	}
	ihl := int(b[0]&0x0F) * 4
	if ihl < IPv4MinLen || len(data) < off+ihl {
		return ErrBadLength
	}
	totalLen := int(binary.BigEndian.Uint16(b[2:4]))
	if totalLen < ihl || off+totalLen > len(data) {
		return ErrBadLength
	}
	in.L3 = L3IPv4
	in.L3Off = off
	in.IPID = binary.BigEndian.Uint16(b[4:6])
	in.TTL = b[8]
	in.IPProto = b[9]
	copy(in.SrcIP[:4], b[12:16])
	copy(in.DstIP[:4], b[16:20])
	return decodeL4(data, off+ihl, in)
}

func decodeIPv6(data []byte, off int, in *Info) error {
	if len(data) < off+IPv6HeaderLen {
		return ErrTruncated
	}
	b := data[off:]
	if b[0]>>4 != 6 {
		return ErrBadVersion
	}
	in.L3 = L3IPv6
	in.L3Off = off
	in.IPProto = b[6]
	in.TTL = b[7]
	copy(in.SrcIP[:], b[8:24])
	copy(in.DstIP[:], b[24:40])
	return decodeL4(data, off+IPv6HeaderLen, in)
}

func decodeL4(data []byte, off int, in *Info) error {
	switch in.IPProto {
	case ProtoTCP:
		if len(data) < off+TCPMinLen {
			return ErrTruncated
		}
		b := data[off:]
		in.L4 = L4TCP
		in.L4Off = off
		in.SrcPort = binary.BigEndian.Uint16(b[0:2])
		in.DstPort = binary.BigEndian.Uint16(b[2:4])
		in.TCPFlags = b[13]
		dataOff := int(b[12]>>4) * 4
		if dataOff < TCPMinLen || off+dataOff > len(data) {
			return ErrBadLength
		}
		in.PayloadOff = off + dataOff
		return nil
	case ProtoUDP:
		if len(data) < off+UDPHeaderLen {
			return ErrTruncated
		}
		b := data[off:]
		in.L4 = L4UDP
		in.L4Off = off
		in.SrcPort = binary.BigEndian.Uint16(b[0:2])
		in.DstPort = binary.BigEndian.Uint16(b[2:4])
		in.PayloadOff = off + UDPHeaderLen
		return nil
	default:
		in.L4 = L4Other
		return nil
	}
}

// PTypeCode packs the parsed layer kinds into the 8-bit packet-type code NICs
// report: upper nibble L3, lower nibble L4 (matching DPDK's RTE_PTYPE split in
// spirit).
func (in *Info) PTypeCode() uint8 {
	return uint8(in.L3)<<4 | uint8(in.L4)
}
