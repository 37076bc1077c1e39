// Package workload generates deterministic synthetic packet traces for the
// OpenDesc experiments: multi-flow TCP/UDP mixes with configurable packet
// sizes, VLAN tagging, tunnel traffic, corrupted checksums, and
// memcached-style key-value request streams (the Fig. 1 scenario).
package workload

import (
	"fmt"
	"math/rand"

	"opendesc/internal/pkt"
	"opendesc/internal/semantics"
)

// Spec configures a trace.
type Spec struct {
	// Packets is the trace length.
	Packets int
	// Flows is the number of distinct 5-tuples (round-robin).
	Flows int
	// PayloadBytes is the L4 payload size (pre-header).
	PayloadBytes int
	// TCPFraction in [0,1] selects the TCP share; the rest is UDP.
	TCPFraction float64
	// VLANFraction tags this share of packets with 802.1Q.
	VLANFraction float64
	// TunnelFraction wraps this share in a VXLAN-like header (UDP 4789).
	TunnelFraction float64
	// BadCsumFraction corrupts the L4 checksum on this share.
	BadCsumFraction float64
	// KVFraction carries a memcached-style "get <key>" request as payload.
	KVFraction float64
	// Seed makes the trace reproducible.
	Seed int64
}

// DefaultSpec is a balanced 64-flow mix.
func DefaultSpec() Spec {
	return Spec{
		Packets:      1024,
		Flows:        64,
		PayloadBytes: 64,
		TCPFraction:  0.6,
		VLANFraction: 0.3,
		Seed:         1,
	}
}

// Trace is a generated packet sequence.
type Trace struct {
	Spec    Spec
	Packets [][]byte
}

// Generate builds the trace.
func Generate(spec Spec) (*Trace, error) {
	if spec.Packets <= 0 {
		return nil, fmt.Errorf("workload: packet count %d must be positive", spec.Packets)
	}
	if spec.Flows <= 0 {
		spec.Flows = 1
	}
	for name, f := range map[string]float64{
		"TCPFraction": spec.TCPFraction, "VLANFraction": spec.VLANFraction,
		"TunnelFraction": spec.TunnelFraction, "BadCsumFraction": spec.BadCsumFraction,
		"KVFraction": spec.KVFraction,
	} {
		if f < 0 || f > 1 {
			return nil, fmt.Errorf("workload: %s = %v out of [0,1]", name, f)
		}
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	tr := &Trace{Spec: spec, Packets: make([][]byte, 0, spec.Packets)}
	for i := 0; i < spec.Packets; i++ {
		flow := i % spec.Flows
		b := pkt.NewBuilder().
			WithIPv4(
				[4]byte{10, 0, byte(flow >> 8), byte(flow)},
				[4]byte{192, 168, 0, byte(flow % 250)},
			).
			WithIPID(uint16(i))

		payload := make([]byte, spec.PayloadBytes)
		rng.Read(payload)
		kv := rng.Float64() < spec.KVFraction
		if kv {
			payload = []byte(fmt.Sprintf("get key:%06d\r\n", flow))
		}

		switch {
		case rng.Float64() < spec.TunnelFraction:
			// VXLAN-style: flags byte + rsvd + VNI + inner stub.
			vni := uint32(flow + 1)
			vx := make([]byte, 8+len(payload))
			vx[0] = 0x08
			vx[4] = byte(vni >> 16)
			vx[5] = byte(vni >> 8)
			vx[6] = byte(vni)
			copy(vx[8:], payload)
			b.WithUDP(uint16(20000+flow), 4789).WithPayload(vx)
		case kv:
			b.WithUDP(uint16(30000+flow), 11211).WithPayload(payload)
		case rng.Float64() < spec.TCPFraction:
			b.WithTCP(uint16(40000+flow), 443, 0x18).WithPayload(payload)
		default:
			b.WithUDP(uint16(50000+flow), 53).WithPayload(payload)
		}
		if rng.Float64() < spec.VLANFraction {
			b.WithVLAN(uint16(100 + flow%5))
		}
		if rng.Float64() < spec.BadCsumFraction {
			b.WithBadL4Checksum()
		}
		tr.Packets = append(tr.Packets, b.Build())
	}
	return tr, nil
}

// MustGenerate panics on an invalid spec.
func MustGenerate(spec Spec) *Trace {
	tr, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return tr
}

// Mix is a read-mix: the ordered list of semantics an application reads per
// delivered packet. The empty mix is valid — deliveries then read nothing
// (the application consumes only the packet bytes), which is the degenerate
// feature mix an evolving driver must also survive.
type Mix []string

// MixSchedule is an ordered list of read-mix phases. A shifting workload
// walks the phases (the chaos scheduler jumps between them on scripted
// mix-shift events); a one-phase schedule is a steady mix, and an abrupt
// 100%-flip is simply two disjoint single-field phases back to back.
type MixSchedule struct {
	Phases []Mix
}

// NewMixSchedule validates every phase's semantics against the default
// registry (unknown names would silently read nothing and mask bugs) and
// returns the schedule. At least one phase is required; empty phases are
// allowed.
func NewMixSchedule(phases ...Mix) (MixSchedule, error) {
	if len(phases) == 0 {
		return MixSchedule{}, fmt.Errorf("workload: mix schedule needs at least one phase")
	}
	for pi, ph := range phases {
		for _, s := range ph {
			if semantics.Default.Lookup(semantics.Name(s)) == nil {
				return MixSchedule{}, fmt.Errorf("workload: mix phase %d: unknown semantic %q", pi, s)
			}
		}
	}
	return MixSchedule{Phases: phases}, nil
}

// MustMixSchedule panics on an invalid schedule.
func MustMixSchedule(phases ...Mix) MixSchedule {
	s, err := NewMixSchedule(phases...)
	if err != nil {
		panic(err)
	}
	return s
}

// Phase returns phase i, wrapping modulo the phase count so schedule walkers
// never fall off the end; the zero schedule returns the empty mix.
func (s MixSchedule) Phase(i int) Mix {
	if len(s.Phases) == 0 {
		return nil
	}
	if i < 0 {
		i = -i
	}
	return s.Phases[i%len(s.Phases)]
}
