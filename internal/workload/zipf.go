package workload

import (
	"fmt"
	"math"

	"opendesc/internal/pkt"
)

// ZipfSpec configures the flow-popularity generator for the multi-tenant
// serving plane: packets are drawn from a bounded Zipf(s) distribution over
// a flow population that can reach millions of concurrent flows (flows are
// materialized per packet from their popularity rank, never as a table).
type ZipfSpec struct {
	// Packets is the trace length.
	Packets int
	// Flows is the concurrent flow population (popularity ranks 1..Flows).
	// Bounded by 1<<24: flows are addressed inside a 10.0.0.0/8 source net.
	Flows int
	// Skew is the Zipf exponent s ≥ 0: 0 is uniform, ~1 matches measured
	// web/object-store popularity, larger concentrates traffic on the head.
	Skew float64
	// Tenants shards the flow space: flow rank r belongs to tenant
	// (r-1) mod Tenants, so every tenant owns an equal slice of both the
	// popularity head and the tail (equal offered load in expectation).
	// Tenant i receives on UDP destination port BasePort+i.
	Tenants int
	// Seed makes the trace byte-identical across runs (chaos discipline:
	// the generator uses its own splitmix64 stream, not math/rand, whose
	// sequence is not stable across Go releases).
	Seed uint64
}

// maxZipfFlows bounds the flow population to 24-bit source addressing.
const maxZipfFlows = 1 << 24

// BasePort is the UDP destination port of tenant 0; tenant i receives on
// BasePort+i. The serving plane classifies tenants by this port.
const BasePort = 20000

// zipfPayloadBytes is the UDP payload size of every generated packet.
const zipfPayloadBytes = 26

// ZipfTrace is a generated flow-popularity packet sequence with its
// per-packet tenant and flow-rank attribution.
type ZipfTrace struct {
	Spec    ZipfSpec
	Packets [][]byte
	// TenantOf[i] is the tenant index of packet i.
	TenantOf []int
	// FlowOf[i] is the popularity rank (1-based) of packet i's flow.
	FlowOf []int
	// DistinctFlows counts the flows actually touched by the trace.
	DistinctFlows int
}

// zipfRNG is a splitmix64 PRNG — same discipline as the chaos scheduler
// (package chaos imports workload, so the 10-line generator is repeated
// here rather than imported).
type zipfRNG struct{ s uint64 }

func (r *zipfRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0,1).
func (r *zipfRNG) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipfRank inverts the continuous bounded-Zipf CDF: for s≠1,
// rank = ⌊(u·(N^(1−s)−1)+1)^(1/(1−s))⌋, and rank = ⌊e^(u·lnN)⌋ at s=1 —
// the standard closed-form approximation of the discrete distribution,
// exact enough for popularity skew and O(1) regardless of N.
func zipfRank(u float64, n int, s float64) int {
	if n <= 1 {
		return 1
	}
	N := float64(n)
	var k float64
	if s == 1 {
		k = math.Exp(u * math.Log(N))
	} else {
		t := math.Pow(N, 1-s)
		k = math.Pow(u*(t-1)+1, 1/(1-s))
	}
	r := int(k)
	if r < 1 {
		return 1
	}
	if r > n {
		return n
	}
	return r
}

// GenerateZipf builds the trace. Every parameter is validated up front so a
// misconfigured experiment fails loudly instead of producing a silently
// degenerate population.
func GenerateZipf(spec ZipfSpec) (*ZipfTrace, error) {
	if spec.Packets <= 0 {
		return nil, fmt.Errorf("workload: zipf packet count %d must be positive", spec.Packets)
	}
	if spec.Flows <= 0 {
		return nil, fmt.Errorf("workload: zipf flow population %d must be positive", spec.Flows)
	}
	if spec.Flows > maxZipfFlows {
		return nil, fmt.Errorf("workload: zipf flow population %d exceeds 24-bit flow addressing (max %d)",
			spec.Flows, maxZipfFlows)
	}
	if math.IsNaN(spec.Skew) || math.IsInf(spec.Skew, 0) || spec.Skew < 0 {
		return nil, fmt.Errorf("workload: zipf skew %v must be a finite value ≥ 0", spec.Skew)
	}
	if spec.Tenants <= 0 {
		return nil, fmt.Errorf("workload: zipf tenant count %d must be positive", spec.Tenants)
	}
	if spec.Tenants > spec.Flows {
		return nil, fmt.Errorf("workload: zipf tenant count %d exceeds flow population %d",
			spec.Tenants, spec.Flows)
	}
	if spec.Tenants > 4096 {
		return nil, fmt.Errorf("workload: zipf tenant count %d exceeds the 4096-port tenant namespace", spec.Tenants)
	}

	rng := &zipfRNG{s: spec.Seed}
	tr := &ZipfTrace{
		Spec:     spec,
		Packets:  make([][]byte, 0, spec.Packets),
		TenantOf: make([]int, 0, spec.Packets),
		FlowOf:   make([]int, 0, spec.Packets),
	}
	seen := make(map[int]struct{})
	payload := make([]byte, zipfPayloadBytes)
	for i := 0; i < spec.Packets; i++ {
		rank := zipfRank(rng.float(), spec.Flows, spec.Skew)
		f := rank - 1
		tenant := f % spec.Tenants
		for j := range payload {
			payload[j] = byte(rng.next())
		}
		// The 5-tuple is a pure function of the rank so one flow is one
		// 5-tuple no matter when it recurs in the trace.
		sport := uint16(1024 + (uint32(f)*2654435761)%60000)
		b := pkt.NewBuilder().
			WithIPv4(
				[4]byte{10, byte(f >> 16), byte(f >> 8), byte(f)},
				[4]byte{192, 168, byte(tenant >> 8), byte(tenant)},
			).
			WithIPID(uint16(i)).
			WithUDP(sport, BasePort+uint16(tenant)).
			WithPayload(payload)
		tr.Packets = append(tr.Packets, b.Build())
		tr.TenantOf = append(tr.TenantOf, tenant)
		tr.FlowOf = append(tr.FlowOf, rank)
		if _, ok := seen[rank]; !ok {
			seen[rank] = struct{}{}
			tr.DistinctFlows++
		}
	}
	return tr, nil
}
