// Package semantics defines the OpenDesc semantic universe Σ: the canonical
// names of metadata items that hosts and NICs exchange, the software
// reference implementation of each item (the "SoftNIC" fallback the paper
// delegates missing features to), and the per-semantic software cost model
// w: Σ → ℝ>0 ∪ {∞} used by the compiler's optimization (Eq. 1).
package semantics

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Name identifies a semantic (an element of Σ).
type Name string

// Canonical semantics. Applications and NIC descriptions may register more
// at runtime (the paper's "evolvable" property).
const (
	RSS          Name = "rss"          // receive-side-scaling hash over the 5-tuple
	IPChecksum   Name = "ip_checksum"  // IPv4 header checksum (verified/computed)
	L4Checksum   Name = "l4_checksum"  // TCP/UDP checksum (verified/computed)
	VLAN         Name = "vlan"         // stripped VLAN TCI
	Timestamp    Name = "timestamp"    // RX hardware timestamp
	PktLen       Name = "pkt_len"      // wire length of the packet
	PType        Name = "ptype"        // parsed packet type (L2/L3/L4 code)
	FlowID       Name = "flow_id"      // exact-match flow identifier
	IPID         Name = "ip_id"        // IPv4 identification field
	Mark         Name = "mark"         // match-action rule mark/tag
	QueueID      Name = "queue_id"     // receive queue index
	LROSegs      Name = "lro_segs"     // coalesced segment count (LRO)
	InnerCsum    Name = "inner_csum"   // inner (tunnel) checksum status
	TunnelID     Name = "tunnel_id"    // VXLAN/GENEVE VNI
	KVKey        Name = "kv_key"       // key of a key-value-store request (FlexNIC-style)
	CryptoCtx    Name = "crypto_ctx"   // cryptographic context id (AES offload)
	SegCnt       Name = "seg_cnt"      // scatter/gather segment count
	ErrorFlags   Name = "error_flags"  // RX error bits
	ChecksumAny  Name = "csum_level"   // checksum validation depth
	PayloadHash  Name = "payload_hash" // hash over payload bytes (RegEx/offload aides)
	DecapFlag    Name = "decap"        // tunnel decapsulated indicator
	RXDropHint   Name = "drop_hint"    // early-drop classification hint
	L4Port       Name = "l4_dst_port"  // parsed L4 destination port
	ParserDepth  Name = "parser_depth" // how deep the on-NIC parser got
	MetaRawStart Name = "raw_meta"     // raw programmable-pipeline metadata blob
)

// Infinite is the cost of a semantic that software cannot emulate
// (w(s) = ∞ in the paper's formulation).
var Infinite = math.Inf(1)

// Descriptor describes one semantic: its identity, default width, and
// software-emulation properties.
type Descriptor struct {
	Name Name
	// Doc is a one-line description.
	Doc string
	// DefaultBits is the canonical field width used when an intent does not
	// specify one.
	DefaultBits int
	// SoftCost is the default software-emulation cost w(s) in abstract
	// cost units (calibrated ≈ ns/packet on the reference machine). Use
	// Infinite when no software fallback exists.
	SoftCost float64
	// Stages is the match-action stage count the semantic costs when pushed
	// to a programmable pipeline (core.PlanOffloads); zero means it has no
	// pipeline form.
	Stages int
	// RequiresPayload marks a semantic whose pipeline form must inspect
	// payload bytes, which RMT-style stages cannot: only a device with
	// payload externs can host it.
	RequiresPayload bool
}

// Registry maps semantic names to descriptors. The zero value is empty; use
// NewRegistry for one pre-populated with the canonical universe.
type Registry struct {
	mu     sync.RWMutex
	byName map[Name]*Descriptor
}

// NewRegistry returns a registry populated with the canonical semantics.
func NewRegistry() *Registry {
	r := &Registry{byName: make(map[Name]*Descriptor)}
	for _, d := range canonical {
		dd := d
		r.byName[d.Name] = &dd
	}
	return r
}

// canonical is the built-in universe. Costs are the static model used when
// no measured calibration is supplied; see package softnic for measurement.
var canonical = []Descriptor{
	{Name: RSS, Doc: "Toeplitz RSS hash over the 5-tuple", DefaultBits: 32, SoftCost: 18, Stages: 2},
	{Name: IPChecksum, Doc: "IPv4 header checksum verification", DefaultBits: 16, SoftCost: 26, Stages: 1},
	{Name: L4Checksum, Doc: "TCP/UDP checksum verification", DefaultBits: 16, SoftCost: 95, Stages: 1},
	{Name: VLAN, Doc: "stripped 802.1Q TCI", DefaultBits: 16, SoftCost: 4, Stages: 1},
	{Name: Timestamp, Doc: "RX hardware timestamp", DefaultBits: 64, SoftCost: Infinite},
	{Name: PktLen, Doc: "wire length", DefaultBits: 16, SoftCost: 1},
	{Name: PType, Doc: "parsed packet type code", DefaultBits: 8, SoftCost: 9, Stages: 1},
	{Name: FlowID, Doc: "exact-match flow identifier", DefaultBits: 32, SoftCost: 35, Stages: 3},
	{Name: IPID, Doc: "IPv4 identification field", DefaultBits: 16, SoftCost: 3, Stages: 1},
	{Name: Mark, Doc: "match-action mark", DefaultBits: 32, SoftCost: Infinite},
	{Name: QueueID, Doc: "receive queue index", DefaultBits: 16, SoftCost: 1},
	{Name: LROSegs, Doc: "coalesced segment count", DefaultBits: 8, SoftCost: Infinite},
	{Name: InnerCsum, Doc: "inner checksum status", DefaultBits: 8, SoftCost: 120},
	{Name: TunnelID, Doc: "tunnel VNI", DefaultBits: 32, SoftCost: 14, Stages: 1},
	{Name: KVKey, Doc: "key-value request key digest", DefaultBits: 64, SoftCost: 150, Stages: 4, RequiresPayload: true},
	{Name: CryptoCtx, Doc: "crypto context id", DefaultBits: 32, SoftCost: Infinite},
	{Name: SegCnt, Doc: "scatter/gather segment count", DefaultBits: 8, SoftCost: 2},
	{Name: ErrorFlags, Doc: "RX error bits", DefaultBits: 8, SoftCost: 2},
	{Name: ChecksumAny, Doc: "checksum validation depth", DefaultBits: 2, SoftCost: 30},
	{Name: PayloadHash, Doc: "payload hash", DefaultBits: 32, SoftCost: 210, Stages: 2, RequiresPayload: true},
	{Name: DecapFlag, Doc: "decapsulation indicator", DefaultBits: 1, SoftCost: 6},
	{Name: RXDropHint, Doc: "early-drop hint", DefaultBits: 1, SoftCost: Infinite},
	{Name: L4Port, Doc: "L4 destination port", DefaultBits: 16, SoftCost: 7},
	{Name: ParserDepth, Doc: "on-NIC parser depth", DefaultBits: 4, SoftCost: 9},
	{Name: MetaRawStart, Doc: "raw pipeline metadata blob", DefaultBits: 64, SoftCost: Infinite},
}

// Lookup returns the descriptor for a semantic, or nil.
func (r *Registry) Lookup(n Name) *Descriptor {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byName[n]
}

// Register adds or replaces a semantic descriptor. This is the paper's
// extension point: "The application can define new @semantic annotations
// that are tied ... to a new feature."
func (r *Registry) Register(d Descriptor) error {
	if d.Name == "" {
		return fmt.Errorf("semantic name must not be empty")
	}
	if d.DefaultBits <= 0 || d.DefaultBits > 4096 {
		return fmt.Errorf("semantic %q: default width %d out of range", d.Name, d.DefaultBits)
	}
	if d.SoftCost < 0 || d.Stages < 0 {
		return fmt.Errorf("semantic %q: negative cost or stage count", d.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	dd := d
	r.byName[d.Name] = &dd
	return nil
}

// Names returns all registered semantic names, sorted.
func (r *Registry) Names() []Name {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Name, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of registered semantics.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byName)
}

// Default is the process-wide registry with the canonical universe.
var Default = NewRegistry()

// CostModel is the w: Σ → ℝ>0 ∪ {∞} function handed to the compiler. The
// default model reads SoftCost from a registry; measured models (package
// softnic) or per-application overrides can replace it.
type CostModel func(Name) float64

// RegistryCosts builds a CostModel from a registry; unknown semantics are
// infinitely expensive (software cannot emulate what it does not know).
func RegistryCosts(r *Registry) CostModel {
	return func(n Name) float64 {
		if d := r.Lookup(n); d != nil {
			return d.SoftCost
		}
		return Infinite
	}
}

// WithOverrides wraps a cost model with per-semantic overrides.
func (cm CostModel) WithOverrides(over map[Name]float64) CostModel {
	return func(n Name) float64 {
		if v, ok := over[n]; ok {
			return v
		}
		return cm(n)
	}
}

// Set is an ordered-insensitive collection of semantics.
type Set map[Name]struct{}

// NewSet builds a set from names.
func NewSet(names ...Name) Set {
	s := make(Set, len(names))
	for _, n := range names {
		s[n] = struct{}{}
	}
	return s
}

// Add inserts a name.
func (s Set) Add(n Name) { s[n] = struct{}{} }

// Has reports membership.
func (s Set) Has(n Name) bool {
	_, ok := s[n]
	return ok
}

// Intersect returns s ∩ o as a new set.
func (s Set) Intersect(o Set) Set {
	out := make(Set)
	for n := range s {
		if o.Has(n) {
			out[n] = struct{}{}
		}
	}
	return out
}

// Sorted returns the members in lexical order.
func (s Set) Sorted() []Name {
	out := make([]Name, 0, len(s))
	for n := range s {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the set as {a, b, c}.
func (s Set) String() string {
	names := s.Sorted()
	out := "{"
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += string(n)
	}
	return out + "}"
}

// Equal reports set equality.
func (s Set) Equal(o Set) bool {
	if len(s) != len(o) {
		return false
	}
	for n := range s {
		if !o.Has(n) {
			return false
		}
	}
	return true
}
