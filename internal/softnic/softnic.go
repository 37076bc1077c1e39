// Package softnic provides the software reference implementation of every
// emulable semantic — the "SoftNIC-like framework [that] emulates each
// missing semantic at a run-time cost" of the paper — as the one reference
// table (table.go) the simulated device, the shims and every oracle read.
// The OpenDesc runtime links its rows as shims for the semantics the
// selected completion layout does not provide, and the calibration routine
// measures w(s) on the running machine to replace the static cost table.
package softnic

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"time"
	"unsafe"

	"opendesc/internal/pkt"
	"opendesc/internal/semantics"
)

// DefaultToeplitzKey is the Microsoft RSS reference hash key.
var DefaultToeplitzKey = [40]byte{
	0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
	0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
	0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
	0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
	0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
}

// SymmetricToeplitzKey is a repeating 16-bit-pattern key (0x6d5a). A
// Toeplitz key whose bits repeat with period 16 makes the hash invariant
// under swapping (src IP, dst IP) and (src port, dst port) — every field
// moves by a multiple of 16 bits — so both directions of a flow land on the
// same RSS queue. The multi-tenant serving plane steers with this key.
var SymmetricToeplitzKey = [40]byte{
	0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a,
	0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a,
	0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a,
	0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a,
	0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a,
}

// toeplitzAt is the bit-serial definition of the hash: the contribution of
// byte value in at input position i. It builds the tables below and is the
// oracle they are tested against.
func toeplitzAt(key []byte, i int, in byte) uint32 {
	if in == 0 || len(key) < 4 {
		return 0 // a zero byte XORs nothing; under 4 key bytes no 32-bit window ever forms
	}
	// 64 key bits starting at byte i (zero-padded past the end): bits
	// b..b+31 of this window are the Toeplitz window for input bit b (MSB
	// first) of byte i.
	var w uint64
	for k := i; k < i+8; k++ {
		w <<= 8
		if k < len(key) {
			w |= uint64(key[k])
		}
	}
	var hash uint32
	for b := 0; b < 8; b++ {
		if in&(0x80>>b) != 0 {
			hash ^= uint32(w >> (32 - b))
		}
	}
	return hash
}

// toeplitzPositions is the longest RSS input: the IPv6 5-tuple.
const toeplitzPositions = 36

// ToeplitzTable is the Toeplitz hash under one key, tabulated once: the hash
// is linear over XOR, so each input nibble contributes one precomputed word.
// Per-nibble tables are 36×2×16×4 B = 4.5 KiB per key. Per-byte tables
// (36 KiB per key, more than L1 once a plane steers under a second key) were
// measured too: 20 instead of 29 ns per IPv4 5-tuple in a hot loop (the
// bit-serial hash: 228 ns), +2.5% sim_pps on cmd/benchmark's hw_fastpath,
// nothing on tenants_zipf — not worth eight times the footprint.
type ToeplitzTable struct {
	key []byte
	tab [toeplitzPositions][2][16]uint32
}

// NewToeplitzTable tabulates key (copied; any length).
func NewToeplitzTable(key []byte) *ToeplitzTable {
	t := &ToeplitzTable{key: append([]byte(nil), key...)}
	for i := range t.tab {
		for v := 0; v < 16; v++ {
			t.tab[i][0][v] = toeplitzAt(key, i, byte(v<<4))
			t.tab[i][1][v] = toeplitzAt(key, i, byte(v))
		}
	}
	return t
}

// Hash is the Toeplitz hash of input under the table's key; input past the
// table falls back to the bit-serial definition.
func (t *ToeplitzTable) Hash(input []byte) uint32 {
	var hash uint32
	head := input[:min(len(input), toeplitzPositions)]
	for i, in := range head {
		hash ^= t.tab[i][0][in>>4] ^ t.tab[i][1][in&0xF]
	}
	for i := len(head); i < len(input); i++ {
		hash ^= toeplitzAt(t.key, i, input[i])
	}
	return hash
}

var defaultToeplitz = NewToeplitzTable(DefaultToeplitzKey[:])

// RSS computes the standard 5-tuple (or 2-tuple for non-TCP/UDP) Toeplitz
// RSS hash of a decoded packet under the Microsoft reference key.
func RSS(in *pkt.Info) uint32 { return defaultToeplitz.RSS(in) }

// RSS is the package-level RSS under the table's key (e.g.
// SymmetricToeplitzKey for direction-invariant steering). Non-IP packets
// hash to 0.
func (t *ToeplitzTable) RSS(in *pkt.Info) uint32 {
	var buf [toeplitzPositions]byte
	n := 0
	switch in.L3 {
	case pkt.L3IPv4:
		n += copy(buf[n:], in.SrcIP[:4])
		n += copy(buf[n:], in.DstIP[:4])
	case pkt.L3IPv6:
		n += copy(buf[n:], in.SrcIP[:])
		n += copy(buf[n:], in.DstIP[:])
	default:
		return 0
	}
	if in.L4 == pkt.L4TCP || in.L4 == pkt.L4UDP {
		binary.BigEndian.PutUint16(buf[n:], in.SrcPort)
		binary.BigEndian.PutUint16(buf[n+2:], in.DstPort)
		n += 4
	}
	return t.Hash(buf[:n])
}

// FlowID computes a symmetric exact-match flow identifier (FNV-1a over the
// sorted 5-tuple) — software stand-in for NIC flow-table match results.
func FlowID(in *pkt.Info) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	mix := func(b byte) { h = (h ^ uint32(b)) * prime32 }
	a, b := in.SrcIP, in.DstIP
	pa, pb := in.SrcPort, in.DstPort
	// Symmetric ordering so both directions map to one flow.
	swap := false
	for i := range a {
		if a[i] != b[i] {
			swap = a[i] > b[i]
			break
		}
	}
	if swap {
		a, b = b, a
		pa, pb = pb, pa
	}
	for _, x := range a {
		mix(x)
	}
	for _, x := range b {
		mix(x)
	}
	mix(byte(pa >> 8))
	mix(byte(pa))
	mix(byte(pb >> 8))
	mix(byte(pb))
	mix(in.IPProto)
	return h
}

// IPChecksum recomputes the IPv4 header checksum (0 for non-IPv4).
func IPChecksum(in *pkt.Info) uint16 {
	if in.L3 != pkt.L3IPv4 || in.L3Off < 0 {
		return 0
	}
	hdr := in.Data[in.L3Off:]
	ihl := int(hdr[0]&0x0F) * 4
	if ihl < pkt.IPv4MinLen || in.L3Off+ihl > len(in.Data) {
		return 0
	}
	return pkt.IPv4HeaderChecksum(hdr[:ihl])
}

// L4Checksum recomputes the TCP/UDP checksum including pseudo-header.
func L4Checksum(in *pkt.Info) uint16 {
	c, _ := pkt.L4Checksum(in)
	return c
}

// VLANTCI extracts the outer VLAN TCI (0 when untagged).
func VLANTCI(in *pkt.Info) uint16 { return in.OuterTCI() }

// PType returns the parsed packet-type code.
func PType(in *pkt.Info) uint8 { return in.PTypeCode() }

// PayloadHash hashes the L4 payload (FNV-1a), a software stand-in for
// accelerator-computed digests (RegEx pre-filters and similar).
func PayloadHash(in *pkt.Info) uint32 {
	const prime32 = 16777619
	h := uint32(2166136261)
	for _, b := range in.Payload() {
		h = (h ^ uint32(b)) * prime32
	}
	return h
}

// KVKey extracts the key digest of a key-value-store request carried as the
// packet payload. The recognized wire format is "get <key>\r\n" /
// "set <key> ..." (memcached-style); the digest is FNV-1a64 over the key
// bytes, which is what a FlexNIC-style offload would steer on.
func KVKey(in *pkt.Info) uint64 {
	key, ok := kvKeySpan(in.Payload())
	if !ok {
		return 0
	}
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, b := range key {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}

// kvKeySpan is the key of the key-value request p: the bytes after the verb's
// space up to the next ' ', '\r' or '\n', or the end. ok is false when there
// is no space or the key is empty.
func kvKeySpan(p []byte) (key []byte, ok bool) {
	i := bytes.IndexByte(p, ' ')
	if i < 0 {
		return nil, false
	}
	key = p[i+1:]
	key = key[:keyEnd(key)]
	return key, len(key) > 0
}

// keyEnd is the index of the first ' ', '\r' or '\n' in p, len(p) when there
// is none, found eight bytes at a time (SWAR). A byte of x = w^(c*lo) is zero
// where the word w holds c, and (x-lo)&^x&hi sets the top bit of x's lowest
// zero byte and of no byte below it; so the lowest bit set over the three
// terminators marks the first of them.
func keyEnd(p []byte) int {
	const lo, hi = 0x0101010101010101, 0x8080808080808080
	i := 0
	for ; i+8 <= len(p); i += 8 {
		w := binary.LittleEndian.Uint64(p[i:])
		x, y, z := w^(' '*lo), w^('\r'*lo), w^('\n'*lo)
		if m := ((x-lo)&^x | (y-lo)&^y | (z-lo)&^z) & hi; m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for ; i < len(p); i++ {
		if c := p[i]; c == ' ' || c == '\r' || c == '\n' {
			break
		}
	}
	return i
}

// BurstMax is the most frames one call of a row's burst form reads.
const BurstMax = 32

// payloadSpan is what payload_hash hashes of a payload: all of it.
func payloadSpan(p []byte) ([]byte, bool) { return p, true }

var (
	// payloadHashes is payload_hash's burst form, kvKeys kv_key's.
	payloadHashes = fnv32.burst(payloadSpan)
	kvKeys        = fnv64.burst(kvKeySpan)
)

// fnv is an FNV-1a hash: its offset basis, prime and width as a mask. The
// 32-bit hash is the low half of the same chain run over 64 bits (each step's
// low 32 bits depend only on its operands' low 32 bits), so one 64-bit lane
// loop computes both.
type fnv struct{ offset, prime, mask uint64 }

var (
	fnv32 = fnv{offset: 2166136261, prime: 16777619, mask: 1<<32 - 1}
	fnv64 = fnv{offset: 14695981039346656037, prime: 1099511628211, mask: 1<<64 - 1}
)

// burst is the burst form, over at most BurstMax frames, of a row hashing
// span of each frame's payload: out[i] is the hash of span(payload of
// frames[i] decoded), 0 where pkt.Decode rejects the frame or span finds
// nothing to hash.
func (f fnv) burst(span func(payload []byte) ([]byte, bool)) func(frames [][]byte, out []uint64) {
	return func(frames [][]byte, out []uint64) {
		var spans [BurstMax][]byte
		var at [BurstMax]int
		var h [BurstMax]uint64
		n := 0
		for i, fr := range frames {
			out[i] = 0
			var in pkt.Info
			if pkt.Decode(fr, &in) != nil {
				continue
			}
			if s, ok := span(in.Payload()); ok {
				spans[n], at[n], h[n] = s, i, f.offset
				n++
			}
		}
		// The kernel's lanes are 32 bits wide, so kv_key's 64-bit chains
		// stay on the scheduler.
		if f == fnv32 && haveAVX2 {
			wide(spans[:n], h[:n], wideLanes)
		}
		f.lanes(spans[:n], h[:n], at[:n], out)
	}
}

// The AVX2 pre-pass runs when a window holds wideLanes spans of wideMin bytes
// or more. Its 32 lanes are latency-bound, so a call costs the same whether
// one or all of them are live: about three rounds of the four-lane scheduler
// (BenchmarkFNVLanes on a 2-vCPU Xeon: 12 spans of 1 KiB hash about as fast
// either way, 16 a quarter faster and 32 2.4 times as fast on the kernel),
// so it pays from the thirteenth long span.
const (
	wideMin   = 256
	wideLanes = 13
)

// wideWindow picks the spans of in the AVX2 pre-pass covers and how far: the
// spans of wideMin bytes or more, for the shortest one's length rounded down
// to 4. live is 0 when fewer than minLive qualify.
func wideWindow(in [][]byte, minLive int) (lane [BurstMax]int, live, n int) {
	n = math.MaxInt
	for i, s := range in {
		if len(s) >= wideMin {
			lane[live] = i
			live++
			n = min(n, len(s))
		}
	}
	if live < minLive {
		return lane, 0, 0
	}
	return lane, live, n &^ 3
}

// wide continues the FNV-1a-32 chains h over the first bytes of the long
// spans of in on the AVX2 kernel, when there are at least minLive of them,
// and advances each span it covers past those bytes. Spare lanes repeat live
// ones and their values are dropped.
func wide(in [][]byte, h []uint64, minLive int) {
	lane, live, n := wideWindow(in, minLive)
	if live == 0 {
		return
	}
	// The spans are heap bytes (the burst form is only called through a
	// function value, so its frames escape), so no stack move can shift them
	// between taking their addresses here and the kernel's reads.
	var addr [BurstMax]uintptr
	for k := range addr {
		addr[k] = uintptr(unsafe.Pointer(unsafe.SliceData(in[lane[k%live]])))
	}
	var off [BurstMax]int32
	low, ok := laneOffsets(&addr, n, &off)
	if !ok {
		return
	}
	var hs [BurstMax]uint32
	for k := range hs {
		hs[k] = uint32(h[lane[k%live]])
	}
	fnvGather(unsafe.SliceData(in[lane[low%live]]), &off, &hs, n)
	for k := range live {
		h[lane[k]] = uint64(hs[k])
		in[lane[k]] = in[lane[k]][n:]
	}
}

// laneOffsets sets off[k] to addr[k]'s distance from the lowest address,
// whose lane it returns. The kernel's gathers index by int32, so ok is false
// when a lane's n bytes end 2 GiB or more past that address.
func laneOffsets(addr *[BurstMax]uintptr, n int, off *[BurstMax]int32) (low int, ok bool) {
	hi := addr[0]
	for k, a := range addr {
		if a < addr[low] {
			low = k
		}
		hi = max(hi, a)
	}
	if hi-addr[low] > uintptr(math.MaxInt32-n) {
		return 0, false
	}
	for k, a := range addr {
		off[k] = int32(a - addr[low])
	}
	return low, true
}

// lanes sets out[at[k]] to the hash of in[k] continued from the state
// start[k] for every k. FNV-1a is one serial multiply chain per input, but the inputs
// are independent chains: four run side by side, one per lane. The moment a
// lane's input ends the lane takes the next one; once none is left, it re-runs
// a live lane's bytes and its value is dropped, so every fnv4 call keeps four
// chains in flight.
func (f fnv) lanes(in [][]byte, start []uint64, at []int, out []uint64) {
	var (
		p   [4][]byte
		h   [4]uint64
		own = [4]int{-1, -1, -1, -1} // the input a lane hashes; -1: none
	)
	next := 0
	for {
		live := -1
		for l := range p {
			if own[l] < 0 {
				for next < len(in) && len(in[next]) == 0 {
					out[at[next]] = start[next] & f.mask
					next++
				}
				if next < len(in) {
					own[l], p[l], h[l] = next, in[next], start[next]
					next++
				}
			}
			if own[l] >= 0 {
				live = l
			}
		}
		if live < 0 {
			return
		}
		n := len(p[live])
		for l := range p {
			if own[l] < 0 {
				p[l] = p[live]
			}
			n = min(n, len(p[l]))
		}
		h[0], h[1], h[2], h[3] = fnv4(p[0][:n], p[1][:n], p[2][:n], p[3][:n], h[0], h[1], h[2], h[3], f.prime)
		for l := range p {
			p[l] = p[l][n:]
			if own[l] >= 0 && len(p[l]) == 0 {
				out[at[own[l]]], own[l] = h[l]&f.mask, -1
			}
		}
	}
}

// fnv4 continues four FNV-1a chains over four inputs as long as a. It is
// kept out of line and carries nothing else, so its loop holds the pointers,
// states and prime in registers (inlined into lanes, it spills).
//
//go:noinline
func fnv4(a, b, c, d []byte, h0, h1, h2, h3, prime uint64) (uint64, uint64, uint64, uint64) {
	b, c, d = b[:len(a)], c[:len(a)], d[:len(a)]
	for i, x := range a {
		h0 = (h0 ^ uint64(x)) * prime
		h1 = (h1 ^ uint64(b[i])) * prime
		h2 = (h2 ^ uint64(c[i])) * prime
		h3 = (h3 ^ uint64(d[i])) * prime
	}
	return h0, h1, h2, h3
}

// TunnelID extracts the VXLAN VNI when the packet is a VXLAN encapsulation
// (UDP dst 4789), else 0.
func TunnelID(in *pkt.Info) uint32 {
	if in.L4 != pkt.L4UDP || in.DstPort != 4789 {
		return 0
	}
	p := in.Payload()
	if len(p) < 8 {
		return 0
	}
	return uint32(p[4])<<16 | uint32(p[5])<<8 | uint32(p[6])
}

// innerChecksumStatus validates the checksum of a VXLAN-encapsulated inner
// frame: 0 = no tunnel, 1 = inner valid, 2 = inner invalid/undecodable.
func innerChecksumStatus(in *pkt.Info) uint8 {
	if TunnelID(in) == 0 {
		return 0
	}
	p := in.Payload()
	if len(p) < 8+pkt.EthHeaderLen {
		return 2
	}
	var inner pkt.Info
	if err := pkt.Decode(p[8:], &inner); err != nil {
		return 2
	}
	if inner.L3 == pkt.L3IPv4 && inner.L3Off >= 0 {
		hdr := inner.Data[inner.L3Off:]
		ihl := int(hdr[0]&0x0F) * 4
		if ihl < pkt.IPv4MinLen || inner.L3Off+ihl > len(inner.Data) || !pkt.VerifyIPv4Header(hdr[:ihl]) {
			return 2
		}
	}
	return 1
}

// Calibrate measures the per-packet cost of each emulable semantic on the
// running machine over the supplied sample packets and returns a measured
// cost model (in nanoseconds). This is the dynamic alternative to the static
// table (EXPERIMENTS.md E12). A row is timed the way a dense lane delivers
// it: through its burst form over windows of BurstMax samples where it has
// one, else through its scalar shim.
func Calibrate(samples [][]byte, rounds int) map[semantics.Name]float64 {
	if rounds <= 0 {
		rounds = 64
	}
	out := make(map[semantics.Name]float64)
	var sink uint64
	var vals [BurstMax]uint64
	for name, f := range Funcs() {
		burst := byName[name].burst
		start := time.Now()
		for range rounds {
			for w := 0; w < len(samples); w += BurstMax {
				win := samples[w:min(w+BurstMax, len(samples))]
				if burst != nil {
					burst(win, vals[:len(win)])
					continue
				}
				for _, s := range win {
					sink += f(s)
				}
			}
		}
		if n := rounds * len(samples); n > 0 {
			out[name] = float64(time.Since(start).Nanoseconds()) / float64(n)
		}
	}
	_ = sink + vals[0]
	return out
}

// CalibratedCosts wraps Calibrate results as a cost model, falling back to
// the registry for semantics without software implementation (∞ cost ones).
func CalibratedCosts(reg *semantics.Registry, samples [][]byte, rounds int) semantics.CostModel {
	measured := Calibrate(samples, rounds)
	base := semantics.RegistryCosts(reg)
	return func(n semantics.Name) float64 {
		if v, ok := measured[n]; ok {
			return v
		}
		return base(n)
	}
}
