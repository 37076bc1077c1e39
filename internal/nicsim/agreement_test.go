package nicsim

import (
	"fmt"
	"sort"
	"testing"

	"opendesc/internal/bitfield"
	"opendesc/internal/codegen"
	"opendesc/internal/nic"
	"opendesc/internal/pkt"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/workload"
)

// agreementQueue is the queue the devices under the agreement check receive
// on: not the default 0, so a shim that ignores its device shows.
const agreementQueue = 3

// agreement is every NIC's device, once per completion path programmed and
// once unprogrammed (engines probed directly), against the shims a lane on
// that queue links.
type agreement struct {
	shims map[semantics.Name]codegen.SoftFunc
	// probes hold one device per NIC; programmed one per NIC path.
	probes, programmed []*Device
	// disagree counts, per semantic, the frames on which some device and its
	// shim differ; hit marks the semantics the frame being checked has counted.
	disagree map[semantics.Name]int
	hit      map[semantics.Name]bool
	first    map[semantics.Name]string
}

func newAgreement(t testing.TB) *agreement {
	a := &agreement{
		shims:    softnic.Table(agreementQueue),
		disagree: make(map[semantics.Name]int),
		hit:      make(map[semantics.Name]bool),
		first:    make(map[semantics.Name]string),
	}
	for _, m := range nic.All() {
		a.probes = append(a.probes, MustNew(m, Config{QueueID: agreementQueue, RingEntries: 2}))
		a.program(t, m)
	}
	// The hand-written descriptions whose registers alone pick a path.
	for name := range handWritten {
		m := handWrittenModel(t, name)
		if _, ok := decisionRegisters(MustNew(m, Config{RingEntries: 2})); ok {
			a.program(t, m)
		}
	}
	return a
}

// program adds one device of m per completion path, programmed to take it.
func (a *agreement) program(t testing.TB, m *nic.Model) {
	paths, err := m.Paths()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		dev := MustNew(m, Config{QueueID: agreementQueue, RingEntries: 2})
		if err := dev.ApplyConfig(p.Constraints); err != nil {
			t.Fatal(err)
		}
		a.programmed = append(a.programmed, dev)
	}
}

func (a *agreement) note(sem semantics.Name, where string, frame []byte, dev, shim uint64) {
	if a.hit[sem] {
		return
	}
	a.hit[sem] = true
	if a.disagree[sem]++; a.disagree[sem] == 1 {
		a.first[sem] = fmt.Sprintf("%s: device %#x, shim %#x on %d-byte frame %x", where, dev, shim, len(frame), frame)
	}
}

// check compares, for one frame, every row of softnic's table on every NIC's
// device (the timestamp excepted: no host predicts the device clock) with
// its shim, and every field every completion path emits.
func (a *agreement) check(frame []byte) {
	clear(a.hit)
	for _, dev := range a.probes {
		dev.packet, dev.parsed, dev.have = frame, false, fixedSlots
		for slot, row := range softnic.Rows() {
			sem := row.Semantic()
			if sem == semantics.Timestamp {
				continue
			}
			if got, want := dev.val(slot), a.shims[sem](frame); got != want {
				a.note(sem, dev.Model.Name+" engine", frame, got, want)
			}
		}
	}
	for _, dev := range a.programmed {
		if !dev.RxPacket(frame) {
			a.note("(verdict)", dev.Model.Name+" refused", frame, 0, 1)
			continue
		}
		p, err := dev.ActivePath()
		if err != nil {
			a.note("(path)", dev.Model.Name, frame, 0, 1)
			continue
		}
		dev.CmptRing.Consume(func(rec []byte) {
			for _, f := range p.Fields {
				shim := a.shims[f.Semantic]
				if shim == nil || f.Semantic == semantics.Timestamp || f.WidthBits > 64 {
					continue
				}
				want := shim(frame) & (^uint64(0) >> (64 - f.WidthBits))
				if got := bitfield.Read(rec, f.OffsetBits, f.WidthBits); got != want {
					a.note(f.Semantic, fmt.Sprintf("%s path %d field %s", dev.Model.Name, p.ID, f.Name), frame, got, want)
				}
			}
		})
	}
}

func (a *agreement) report(t testing.TB, frames int) {
	t.Helper()
	names := make([]string, 0, len(a.disagree))
	total := 0
	for sem, n := range a.disagree {
		names = append(names, string(sem))
		total += n
	}
	sort.Strings(names)
	for _, s := range names {
		t.Errorf("%s: %d disagreements, first %s", s, a.disagree[semantics.Name(s)], a.first[semantics.Name(s)])
	}
	t.Logf("%d frames on %d devices and %d programmed paths: %d disagreements (semantic × frame)", frames, len(a.probes), len(a.programmed), total)
}

// agreementFrames is what the parser must hold its ground on: two generated
// traces (TCP/UDP, VLAN, VXLAN, key-value requests, bad checksums), QinQ,
// IPv6, a bad IP header checksum and Ethernet padding built by hand, every
// truncation of sixteen of those frames, and sixteen with a corrupted IP
// version nibble.
func agreementFrames(t testing.TB) [][]byte {
	var out [][]byte
	for seed, spec := range []workload.Spec{
		{Packets: 96, Flows: 17, PayloadBytes: 48, TCPFraction: 0.5, VLANFraction: 0.4, BadCsumFraction: 0.2},
		{Packets: 64, Flows: 5, PayloadBytes: 32, TCPFraction: 0.3, VLANFraction: 0.3, KVFraction: 0.6, TunnelFraction: 0.4},
	} {
		spec.Seed = int64(seed) + 11
		tr, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr.Packets...)
	}
	v6 := [2][16]byte{{0x20, 0x01, 0x0d, 0xb8, 15: 1}, {0x20, 0x01, 0x0d, 0xb8, 15: 2}}
	hand := [][]byte{
		pkt.NewBuilder().WithVLAN(0x0a01).WithVLAN(0x0064).WithTCP(443, 51000, 0x18).WithPayload([]byte("qinq")).Build(),
		pkt.NewBuilder().WithVLAN(0x2005).WithVLAN(0x0007).WithUDP(53, 4000).Build(),
		pkt.NewBuilder().WithIPv6(v6[0], v6[1]).WithTCP(80, 40000, 0x10).WithPayload([]byte("v6 tcp")).Build(),
		pkt.NewBuilder().WithVLAN(0x0123).WithIPv6(v6[1], v6[0]).WithUDP(4789, 4789).WithPayload(make([]byte, 24)).Build(),
		pkt.NewBuilder().WithBadIPChecksum().WithUDP(7, 9).Build(),
		// Ethernet-padded to 60 bytes: the padding is no part of the
		// datagram, its sums or its payload (a key running to the payload's
		// end stops before it).
		padded(pkt.NewBuilder().WithUDP(1, 2).WithPayload([]byte("pad!")).Build()),
		padded(pkt.NewBuilder().WithTCP(1, 2, 0x10).Build()),
		padded(pkt.NewBuilder().WithUDP(1, 11211).WithPayload([]byte("get k")).Build()),
	}
	out = append(out, hand...)
	// Sixteen frames to cut: the hand-built ones and every tenth generated.
	cut := append([][]byte(nil), hand...)
	for i := 0; len(cut) < 16; i += 10 {
		cut = append(cut, out[i])
	}
	for _, f := range cut {
		for n := 0; n < len(f); n++ {
			out = append(out, f[:n])
		}
	}
	// A corrupted version nibble: IPv4 reads as 5, IPv6 as 7.
	for _, f := range cut {
		var in pkt.Info
		if pkt.Decode(f, &in) != nil || in.L3Off < 0 {
			continue
		}
		bad := append([]byte(nil), f...)
		bad[in.L3Off] ^= 0x10
		out = append(out, bad)
	}
	return out
}

// padded pads frame to Ethernet's 60-byte minimum with non-zero bytes.
func padded(frame []byte) []byte {
	for len(frame) < 60 {
		frame = append(frame, 0xA5)
	}
	return frame
}

// TestDeviceAgreesWithShims: a semantic reads the same whether the device's
// completion carries it or the shim a lane links computes it — on every
// frame, including those the parser rejects, and on a queue other than 0.
func TestDeviceAgreesWithShims(t *testing.T) {
	a := newAgreement(t)
	frames := agreementFrames(t)
	for _, f := range frames {
		a.check(f)
	}
	a.report(t, len(frames))
}

// FuzzDeviceAgreesWithShims is TestDeviceAgreesWithShims on arbitrary bytes.
func FuzzDeviceAgreesWithShims(f *testing.F) {
	for _, frame := range agreementFrames(f)[:200] {
		f.Add(frame)
	}
	a := newAgreement(f)
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) > bufSize {
			frame = frame[:bufSize]
		}
		clear(a.disagree)
		a.check(frame)
		a.report(t, 1)
	})
}
