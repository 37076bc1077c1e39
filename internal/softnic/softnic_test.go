package softnic

import (
	"math"
	"testing"

	"opendesc/internal/pkt"
	"opendesc/internal/semantics"
)

// TestToeplitzMicrosoftVectors pins the RSS implementation to the official
// verification suite of the Microsoft RSS specification (IPv4 with TCP
// ports).
func TestToeplitzMicrosoftVectors(t *testing.T) {
	cases := []struct {
		src, dst         [4]byte
		srcPort, dstPort uint16
		want             uint32
	}{
		{[4]byte{66, 9, 149, 187}, [4]byte{161, 142, 100, 80}, 2794, 1766, 0x51ccc178},
		{[4]byte{199, 92, 111, 2}, [4]byte{65, 69, 140, 83}, 14230, 4739, 0xc626b0ea},
		{[4]byte{24, 19, 198, 95}, [4]byte{12, 22, 207, 184}, 12898, 38024, 0x5c2b394a},
		{[4]byte{38, 27, 205, 30}, [4]byte{209, 142, 163, 6}, 48228, 2217, 0xafc7327f},
		{[4]byte{153, 39, 163, 191}, [4]byte{202, 188, 127, 2}, 44251, 1303, 0x10e828a2},
	}
	for _, c := range cases {
		var input [12]byte
		copy(input[0:4], c.src[:])
		copy(input[4:8], c.dst[:])
		input[8] = byte(c.srcPort >> 8)
		input[9] = byte(c.srcPort)
		input[10] = byte(c.dstPort >> 8)
		input[11] = byte(c.dstPort)
		if got := Toeplitz(DefaultToeplitzKey[:], input[:]); got != c.want {
			t.Errorf("Toeplitz(%v:%d → %v:%d) = %#x, want %#x",
				c.src, c.srcPort, c.dst, c.dstPort, got, c.want)
		}
	}
}

func decode(t *testing.T, p []byte) *pkt.Info {
	t.Helper()
	var in pkt.Info
	if err := pkt.Decode(p, &in); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &in
}

func TestRSSMatchesVectorEndToEnd(t *testing.T) {
	p := pkt.NewBuilder().
		WithIPv4([4]byte{66, 9, 149, 187}, [4]byte{161, 142, 100, 80}).
		WithTCP(2794, 1766, 0x18).
		Build()
	if got := RSS(decode(t, p)); got != 0x51ccc178 {
		t.Errorf("RSS = %#x, want 0x51ccc178", got)
	}
}

func TestRSSNonIPIsZero(t *testing.T) {
	p := pkt.NewBuilder().Build()
	p[12], p[13] = 0x08, 0x06 // ARP
	if got := RSS(decode(t, p)); got != 0 {
		t.Errorf("RSS of non-IP = %#x", got)
	}
}

func TestFlowIDSymmetric(t *testing.T) {
	fwd := pkt.NewBuilder().
		WithIPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}).
		WithTCP(1111, 2222, 0).Build()
	rev := pkt.NewBuilder().
		WithIPv4([4]byte{10, 0, 0, 2}, [4]byte{10, 0, 0, 1}).
		WithTCP(2222, 1111, 0).Build()
	f1, f2 := FlowID(decode(t, fwd)), FlowID(decode(t, rev))
	if f1 != f2 {
		t.Errorf("flow id not symmetric: %#x vs %#x", f1, f2)
	}
	other := pkt.NewBuilder().
		WithIPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 3}).
		WithTCP(1111, 2222, 0).Build()
	if FlowID(decode(t, other)) == f1 {
		t.Error("different flows collide (unlucky but suspicious)")
	}
}

func TestIPChecksumMatchesWire(t *testing.T) {
	p := pkt.NewBuilder().Build()
	in := decode(t, p)
	got := IPChecksum(in)
	// The checksum over the header with its checksum field zeroed must equal
	// the value on the wire.
	wire := uint16(p[in.L3Off+10])<<8 | uint16(p[in.L3Off+11])
	if got != wire {
		t.Errorf("recomputed %#x != wire %#x", got, wire)
	}
}

func TestKVKeyExtraction(t *testing.T) {
	get := pkt.NewBuilder().WithUDP(1, 11211).WithPayload([]byte("get user:42\r\n")).Build()
	set := pkt.NewBuilder().WithUDP(1, 11211).WithPayload([]byte("set user:42 0 0 5\r\nhello")).Build()
	k1, k2 := KVKey(decode(t, get)), KVKey(decode(t, set))
	if k1 == 0 {
		t.Fatal("get key digest is zero")
	}
	if k1 != k2 {
		t.Errorf("get/set of same key differ: %#x vs %#x", k1, k2)
	}
	other := pkt.NewBuilder().WithUDP(1, 11211).WithPayload([]byte("get user:43\r\n")).Build()
	if KVKey(decode(t, other)) == k1 {
		t.Error("different keys collide")
	}
	for _, bad := range []string{"", "get", "get \r\n", "noop\r\n"} {
		p := pkt.NewBuilder().WithUDP(1, 11211).WithPayload([]byte(bad)).Build()
		if KVKey(decode(t, p)) != 0 {
			t.Errorf("malformed request %q should digest to 0", bad)
		}
	}
}

func TestTunnelID(t *testing.T) {
	vx := make([]byte, 16)
	vx[0] = 0x08
	vx[4], vx[5], vx[6] = 0x01, 0x02, 0x03
	p := pkt.NewBuilder().WithUDP(5000, 4789).WithPayload(vx).Build()
	if got := TunnelID(decode(t, p)); got != 0x010203 {
		t.Errorf("vni = %#x", got)
	}
	notTunnel := pkt.NewBuilder().WithUDP(5000, 53).WithPayload(vx).Build()
	if TunnelID(decode(t, notTunnel)) != 0 {
		t.Error("non-4789 UDP reported a VNI")
	}
}

func TestFuncsCoverEmulableSemantics(t *testing.T) {
	funcs := Funcs()
	reg := semantics.Default
	for _, n := range reg.Names() {
		d := reg.Lookup(n)
		emulable := !math.IsInf(d.SoftCost, 1)
		_, have := funcs[n]
		if emulable && !have {
			t.Errorf("semantic %s has finite cost %v but no software implementation", n, d.SoftCost)
		}
		if !emulable && have {
			t.Errorf("semantic %s is marked inemulable but has an implementation", n)
		}
	}
}

func TestFuncsRobustToGarbage(t *testing.T) {
	garbage := [][]byte{nil, {}, {1, 2, 3}, make([]byte, 14), make([]byte, 60)}
	for name, f := range Funcs() {
		for _, g := range garbage {
			// Must not panic; value is unspecified.
			_ = f(g)
			_ = name
		}
	}
}

func TestErrorFlagsFunc(t *testing.T) {
	f := Funcs()[semantics.ErrorFlags]
	good := pkt.NewBuilder().WithTCP(1, 2, 0).Build()
	if v := f(good); v != 0 {
		t.Errorf("good packet flags = %#x", v)
	}
	badL4 := pkt.NewBuilder().WithTCP(1, 2, 0).WithBadL4Checksum().Build()
	if v := f(badL4); v&2 == 0 {
		t.Errorf("bad L4 not flagged: %#x", v)
	}
	badIP := pkt.NewBuilder().WithBadIPChecksum().Build()
	if v := f(badIP); v&1 == 0 {
		t.Errorf("bad IP not flagged: %#x", v)
	}
	// Ethernet pads a 54-byte ACK to 60: the padding is not summed.
	if v := f(append(good, 0xA5, 0xA5, 0xA5, 0xA5, 0xA5, 0xA5)); v != 0 {
		t.Errorf("padded good packet flags = %#x", v)
	}
}

func TestCalibrateProducesFiniteCosts(t *testing.T) {
	samples := [][]byte{
		pkt.NewBuilder().WithTCP(1, 2, 0).WithPayload(make([]byte, 64)).Build(),
		pkt.NewBuilder().WithUDP(3, 4).WithPayload(make([]byte, 512)).Build(),
	}
	costs := Calibrate(samples, 4)
	if len(costs) == 0 {
		t.Fatal("no costs measured")
	}
	for n, c := range costs {
		if c <= 0 || math.IsInf(c, 1) || math.IsNaN(c) {
			t.Errorf("cost[%s] = %v", n, c)
		}
	}
	cm := CalibratedCosts(semantics.Default, samples, 2)
	if math.IsInf(cm(semantics.RSS), 1) {
		t.Error("calibrated rss cost should be finite")
	}
	if !math.IsInf(cm(semantics.Timestamp), 1) {
		t.Error("timestamp must stay inemulable after calibration")
	}
}

// TestCalibratedPayloadScaling: the semantics that read the payload cost
// more on a larger one. The large sample is a 60 KB datagram, so its payload
// term (microseconds at vector speed) outweighs the decode and the timer's
// noise, also under the race detector, which instruments the Go loops that
// time the small sample but not the assembly bodies of the large one. The
// small sample's 16 rounds take well under a scheduler slice, so one
// preemption would outweigh them: its cost is the least of several runs.
func TestCalibratedPayloadScaling(t *testing.T) {
	small := [][]byte{pkt.NewBuilder().WithUDP(1, 2).WithPayload(make([]byte, 16)).Build()}
	large := [][]byte{pkt.NewBuilder().WithUDP(1, 2).WithPayload(make([]byte, 60_000)).Build()}
	cs := Calibrate(small, 16)
	for range 7 {
		for sem, c := range Calibrate(small, 16) {
			cs[sem] = min(cs[sem], c)
		}
	}
	cl := Calibrate(large, 16)
	for _, sem := range []semantics.Name{semantics.L4Checksum, semantics.PayloadHash} {
		if cl[sem] <= cs[sem] {
			t.Errorf("%s cost should scale with payload: %v ns at 16 B, %v ns at 60 KB", sem, cs[sem], cl[sem])
		}
	}
}

// TestShimsDoNotAllocate: each shim decodes into a pkt.Info on its own stack
// — the kernel is inlined into the shim where the row is built, and a row
// whose kernel stops inlining would put every shim call on the heap — and
// Expect reads the same shims.
func TestShimsDoNotAllocate(t *testing.T) {
	p := pkt.NewBuilder().WithVLAN(5).WithTCP(1, 2, 0).WithPayload([]byte("get k\r\n")).Build()
	for name, f := range Table(3) {
		if a := testing.AllocsPerRun(20, func() { f(p) }); a != 0 {
			t.Errorf("%s shim: %v allocations per call", name, a)
		}
		if a := testing.AllocsPerRun(20, func() { Expect(name, p, 3, 16) }); a != 0 {
			t.Errorf("Expect(%s): %v allocations per call", name, a)
		}
	}
}
