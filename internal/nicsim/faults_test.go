package nicsim

import (
	"errors"
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/faults"
	"opendesc/internal/nic"
	"opendesc/internal/semantics"
)

// TestInjectedDropDesync checks the host-visible desync case: the device
// accepts the packet (RxPacket true, rx counters advance) but the completion
// never reaches the ring.
func TestInjectedDropDesync(t *testing.T) {
	res := compileOn(t, "e1000e", semantics.RSS, semantics.VLAN, semantics.PktLen)
	dev := MustNew(nic.MustLoad("e1000e"), Config{})
	dev.InjectFaults(faults.New(faults.Plan{Seed: 7, DropP: 1}))
	if err := dev.ApplyConfig(res.Config); err != nil {
		t.Fatal(err)
	}
	p := testPacket()
	for i := 0; i < 5; i++ {
		if !dev.RxPacket(p) {
			t.Fatalf("rx %d: device must report success on a dropped completion", i)
		}
	}
	if n := dev.CmptRing.Len(); n != 0 {
		t.Errorf("ring has %d completions, want 0", n)
	}
	st := dev.Stats()
	if st.LostCompletions != 5 || st.RxPackets != 5 || st.Drops != 0 {
		t.Errorf("lost=%d rx=%d drops=%d, want 5/5/0", st.LostCompletions, st.RxPackets, st.Drops)
	}
}

// TestInjectedDuplicate checks that a duplicated completion publishes two
// identical records for one packet.
func TestInjectedDuplicate(t *testing.T) {
	res := compileOn(t, "e1000e", semantics.RSS, semantics.VLAN, semantics.PktLen)
	dev := MustNew(nic.MustLoad("e1000e"), Config{})
	dev.InjectFaults(faults.New(faults.Plan{Seed: 7, DuplicateP: 1}))
	if err := dev.ApplyConfig(res.Config); err != nil {
		t.Fatal(err)
	}
	if !dev.RxPacket(testPacket()) {
		t.Fatal("rx failed")
	}
	if n := dev.CmptRing.Len(); n != 2 {
		t.Fatalf("ring has %d completions, want 2 (original + duplicate)", n)
	}
	first := append([]byte(nil), dev.CmptRing.Peek()...)
	dev.CmptRing.Pop()
	second := dev.CmptRing.Peek()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("duplicate differs from original at byte %d", i)
		}
	}
}

// TestInjectedConfigNAK checks that a NAKed register-write burst fails
// atomically: the error wraps ErrConfigNAK and no register was written.
func TestInjectedConfigNAK(t *testing.T) {
	res := compileOn(t, "e1000e", semantics.RSS, semantics.VLAN, semantics.PktLen)
	dev := MustNew(nic.MustLoad("e1000e"), Config{})
	dev.InjectFaults(faults.New(faults.Plan{Seed: 7, NAKP: 1}))
	err := dev.ApplyConfig(res.Config)
	if !errors.Is(err, ErrConfigNAK) {
		t.Fatalf("ApplyConfig error = %v, want ErrConfigNAK", err)
	}
	if st := dev.Stats(); st.ConfigNAKs != 1 {
		t.Errorf("ConfigNAKs = %d, want 1", st.ConfigNAKs)
	}
}

// TestHangRecoveryLifecycle drives the full hang → failed reset → burst
// elapses → successful reset → re-ApplyConfig → healthy sequence, checking
// every counter along the way.
func TestHangRecoveryLifecycle(t *testing.T) {
	res := compileOn(t, "e1000e", semantics.RSS, semantics.VLAN, semantics.PktLen)
	dev := MustNew(nic.MustLoad("e1000e"), Config{})
	dev.InjectFaults(faults.New(faults.Plan{Seed: 7, HangCount: 1, HangMTBF: 4, HangBurst: 3}))

	// Op 1: the config burst. Ops 2,3: healthy receives.
	if err := dev.ApplyConfig(res.Config); err != nil {
		t.Fatal(err)
	}
	p := testPacket()
	for i := 0; i < 2; i++ {
		if !dev.RxPacket(p) {
			t.Fatalf("healthy rx %d failed", i)
		}
	}

	// Op 4 hits the MTBF: the hang begins and the packet is refused.
	if dev.RxPacket(p) {
		t.Fatal("rx during hang must fail")
	}
	if !dev.Hung() {
		t.Fatal("device should report hung")
	}

	// A reset inside the burst is refused.
	if err := dev.Reset(); !errors.Is(err, ErrDeviceHang) {
		t.Fatalf("reset during burst = %v, want ErrDeviceHang", err)
	}

	// Three more refused operations let the burst elapse.
	for i := 0; i < 3; i++ {
		if dev.RxPacket(p) {
			t.Fatalf("rx %d during burst must fail", i)
		}
	}

	// Now the reset takes: ring emptied, context cleared.
	if err := dev.Reset(); err != nil {
		t.Fatalf("reset after burst: %v", err)
	}
	if dev.Hung() {
		t.Fatal("device still hung after successful reset")
	}
	if dev.CmptRing.Len() != 0 {
		t.Error("reset must empty the completion ring")
	}
	vals, err := core.ConfigAssignment(res.Config)
	if err != nil {
		t.Fatal(err)
	}
	for reg, v := range vals {
		if v != 0 && dev.ReadReg(reg) != 0 {
			t.Errorf("register %s survived reset (= %d)", reg, dev.ReadReg(reg))
		}
	}

	// Re-programming restores service.
	if err := dev.ApplyConfig(res.Config); err != nil {
		t.Fatalf("re-ApplyConfig after reset: %v", err)
	}
	if !dev.RxPacket(p) {
		t.Fatal("rx after recovery failed")
	}
	if dev.CmptRing.Len() != 1 {
		t.Fatal("recovered device must DMA completions again")
	}

	st := dev.Stats()
	if st.HangDrops != 4 {
		t.Errorf("HangDrops = %d, want 4", st.HangDrops)
	}
	if st.ResetFails != 1 || st.Resets != 1 {
		t.Errorf("ResetFails=%d Resets=%d, want 1/1", st.ResetFails, st.Resets)
	}
	fst := dev.Faults().Stats()
	if fst.Injected[faults.Hang] != 1 || fst.ResetNAKs != 1 || fst.Resets != 1 {
		t.Errorf("injector stats = %+v, want 1 hang, 1 reset NAK, 1 reset", fst)
	}
}
