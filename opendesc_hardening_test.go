package opendesc

import (
	"fmt"
	"sync"
	"testing"

	"opendesc/internal/faults"
	"opendesc/internal/pkt"
	"opendesc/internal/softnic"
	"opendesc/internal/vclock"
)

// hardPackets builds n mutually distinct packets (varying ports, IP ids and
// payloads) so completion records are distinguishable during resync.
func hardPackets(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = pkt.NewBuilder().
			WithVLAN(uint16(0x100|(i&0xFF))).
			WithIPv4([4]byte{192, 168, 1, 10}, [4]byte{10, 0, 0, 1}).
			WithTCP(443, uint16(40000+i%20000), 0x18).
			WithIPID(uint16(i)).
			WithPayload([]byte(fmt.Sprintf("hardened-%d", i))).
			Build()
	}
	return out
}

func openHardened(t *testing.T, opts HardenOptions) *Driver {
	t.Helper()
	intent, err := NewIntent("hard_intent", "rss", "vlan", "pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	drv, err := OpenWith("e1000e", intent, OpenOptions{Harden: &opts})
	if err != nil {
		t.Fatal(err)
	}
	return drv
}

// checkGolden asserts the metadata of one delivered packet matches the
// SoftNIC reference — a corrupted record must never leak through.
func checkGolden(t *testing.T, p []byte, meta Meta) {
	t.Helper()
	var in pkt.Info
	if err := pkt.Decode(p, &in); err != nil {
		t.Fatal(err)
	}
	if v, ok := meta.Get("rss"); !ok || v != uint64(softnic.RSS(&in)) {
		t.Errorf("rss = %#x/%v, want %#x", v, ok, softnic.RSS(&in))
	}
	if v, ok := meta.Get("pkt_len"); !ok || v != uint64(len(p)) {
		t.Errorf("pkt_len = %d/%v, want %d", v, ok, len(p))
	}
	if v, ok := meta.Get("vlan"); !ok || v != uint64(softnic.VLANTCI(&in)) {
		t.Errorf("vlan = %#x/%v, want %#x", v, ok, softnic.VLANTCI(&in))
	}
}

// driveExactlyOnce pushes every packet through Rx/Poll in batches and fails
// unless each is delivered exactly once, in order, with golden metadata.
func driveExactlyOnce(t *testing.T, drv *Driver, packets [][]byte, batch int) {
	t.Helper()
	next := 0
	handler := func(p []byte, meta Meta) {
		if next >= len(packets) {
			t.Fatalf("delivery %d beyond the %d accepted packets", next, len(packets))
		}
		if &p[0] != &packets[next][0] {
			t.Fatalf("delivery %d out of order", next)
		}
		checkGolden(t, p, meta)
		next++
	}
	for i := 0; i < len(packets); {
		for j := 0; j < batch && i < len(packets); j++ {
			if !drv.Rx(packets[i]) {
				t.Fatalf("rx %d refused (hardened Rx only refuses on backpressure)", i)
			}
			i++
		}
		drv.Poll(handler)
	}
	for drv.Poll(handler) > 0 {
	}
	if next != len(packets) {
		t.Fatalf("delivered %d of %d packets", next, len(packets))
	}
}

// TestHardenedCleanPath: with no injector the hardened driver behaves like
// the plain one — hardware metadata, no recovery activity.
func TestHardenedCleanPath(t *testing.T) {
	drv := openHardened(t, HardenOptions{Deep: true})
	hw := 0
	packets := hardPackets(64)
	next := 0
	for _, p := range packets {
		if !drv.Rx(p) {
			t.Fatal("rx refused")
		}
		drv.Poll(func(pp []byte, meta Meta) {
			checkGolden(t, pp, meta)
			if meta.Hardware("rss") {
				hw++
			}
			next++
		})
	}
	if next != len(packets) || hw != len(packets) {
		t.Fatalf("delivered %d (hardware %d), want all %d from hardware", next, hw, len(packets))
	}
	st := drv.Hardening()
	if st.SoftDelivered != 0 || st.Quarantined != 0 || st.DeviceFaults != 0 || st.Degraded {
		t.Errorf("clean run tripped hardening: %+v", st)
	}
}

// TestHardenedCorruptionQuarantined: with every completion bit-flipped, the
// validator must quarantine 100% of them and the application still sees
// golden values for every packet, exactly once.
func TestHardenedCorruptionQuarantined(t *testing.T) {
	drv := openHardened(t, HardenOptions{Deep: true})
	inj := faults.New(faults.Plan{Seed: 11, CorruptP: 1, BurstBits: 4})
	drv.InjectFaults(inj)
	packets := hardPackets(200)
	driveExactlyOnce(t, drv, packets, 4)

	st := drv.Hardening()
	injected := inj.Stats().Injected[faults.Corrupt]
	if injected == 0 {
		t.Fatal("injector was not exercised")
	}
	caught := st.Quarantined + st.StaleDrops + st.ResyncDrops + st.SpuriousCompletions
	if caught < injected {
		t.Errorf("caught %d records (quarantine %d, stale %d, resync %d, spurious %d) for %d injected corruptions",
			caught, st.Quarantined, st.StaleDrops, st.ResyncDrops, st.SpuriousCompletions, injected)
	}
	if st.SoftDelivered == 0 {
		t.Error("quarantined packets must be soft-delivered")
	}
}

// TestHardenedLostCompletions: the device accepts packets whose completions
// never arrive; the driver resynchronizes by software delivery.
func TestHardenedLostCompletions(t *testing.T) {
	drv := openHardened(t, HardenOptions{Deep: true})
	drv.InjectFaults(faults.New(faults.Plan{Seed: 3, DropP: 1}))
	packets := hardPackets(50)
	driveExactlyOnce(t, drv, packets, 4)
	st := drv.Hardening()
	if st.ResyncDrops != 50 || st.SoftDelivered != 50 {
		t.Errorf("resync=%d soft=%d, want 50/50", st.ResyncDrops, st.SoftDelivered)
	}
}

// TestHardenedStaleAndDuplicate: replayed and duplicated records are
// discarded without breaking exactly-once delivery.
func TestHardenedStaleAndDuplicate(t *testing.T) {
	drv := openHardened(t, HardenOptions{Deep: true})
	inj := faults.New(faults.Plan{Seed: 9, DuplicateP: 0.5, ReplayP: 0.2})
	drv.InjectFaults(inj)
	packets := hardPackets(300)
	driveExactlyOnce(t, drv, packets, 8)
	st := drv.Hardening()
	if st.StaleDrops+st.SpuriousCompletions == 0 {
		t.Errorf("no stale/spurious records discarded under duplicate+replay injection: %+v", st)
	}
}

// TestHardenedHangDegradeRecover drives the full watchdog state machine:
// hang → fault streak → SoftNIC degraded mode → reset with backoff →
// re-ApplyConfig → hardware restore.
func TestHardenedHangDegradeRecover(t *testing.T) {
	drv := openHardened(t, HardenOptions{Deep: true, DegradeThreshold: 4})
	inj := faults.New(faults.Plan{Seed: 5, HangCount: 1, HangMTBF: 100, HangBurst: 50})
	drv.InjectFaults(inj)

	packets := hardPackets(1000)
	next := 0
	sawDegraded := false
	lastHW := false
	for _, p := range packets {
		if !drv.Rx(p) {
			t.Fatal("hardened rx refused")
		}
		drv.Poll(func(pp []byte, meta Meta) {
			if &pp[0] != &packets[next][0] {
				t.Fatalf("delivery %d out of order", next)
			}
			checkGolden(t, pp, meta)
			lastHW = meta.Hardware("rss")
			next++
		})
		if drv.Hardening().Degraded {
			sawDegraded = true
		}
	}
	for drv.Poll(func(pp []byte, meta Meta) { lastHW = meta.Hardware("rss"); next++ }) > 0 {
	}
	if next != len(packets) {
		t.Fatalf("delivered %d of %d", next, len(packets))
	}
	st := drv.Hardening()
	if !sawDegraded || st.DegradedEnters != 1 {
		t.Errorf("degraded mode not entered exactly once: %+v", st)
	}
	if st.Degraded {
		t.Error("driver still degraded at end of run")
	}
	if st.HardwareRestores != 1 || st.Resets != 1 {
		t.Errorf("restores=%d resets=%d, want 1/1", st.HardwareRestores, st.Resets)
	}
	if st.ResetAttempts <= st.Resets {
		t.Errorf("expected failed reset attempts during the burst (attempts=%d)", st.ResetAttempts)
	}
	if !lastHW {
		t.Error("driver must serve from hardware again after recovery")
	}
	if dst := drv.DeviceStats(); dst.Resets != 1 {
		t.Errorf("device resets = %d, want 1", dst.Resets)
	}
}

// TestHardenedStatsRace scrapes hardening, evolution and device stats
// concurrently with a faulty, renegotiating datapath (run with -race).
func TestHardenedStatsRace(t *testing.T) {
	drv, err := OpenEvolving("e1000e", EvolveOptions{Interval: 64, MinWindow: 32}, "rss", "ip_checksum", "vlan", "pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	if err := drv.Harden(HardenOptions{Deep: true, DegradeThreshold: 4}); err != nil {
		t.Fatalf("Harden on an evolving driver: %v", err)
	}
	drv.InjectFaults(faults.New(faults.Plan{
		Seed: 21, CorruptP: 0.01, DropP: 0.01, DuplicateP: 0.01,
		HangCount: 2, HangMTBF: 500, HangBurst: 30,
	}))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = drv.Hardening()
				_ = drv.Evolution()
				_ = drv.DeviceStats()
				_ = drv.q.Dev().Faults().Stats()
			}
		}
	}()
	packets := hardPackets(2000)
	next := 0
	h := func(_ []byte, meta Meta) {
		// The hot read flips every 256 packets, so the layout keeps moving.
		meta.Get([]string{"rss", "ip_checksum"}[next/256%2])
		next++
	}
	for _, p := range packets {
		drv.Rx(p)
		drv.Poll(h)
	}
	for drv.Poll(h) > 0 {
	}
	close(stop)
	wg.Wait()
	if next != len(packets) {
		t.Fatalf("delivered %d of %d", next, len(packets))
	}
	if drv.Evolution().Switchovers == 0 {
		t.Error("the flipping read mix never switched generations")
	}
}

// TestHardenedDisableResyncLeavesPacketStuck pins the behavior of the
// deliberately re-opened pre-resync liveness bug (HardenOptions.DisableResync,
// the chaos canary): a lost completion leaves its packet pending forever —
// Poll never delivers it and never counts a resync.
func TestHardenedDisableResyncLeavesPacketStuck(t *testing.T) {
	drv := openHardened(t, HardenOptions{Deep: true, DisableResync: true})
	drv.InjectFaults(faults.New(faults.Plan{Seed: 3, DropP: 1}))
	p := hardPackets(1)[0]
	if !drv.Rx(p) {
		t.Fatal("rx refused")
	}
	for i := 0; i < 100; i++ {
		if n := drv.Poll(func([]byte, Meta) {}); n != 0 {
			t.Fatalf("poll %d delivered %d packets with resync disabled and the completion dropped", i, n)
		}
	}
	if got := drv.PendingPackets(); got != 1 {
		t.Fatalf("pending = %d, want the packet stuck forever", got)
	}
	st := drv.Hardening()
	if st.ResyncDrops != 0 || st.SoftDelivered != 0 {
		t.Errorf("resync machinery ran despite DisableResync: %+v", st)
	}
	// Control: the same scenario with resync enabled delivers in software.
	ctl := openHardened(t, HardenOptions{Deep: true})
	ctl.InjectFaults(faults.New(faults.Plan{Seed: 3, DropP: 1}))
	if !ctl.Rx(p) {
		t.Fatal("control rx refused")
	}
	delivered := 0
	ctl.Poll(func([]byte, Meta) { delivered++ })
	if delivered != 1 || ctl.PendingPackets() != 0 {
		t.Fatalf("control delivered %d (pending %d), want resync to recover the packet", delivered, ctl.PendingPackets())
	}
}

// TestHardenedDegradedResidencyVirtualClock pins the degraded-mode residency
// bookkeeping on an injected virtual clock: DegradedResidencyNs must cover
// exactly the degraded window — including the still-open residency while the
// driver is degraded — and DegradedOps must count only in-degraded
// operations. No wall clock, no sleeps.
func TestHardenedDegradedResidencyVirtualClock(t *testing.T) {
	clk := vclock.NewVirtual(1_000)
	drv := openHardened(t, HardenOptions{Deep: true, DegradeThreshold: 2, Clock: clk})
	inj := faults.New(faults.Plan{})
	drv.InjectFaults(inj)
	packets := hardPackets(64)

	inj.ScriptHang(8)
	// Drive refusals until the fault streak trips degraded mode.
	i := 0
	for !drv.Hardening().Degraded {
		if i >= len(packets) {
			t.Fatal("driver never degraded under a scripted hang")
		}
		drv.Rx(packets[i])
		drv.Poll(func([]byte, Meta) {})
		i++
	}
	if drv.Hardening().DegradedResidencyNs != 0 {
		t.Errorf("residency %d at the instant of entry, want 0", drv.Hardening().DegradedResidencyNs)
	}
	clk.Advance(5_000)
	mid := drv.Hardening()
	if mid.DegradedResidencyNs != 5_000 {
		t.Errorf("open residency = %d, want exactly the 5000ns the virtual clock advanced", mid.DegradedResidencyNs)
	}
	if mid.DegradedOps == 0 {
		t.Error("no degraded ops counted while degraded")
	}

	// Let the watchdog recover (the wedge clears after its burst; each op
	// ticks recovery), then advance the clock again: residency must freeze.
	for j := 0; drv.Hardening().Degraded; j++ {
		if j > 10_000 {
			t.Fatal("driver never recovered")
		}
		clk.Advance(10)
		drv.Poll(func([]byte, Meta) {})
	}
	closed := drv.Hardening().DegradedResidencyNs
	clk.Advance(50_000)
	if got := drv.Hardening().DegradedResidencyNs; got != closed {
		t.Errorf("residency moved %d -> %d after recovery; must freeze once healthy", closed, got)
	}
	opsAfter := drv.Hardening().DegradedOps
	drv.Poll(func([]byte, Meta) {})
	if got := drv.Hardening().DegradedOps; got != opsAfter {
		t.Errorf("DegradedOps moved %d -> %d while healthy", opsAfter, got)
	}
}

// TestHardenedFaultClassesOnSizedRing: the ring's stride differs per NIC (8
// to 64 bytes), and the hardened queue's verdicts do not depend on it. On
// every bundled NIC, under torn, duplicated and bit-flipped completions, each
// packet is delivered exactly once with the golden length; every injected
// fault is caught; and no record reaches the validator shorter than the
// layout it checks — the ring pads a torn record to the stride, which is
// never below the compiled completion size.
func TestHardenedFaultClassesOnSizedRing(t *testing.T) {
	intent, err := NewIntent("sized_ring", "pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	for _, nicName := range NICs() {
		t.Run(nicName, func(t *testing.T) {
			drv, err := OpenWith(nicName, intent, OpenOptions{Harden: &HardenOptions{Deep: true}})
			if err != nil {
				t.Fatal(err)
			}
			if stride, rec := drv.q.Dev().CmptRing.EntrySize(), drv.Result.CompletionBytes(); stride < rec {
				t.Fatalf("ring stride %d B is shorter than the validated record, %d B", stride, rec)
			}
			inj := faults.New(faults.Plan{Seed: 17, TruncateP: 0.1, DuplicateP: 0.1, CorruptP: 0.1, BurstBits: 4})
			drv.InjectFaults(inj)
			packets, next := hardPackets(512), 0
			deliver := func(p []byte, meta Meta) {
				if next >= len(packets) || &p[0] != &packets[next][0] {
					t.Fatalf("delivery %d duplicated or out of order", next)
				}
				if v, ok := meta.Get("pkt_len"); !ok || v != uint64(len(p)) {
					t.Fatalf("delivery %d: pkt_len = %d/%v, want %d", next, v, ok, len(p))
				}
				next++
			}
			for i, p := range packets {
				if !drv.Rx(p) {
					t.Fatalf("rx %d refused", i)
				}
				if i%4 == 3 {
					drv.Poll(deliver)
				}
			}
			for drv.Poll(deliver) > 0 {
			}
			if next != len(packets) {
				t.Fatalf("delivered %d of %d packets", next, len(packets))
			}
			st, injected := drv.Hardening(), inj.Stats().Injected
			if injected[faults.Truncate] == 0 || injected[faults.Duplicate] == 0 || injected[faults.Corrupt] == 0 {
				t.Fatalf("fault mix did not reach every class: %v", injected)
			}
			if st.Quarantined < injected[faults.Truncate]+injected[faults.Corrupt] {
				t.Errorf("quarantined %d records for %d torn and %d bit-flipped", st.Quarantined, injected[faults.Truncate], injected[faults.Corrupt])
			}
			if st.StaleDrops+st.SpuriousCompletions < injected[faults.Duplicate] {
				t.Errorf("discarded %d stale + %d spurious records for %d duplicates", st.StaleDrops, st.SpuriousCompletions, injected[faults.Duplicate])
			}
			if n := st.RejectsByClass["short"]; n != 0 {
				t.Errorf("%d records reached the validator short of its layout", n)
			}
		})
	}
}
