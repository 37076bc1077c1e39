package nicsim

import (
	"errors"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"opendesc/internal/nic"
	"opendesc/internal/obs"
	"opendesc/internal/semantics"
)

// boolMode reads a two-bit register as a truth value, then as a number.
// Deciding `if (ctx.mode)` took a truthiness comparison of a bool with a
// number that the enumerator and the device did not read alike: a mode of 2
// or 3 took a route no enumerated path took.
const boolMode = `
struct bm_ctx_t { bit<2> mode; bit<6> rsvd; }
struct bm_meta_t {
    @semantic("pkt_len") bit<16> len;
    @semantic("rss")     bit<32> hash;
}
@bind("CTX_T", "bm_ctx_t")
@bind("META_T", "bm_meta_t")
control CmptDeparser<CTX_T, META_T>(cmpt_out cmpt_out, in CTX_T ctx, in META_T pipe_meta) {
    apply {
        if (ctx.mode) {
            cmpt_out.emit(pipe_meta.len);
        }
        if (ctx.mode == 1) {
            cmpt_out.emit(pipe_meta.hash);
        } else {
            cmpt_out.emit(pipe_meta.len);
        }
    }
}
`

// TestUnroutedPacketIsCountedApart: a packet whose decisions take an edge no
// enumerated path takes gets no record, since no layout describes it. The
// device drops it before the ring and counts it as Unrouted, so it does not
// read as backpressure, and ActivePath errs alike. A well-typed description
// has a route for every register setting (TestEveryRegisterSettingIsRouted),
// so the edge is cut from e1000e's tree here, as a fault in the enumerator
// would cut it. boolMode, which once reached such an edge, is refused at its
// untyped condition.
func TestUnroutedPacketIsCountedApart(t *testing.T) {
	m, err := nic.Parse("boolmode.p4", boolMode)
	if err != nil {
		t.Fatal(err)
	}
	const want = "boolmode.p4:11:13: condition ctx.mode is a number, not a bool"
	if _, err := m.Paths(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("boolmode: %v, want an error at %q", err, want)
	}

	dev := MustNew(nic.MustLoad("e1000e"), Config{})
	leaf := slices.Index(dev.tree, ^int32(1))
	if leaf < 0 {
		t.Fatal("e1000e's tree has no leaf for path 1")
	}
	dev.tree[leaf] = 0
	if err := dev.ApplyConfig(dev.paths[1].Constraints); err != nil {
		t.Fatal(err)
	}
	if ap, err := dev.ActivePath(); !errors.Is(err, errUnrouted) {
		t.Errorf("ActivePath = %v, %v on a cut route, want errUnrouted", ap, err)
	}
	if dev.RxPacket(testPacket()) {
		t.Fatal("a packet on no enumerated route was accepted")
	}
	st := dev.Stats()
	if st.Unrouted != 1 || st.Drops != 1 || st.RxPackets != 0 {
		t.Errorf("unrouted %d, drops %d, rx %d; want 1, 1, 0", st.Unrouted, st.Drops, st.RxPackets)
	}
	if st.Ring.Produced != 0 || st.Ring.FullStalls != 0 {
		t.Errorf("ring %+v: an unrouted packet reached the ring", st.Ring)
	}
	if err := dev.ApplyConfig(dev.paths[0].Constraints); err != nil {
		t.Fatal(err)
	}
	if !dev.RxPacket(testPacket()) || dev.Stats().Unrouted != 1 {
		t.Errorf("an enumerated route after an unrouted packet: stats %+v", dev.Stats())
	}
}

func TestDeviceStatsContents(t *testing.T) {
	res := compileOn(t, "e1000e", semantics.RSS, semantics.VLAN)
	dev := MustNew(nic.MustLoad("e1000e"), Config{})
	if err := dev.ApplyConfig(res.Config); err != nil {
		t.Fatal(err)
	}
	p := testPacket()
	const n = 5
	for i := 0; i < n; i++ {
		if !dev.RxPacket(p) {
			t.Fatalf("rx %d failed", i)
		}
	}
	dev.CmptRing.Consume(func([]byte) {})
	dev.CmptRing.Consume(func([]byte) {})

	st := dev.Stats()
	if st.RxPackets != n {
		t.Errorf("rx=%d, want %d", st.RxPackets, n)
	}
	if st.RxBytes != uint64(n*len(p)) {
		t.Errorf("rx bytes = %d, want %d", st.RxBytes, n*len(p))
	}
	if st.Drops != 0 {
		t.Errorf("drops = %d", st.Drops)
	}
	active, err := dev.ActivePath()
	if err != nil {
		t.Fatal(err)
	}
	if st.CompletionBytes != uint64(n*active.SizeBytes()) {
		t.Errorf("completion bytes = %d, want %d", st.CompletionBytes, n*active.SizeBytes())
	}
	if len(st.CompletionsByPath) != 1 || st.CompletionsByPath[active.ID] != n {
		t.Errorf("per-path completions = %v, want {%d: %d}", st.CompletionsByPath, active.ID, n)
	}
	// An engine runs for a packet only when the active layout carries its
	// semantic: path 0 carries rss, not ip_checksum or l4_checksum.
	for _, s := range []semantics.Name{semantics.RSS, semantics.VLAN, semantics.PktLen} {
		if st.Offloads[s] != n {
			t.Errorf("offload %s = %d, want %d", s, st.Offloads[s], n)
		}
	}
	for _, s := range []semantics.Name{semantics.IPChecksum, semantics.L4Checksum, semantics.KVKey} {
		if st.Offloads[s] != 0 {
			t.Errorf("offload %s = %d on a layout that does not carry it", s, st.Offloads[s])
		}
	}
	// Reprogrammed to the layout that trades rss for ip_checksum, the
	// ip_checksum engine starts running and the rss engine stops.
	if err := dev.ApplyConfig(compileOn(t, "e1000e", semantics.IPChecksum).Config); err != nil {
		t.Fatal(err)
	}
	if !dev.RxPacket(p) {
		t.Fatal("rx after reconfiguration failed")
	}
	after := dev.Stats().Offloads
	if after[semantics.IPChecksum] != 1 || after[semantics.RSS] != n || after[semantics.PktLen] != n+1 {
		t.Errorf("after reconfiguration: ip_checksum=%d rss=%d pkt_len=%d, want 1, %d, %d",
			after[semantics.IPChecksum], after[semantics.RSS], after[semantics.PktLen], n, n+1)
	}
	want := st.Ring
	if want.Produced != n || want.Consumed != 2 || want.Occupancy != n-2 || want.HighWater != n {
		t.Errorf("ring stats = %+v", want)
	}
}

func TestDeviceMetricsExposition(t *testing.T) {
	res := compileOn(t, "e1000e", semantics.RSS)
	dev := MustNew(nic.MustLoad("e1000e"), Config{})
	if err := dev.ApplyConfig(res.Config); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	dev.RegisterMetrics(reg, obs.L("queue", "0"))
	for i := 0; i < 3; i++ {
		dev.RxPacket(testPacket())
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`opendesc_dev_rx_packets_total{nic="e1000e",queue="0"} 3`,
		`opendesc_dev_offload_invocations_total{nic="e1000e",queue="0",semantic="rss"} 3`,
		`opendesc_ring_produced_total{nic="e1000e",queue="0",ring="cmpt"} 3`,
		`opendesc_ring_occupancy{nic="e1000e",queue="0",ring="cmpt"} 3`,
		`opendesc_ring_capacity{nic="e1000e",queue="0",ring="cmpt"} 1024`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Registering twice must not duplicate series.
	dev.RegisterMetrics(reg, obs.L("queue", "0"))
	var sb2 strings.Builder
	reg.WritePrometheus(&sb2)
	if sb2.String() != out {
		t.Error("re-registration changed the exposition")
	}
}

// TestStatsScrapeRace runs the device RX path (producer), the host
// completion loop (consumer), and a stats scraper concurrently. Run under
// -race this verifies the counters are safe to read while the datapath is
// live; afterwards the snapshot must be exactly consistent.
func TestStatsScrapeRace(t *testing.T) {
	res := compileOn(t, "e1000e", semantics.RSS, semantics.PktLen)
	dev := MustNew(nic.MustLoad("e1000e"), Config{RingEntries: 64})
	if err := dev.ApplyConfig(res.Config); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	dev.RegisterMetrics(reg, obs.L("queue", "0"))

	const packets = 2000
	p := testPacket()
	var wg sync.WaitGroup
	wg.Add(2)
	accepted := make(chan uint64, 1)
	stop := make(chan struct{})

	go func() { // device: producer
		defer wg.Done()
		var ok uint64
		for i := 0; i < packets; {
			if dev.RxPacket(p) {
				ok++
			}
			i++
		}
		accepted <- ok
	}()
	go func() { // host: consumer
		defer wg.Done()
		consumed := 0
		for consumed < packets {
			select {
			case <-stop:
				return
			default:
			}
			if dev.CmptRing.Consume(func([]byte) {}) {
				consumed++
			}
		}
	}()
	// Scraper: hammer both snapshot APIs while the datapath runs.
	for i := 0; i < 200; i++ {
		st := dev.Stats()
		if st.Ring.Produced < st.Ring.Consumed {
			t.Errorf("consumed %d > produced %d", st.Ring.Consumed, st.Ring.Produced)
		}
		reg.WritePrometheus(io.Discard)
	}

	got := <-accepted
	close(stop)
	wg.Wait()
	st := dev.Stats()
	if st.RxPackets+st.Drops != packets {
		t.Errorf("rx %d + drops %d != %d attempts", st.RxPackets, st.Drops, packets)
	}
	if st.RxPackets != got || st.Ring.Produced != got {
		t.Errorf("rx=%d produced=%d, want %d", st.RxPackets, st.Ring.Produced, got)
	}
	if st.Drops != st.Ring.FullStalls {
		t.Errorf("drops %d != full stalls %d", st.Drops, st.Ring.FullStalls)
	}
	if hw := st.Ring.HighWater; hw < 1 || hw > 64 {
		t.Errorf("high water = %d", hw)
	}
}
