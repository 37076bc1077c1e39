package evolve

import (
	"errors"
	"math"
	"strings"
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
	"opendesc/internal/obs"
	"opendesc/internal/obs/flight"
	"opendesc/internal/rxpath"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/workload"
)

// testIntent is the Fig. 6 tension: e1000e can carry the RSS hash or the
// ip_id+checksum pair, never both, so one of the two is always a shim and
// the right choice depends on which the application actually reads.
func testIntent(t *testing.T) *core.Intent {
	t.Helper()
	it, err := core.IntentFromSemantics("evolve_test", semantics.Default,
		semantics.RSS, semantics.IPChecksum, semantics.VLAN, semantics.PktLen)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

// staticOptions force the static registry costs (MinShimSamples too high to
// ever trust wall-clock shim measurements), making tests deterministic.
func staticOptions() Options {
	return Options{
		Interval:       1 << 30, // renegotiate only when the test says so
		MinWindow:      64,
		MinShimSamples: math.MaxUint64,
	}
}

func newTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := New(nicsim.MustNew(nic.MustLoad("e1000e"), nicsim.Config{}), testIntent(t), core.CompileOptions{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// drive pushes n packets through the engine, reading the given semantics on
// every packet (recording the mix), and returns how many were delivered.
func drive(t *testing.T, e *Engine, tr *workload.Trace, n int, read ...semantics.Name) int {
	t.Helper()
	delivered := 0
	for i := 0; i < n; i++ {
		p := tr.Packets[i%len(tr.Packets)]
		if !e.Rx(p) {
			t.Fatalf("rx stalled at packet %d", i)
		}
		delivered += e.Poll(func(pkt []byte, m rxpath.Meta) {
			for _, s := range read {
				if _, ok := m.Get(string(s)); !ok {
					t.Fatalf("read %s failed", s)
				}
			}
		})
	}
	return delivered
}

func trace(t *testing.T) *workload.Trace {
	t.Helper()
	spec := workload.DefaultSpec()
	spec.Packets = 256
	tr, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestInitialGeneration pins the static compile: under registry costs the
// csum branch wins (w(rss)=18 < w(ip_checksum)=26) and no switchover has
// happened.
func TestInitialGeneration(t *testing.T) {
	e := newTestEngine(t, staticOptions())
	if got := e.Generation(); got != 0 {
		t.Fatalf("generation = %d, want 0", got)
	}
	res := e.Result()
	if res.HardwareSet().Has(semantics.RSS) {
		t.Fatalf("static compile should leave rss to software, got hardware set %s", res.HardwareSet())
	}
	if !res.HardwareSet().Has(semantics.IPChecksum) {
		t.Fatalf("static compile should carry ip_checksum in hardware, got %s", res.HardwareSet())
	}
}

// TestConvergesToReadMix is the core loop: a hash-heavy read mix must move
// the interface to the RSS-carrying path, and a later checksum-heavy mix
// must move it back — with zero loss and a change report each way.
func TestConvergesToReadMix(t *testing.T) {
	e := newTestEngine(t, staticOptions())
	tr := trace(t)

	// Phase A: the application reads rss on every packet; ip_checksum never.
	drive(t, e, tr, 256, semantics.RSS, semantics.VLAN, semantics.PktLen)
	switched, err := e.Renegotiate()
	if err != nil {
		t.Fatalf("renegotiate: %v", err)
	}
	if !switched {
		t.Fatal("hash-heavy mix should trigger a switchover to the rss path")
	}
	if got := e.Generation(); got != 1 {
		t.Fatalf("generation = %d, want 1", got)
	}
	if !e.Result().HardwareSet().Has(semantics.RSS) {
		t.Fatalf("after switchover rss should be hardware, got %s", e.Result().HardwareSet())
	}
	d := e.LastDiff()
	if d == nil {
		t.Fatal("switchover should record a diff")
	}
	var toHW, toSW bool
	for _, c := range d.Changes {
		if c.Semantic == semantics.RSS && c.Kind == core.ChangeToHardware {
			toHW = true
		}
		if c.Semantic == semantics.IPChecksum && c.Kind == core.ChangeToSoftware {
			toSW = true
		}
	}
	if !toHW || !toSW {
		t.Fatalf("diff should report rss software→hardware and ip_checksum hardware→software:\n%s", d)
	}

	// Phase B: the mix flips to checksum-heavy; the engine must flip back.
	drive(t, e, tr, 256, semantics.IPChecksum, semantics.VLAN, semantics.PktLen)
	switched, err = e.Renegotiate()
	if err != nil {
		t.Fatalf("renegotiate: %v", err)
	}
	if !switched {
		t.Fatal("csum-heavy mix should trigger a switchover back to the csum path")
	}
	st := e.Stats()
	if st.Generation != 2 || st.Switchovers != 2 {
		t.Fatalf("stats = %+v, want generation 2 with 2 switchovers", st)
	}
	if st.SwitchDrops != 0 {
		t.Fatalf("switch drops = %d, want exactly 0", st.SwitchDrops)
	}
	if st.Rollbacks != 0 || st.Unsat != 0 {
		t.Fatalf("unexpected failures in stats: %+v", st)
	}
	if rx, drops := e.q.Dev().Stats().RxPackets, e.q.Dev().Stats().Drops; rx != 512 || drops != 0 {
		t.Fatalf("device rx=%d drops=%d, want 512/0", rx, drops)
	}
}

// TestStableMixDoesNotFlap: when the active path already serves the mix, a
// renegotiation must be a no-op (hysteresis and plain dominance).
func TestStableMixDoesNotFlap(t *testing.T) {
	e := newTestEngine(t, staticOptions())
	tr := trace(t)
	drive(t, e, tr, 256, semantics.IPChecksum, semantics.VLAN, semantics.PktLen)
	switched, err := e.Renegotiate()
	if err != nil {
		t.Fatal(err)
	}
	if switched {
		t.Fatal("csum-heavy mix on the csum path must not switch")
	}
	if st := e.Stats(); st.Renegotiations != 1 || st.Switchovers != 0 {
		t.Fatalf("stats = %+v, want 1 evaluation and 0 switchovers", st)
	}
}

// TestMinWindowGuard: a renegotiation with too few observed packets must
// neither evaluate nor discard the accumulating window.
func TestMinWindowGuard(t *testing.T) {
	e := newTestEngine(t, staticOptions())
	tr := trace(t)
	drive(t, e, tr, 32, semantics.RSS) // below MinWindow=64
	if switched, err := e.Renegotiate(); switched || err != nil {
		t.Fatalf("short window: switched=%v err=%v", switched, err)
	}
	if st := e.Stats(); st.Renegotiations != 0 {
		t.Fatalf("short window must not count as an evaluation: %+v", st)
	}
	// The earlier observations still count once the window is big enough.
	drive(t, e, tr, 40, semantics.RSS)
	if switched, err := e.Renegotiate(); !switched || err != nil {
		t.Fatalf("accumulated window should switch: switched=%v err=%v", switched, err)
	}
}

// TestDrainUnderOldLayout exercises the switchover while the completion
// ring is non-empty: in-flight completions must be drained under the old
// generation's layout and delivered on the next Poll through the old
// runtime, with correct values on both sides of the epoch.
func TestDrainUnderOldLayout(t *testing.T) {
	e := newTestEngine(t, staticOptions())
	tr := trace(t)
	golden := softnic.Funcs()

	// Build a hash-heavy window, then park 10 packets in the ring without
	// polling them.
	drive(t, e, tr, 128, semantics.RSS, semantics.VLAN)
	const parked = 10
	for i := 0; i < parked; i++ {
		if !e.Rx(tr.Packets[i]) {
			t.Fatalf("rx stalled at parked packet %d", i)
		}
	}
	if occ := e.q.Dev().CmptRing.Occupancy(); occ != parked {
		t.Fatalf("ring occupancy = %d, want %d", occ, parked)
	}
	switched, err := e.Renegotiate()
	if err != nil || !switched {
		t.Fatalf("renegotiate: switched=%v err=%v", switched, err)
	}
	st := e.Stats()
	if st.PacketsDrained != parked {
		t.Fatalf("packets drained = %d, want %d", st.PacketsDrained, parked)
	}
	if st.SwitchDrops != 0 {
		t.Fatalf("switch drops = %d, want 0", st.SwitchDrops)
	}

	// The parked completions were serialized under the OLD (csum) layout:
	// the old runtime must still read the hardware checksum out of them.
	oldDelivered := 0
	n := e.Poll(func(pkt []byte, m rxpath.Meta) {
		if !m.Hardware("ip_checksum") {
			t.Fatal("drained completion must resolve ip_checksum in hardware via the old runtime")
		}
		got, ok := m.Get("ip_checksum")
		if !ok {
			t.Fatal("drained ip_checksum read failed")
		}
		if want := golden[semantics.IPChecksum](pkt) & 0xFFFF; got != want {
			t.Fatalf("drained ip_checksum = %#x, want %#x", got, want)
		}
		oldDelivered++
	})
	if n != parked || oldDelivered != parked {
		t.Fatalf("poll delivered %d (checked %d), want %d", n, oldDelivered, parked)
	}

	// Fresh traffic lands on the NEW layout: rss is now a hardware read.
	if !e.Rx(tr.Packets[0]) {
		t.Fatal("rx after switchover failed")
	}
	e.Poll(func(pkt []byte, m rxpath.Meta) {
		if !m.Hardware("rss") {
			t.Fatal("post-switchover completions must serve rss from hardware")
		}
		got, ok := m.Get("rss")
		if !ok {
			t.Fatal("post-switchover rss read failed")
		}
		if want := golden[semantics.RSS](pkt); got != want {
			t.Fatalf("post-switchover rss = %#x, want %#x", got, want)
		}
	})
}

// TestUnsatRenegotiationKeepsRunning injects an unsatisfiable live cost
// model (every software fallback infinitely expensive): the re-solve must
// be rejected, counted, and the active interface left untouched.
func TestUnsatRenegotiationKeepsRunning(t *testing.T) {
	opts := staticOptions()
	opts.Costs = func(live semantics.CostModel) semantics.CostModel {
		return func(semantics.Name) float64 { return math.Inf(1) }
	}
	e := newTestEngine(t, opts)
	tr := trace(t)
	drive(t, e, tr, 128, semantics.RSS)
	switched, err := e.Renegotiate()
	if switched {
		t.Fatal("unsat re-solve must not switch")
	}
	var unsat *core.UnsatisfiableError
	if !errors.As(err, &unsat) {
		t.Fatalf("err = %v, want an UnsatisfiableError", err)
	}
	st := e.Stats()
	if st.Unsat != 1 || st.Generation != 0 || st.Rollbacks != 0 {
		t.Fatalf("stats = %+v, want 1 unsat rejection at generation 0", st)
	}
	if e.LastErr() == nil {
		t.Fatal("LastErr should surface the unsat rejection")
	}
	if got := drive(t, e, tr, 64, semantics.RSS); got != 64 {
		t.Fatalf("post-unsat delivery = %d, want 64", got)
	}
}

// TestAutoRenegotiateOnInterval: Poll itself must trigger the evaluation
// every Interval delivered packets.
func TestAutoRenegotiateOnInterval(t *testing.T) {
	opts := staticOptions()
	opts.Interval = 128
	e := newTestEngine(t, opts)
	tr := trace(t)
	drive(t, e, tr, 300, semantics.RSS, semantics.VLAN, semantics.PktLen)
	st := e.Stats()
	if st.Renegotiations == 0 {
		t.Fatal("Poll should have evaluated a renegotiation after Interval packets")
	}
	if st.Generation == 0 || st.Switchovers == 0 {
		t.Fatalf("hash-heavy interval traffic should have switched: %+v", st)
	}
	if st.SwitchDrops != 0 {
		t.Fatalf("switch drops = %d, want 0", st.SwitchDrops)
	}
}

// TestMeasuredCostsFeedResolve: with MinShimSamples low, the re-solve runs
// off wall-clock shim measurements; the engine must still converge to the
// path carrying the hot semantic (direction is measurement-independent:
// reading rss 100% of the time vs ip_checksum never).
func TestMeasuredCostsFeedResolve(t *testing.T) {
	opts := staticOptions()
	opts.MinShimSamples = 8
	e := newTestEngine(t, opts)
	tr := trace(t)
	drive(t, e, tr, 256, semantics.RSS, semantics.VLAN, semantics.PktLen)
	if sc := e.shims.Cost(semantics.RSS); sc.Timed == 0 || sc.Nanos == 0 {
		t.Fatalf("rss shim measured %+v, want timed calls and time after 256 soft reads", sc)
	}
	if _, err := e.Renegotiate(); err != nil {
		t.Fatal(err)
	}
	if !e.Result().HardwareSet().Has(semantics.RSS) {
		t.Fatalf("measured-cost re-solve should still move rss to hardware, got %s",
			e.Result().HardwareSet())
	}
}

// TestSparseReaderReachesMinShimSamples: a shim times one call in
// flight.SamplePeriod of its own calls, not of the packets, so a semantic
// read only on every SamplePeriod-th delivery — in step with the packet
// grid — is still timed, and 64·SamplePeriod of its reads give the default
// MinShimSamples timed calls for the resolver to price w(s) on.
func TestSparseReaderReachesMinShimSamples(t *testing.T) {
	opts := staticOptions()
	opts.MinShimSamples = 0 // the default
	e := newTestEngine(t, opts)
	if e.Result().HardwareSet().Has(semantics.RSS) {
		t.Fatal("test needs rss left to a shim")
	}
	tr := trace(t)
	minSamples := e.res.opts.MinShimSamples
	deliveries := int(minSamples) * flight.SamplePeriod * flight.SamplePeriod
	delivered := 0
	for i := 0; i < deliveries; i++ {
		if !e.Rx(tr.Packets[i%len(tr.Packets)]) {
			t.Fatalf("rx stalled at packet %d", i)
		}
		e.Poll(func(pkt []byte, m rxpath.Meta) {
			if delivered++; flight.Sampled(uint32(delivered)) {
				if _, ok := m.Get(string(semantics.RSS)); !ok {
					t.Fatal("read rss failed")
				}
			}
		})
	}
	sc := e.shims.Cost(semantics.RSS)
	if want := minSamples * flight.SamplePeriod; sc.Calls != want || sc.Timed != minSamples || sc.Nanos == 0 {
		t.Fatalf("rss read on every %dth of %d deliveries: %+v, want %d calls, %d timed, time measured",
			flight.SamplePeriod, delivered, sc, want, minSamples)
	}
}

// TestRegisterMetrics: the control-plane series must land on the registry.
func TestRegisterMetrics(t *testing.T) {
	e := newTestEngine(t, staticOptions())
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg, obs.L("queue", "0"))
	table := reg.Table()
	for _, want := range []string{
		"opendesc_evolve_renegotiations_total",
		"opendesc_evolve_switchovers_total",
		"opendesc_evolve_rollbacks_total",
		"opendesc_evolve_switch_drops_total",
		"opendesc_evolve_packets_drained_total",
		"opendesc_evolve_generation",
		"opendesc_evolve_reads_total",
		"opendesc_dev_rx_packets_total",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("registry table missing %s", want)
		}
	}
}

// LastErr returns the failure the most recent Renegotiate ended on (unsat
// re-solve or rolled-back switchover), nil when it ended on none.
func (e *Engine) LastErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastErr
}
