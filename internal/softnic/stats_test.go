package softnic

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"opendesc/internal/obs"
	"opendesc/internal/obs/flight"
	"opendesc/internal/pkt"
	"opendesc/internal/semantics"
)

func statsPackets() [][]byte {
	return [][]byte{
		pkt.NewBuilder().
			WithIPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}).
			WithTCP(1234, 80, 0x18).
			WithPayload([]byte("payload")).
			Build(),
		pkt.NewBuilder().WithVLAN(7).WithUDP(1, 2).WithPayload([]byte("kv")).Build(),
	}
}

// shimEvents groups rec's EvShim events by packed semantic name.
func shimEvents(rec *flight.Recorder) map[uint64][]flight.Event {
	out := map[uint64][]flight.Event{}
	for _, q := range rec.Snapshot().Queues {
		for _, ev := range q.Events {
			if ev.Code == flight.EvShim {
				out[ev.Arg0] = append(out[ev.Arg0], ev)
			}
		}
	}
	return out
}

// TestInstrumentedFuncsCountAndCost drives k·SamplePeriod + r calls of every
// instrumented shim: Calls is exact, Timed is the calls on the sampling grid,
// only those are timed, each timed call is the one EvShim event of its
// semantic, and every value is the bare shim's.
func TestInstrumentedFuncsCountAndCost(t *testing.T) {
	const k, r = 5, 3
	st := NewShimStats()
	rec := flight.NewRecorder(flight.Config{})
	st.AttachFlight(rec.Queue("q0"))
	funcs := st.Instrument(Funcs())
	bare := Funcs()
	if len(funcs) != len(bare) {
		t.Fatalf("instrumented set has %d funcs, bare has %d", len(funcs), len(bare))
	}
	packets := statsPackets()
	for i := 0; i < k*flight.SamplePeriod+r; i++ {
		p := packets[i%len(packets)]
		for name, f := range funcs {
			if got, want := f(p), bare[name](p); got != want {
				t.Fatalf("%s call %d: instrumented = %#x, bare = %#x", name, i, got, want)
			}
		}
	}

	events := shimEvents(rec)
	for name := range funcs {
		sc := st.Cost(name)
		if sc.Calls != k*flight.SamplePeriod+r || sc.Timed != sc.Calls/flight.SamplePeriod {
			t.Errorf("%s: %d calls, %d timed; want %d calls, %d timed", name, sc.Calls, sc.Timed, k*flight.SamplePeriod+r, k)
		}
		if sc.Timed > 0 && sc.Nanos == 0 {
			t.Errorf("%s: %d timed calls measured 0 ns", name, sc.Timed)
		}
		if got := uint64(len(events[flight.PackName(string(name))])); got != sc.Timed {
			t.Errorf("%s: %d EvShim events, %d timed calls", name, got, sc.Timed)
		}
	}
	if sc := st.Cost(semantics.Name("no_such_semantic")); sc != (ShimCost{}) {
		t.Errorf("unknown semantic cost = %+v, want zero", sc)
	}
}

// TestShimTimingOnGrid is the gate on the sampled timing: a shim reads the
// clock on the calls whose own ordinal is on the flight grid and on no other,
// and an untimed call allocates nothing. One semantic is read on every
// delivery and one on every SamplePeriod-th, the schedule under which a grid
// taken from the packet would time the second on every call; counted per
// shim, it is timed once in SamplePeriod of its own calls, and the EvShim
// events carry exactly the grid ordinals.
func TestShimTimingOnGrid(t *testing.T) {
	st := NewShimStats()
	rec := flight.NewRecorder(flight.Config{})
	st.AttachFlight(rec.Queue("q0"))
	funcs := st.Instrument(Funcs())
	dense, sparse := semantics.RSS, semantics.PktLen
	p := statsPackets()[0]
	call := func(name semantics.Name) {
		before := st.Cost(name)
		funcs[name](p)
		after := st.Cost(name)
		onGrid := flight.Sampled(uint32(after.Calls))
		switch {
		case after.Calls != before.Calls+1:
			t.Fatalf("%s: calls %d -> %d", name, before.Calls, after.Calls)
		case after.Timed != after.Calls/flight.SamplePeriod:
			t.Fatalf("%s: %d timed after %d calls", name, after.Timed, after.Calls)
		case !onGrid && after.Nanos != before.Nanos:
			t.Fatalf("%s: off-grid call %d added %d ns", name, after.Calls, after.Nanos-before.Nanos)
		}
	}
	const deliveries = 64 * flight.SamplePeriod * flight.SamplePeriod
	for d := 1; d <= deliveries; d++ {
		call(dense)
		if flight.Sampled(uint32(d)) {
			call(sparse)
		}
	}
	if got := st.Cost(sparse).Timed; got != 64 {
		t.Errorf("%s read on every %dth delivery: %d timed calls, want 64", sparse, flight.SamplePeriod, got)
	}
	for _, name := range []semantics.Name{dense, sparse} {
		evs := shimEvents(rec)[flight.PackName(string(name))]
		for i, ev := range evs {
			if want := uint32(i+1) * flight.SamplePeriod; ev.Seq != want {
				t.Fatalf("%s: EvShim %d on call %d, want %d", name, i, ev.Seq, want)
			}
		}
		if uint64(len(evs)) != st.Cost(name).Timed {
			t.Errorf("%s: %d EvShim events, %d timed calls", name, len(evs), st.Cost(name).Timed)
		}
	}

	t.Logf("%s: %+v; %s: %+v", dense, st.Cost(dense), sparse, st.Cost(sparse))

	// Calls 1..SamplePeriod-1 of a fresh shim are all off the grid.
	st = NewShimStats()
	f := st.Instrument(Funcs())[dense]
	if a := testing.AllocsPerRun(flight.SamplePeriod-2, func() { f(p) }); a != 0 {
		t.Errorf("off-grid instrumented call: %v allocs, want 0", a)
	}
	if sc := st.Cost(dense); sc.Timed != 0 || sc.Nanos != 0 {
		t.Errorf("%d off-grid calls timed %d, measured %d ns", sc.Calls, sc.Timed, sc.Nanos)
	}
}

func TestShimStatsRegistration(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewShimStats()
	st.RegisterMetrics(reg)
	p := pkt.NewBuilder().WithUDP(1, 2).Build()
	f := st.Instrument(Funcs())[semantics.PktLen]
	for i := 0; i < flight.SamplePeriod+1; i++ {
		f(p)
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	for _, want := range []string{
		fmt.Sprintf(`opendesc_softnic_calls_total{semantic="pkt_len"} %d`+"\n", flight.SamplePeriod+1),
		`opendesc_softnic_timed_calls_total{semantic="pkt_len"} 1` + "\n",
		`opendesc_softnic_timed_calls_total{semantic="rss"} 0` + "\n",
		`opendesc_softnic_nanos_total{semantic="pkt_len"} `,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %s:\n%s", want, sb.String())
		}
	}
}

// BenchmarkInstrumentedShim prices the instrumentation per call: the bare
// shim against the same shim under Instrument, which counts every call and
// times one in flight.SamplePeriod.
func BenchmarkInstrumentedShim(b *testing.B) {
	p := statsPackets()[0]
	bare := Funcs()
	inst := NewShimStats().Instrument(Funcs())
	for _, name := range []semantics.Name{semantics.PktLen, semantics.RSS} {
		for _, arm := range []struct {
			name string
			f    func([]byte) uint64
		}{{"bare", bare[name]}, {"instrumented", inst[name]}} {
			b.Run(string(name)+"/"+arm.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sink64 += arm.f(p)
				}
			})
		}
	}
}

// TestMeteredCostExcludesTheClock: a timed region books its duration less
// the clock pair's own cost (clockFloor), so on a hot loop the live
// w(pkt_len) — a shim far cheaper than the clock — comes within half that
// cost of Calibrate's, which times thousands of calls under one pair.
// Booked whole, the live figure would sit a whole pair above it. The best of
// eight rounds is compared, so a round the scheduler or the race detector
// stretched does not decide it.
func TestMeteredCostExcludesTheClock(t *testing.T) {
	const calls = 1 << 14
	p := statsPackets()[0]
	best := math.Inf(1)
	for range 8 {
		st := NewShimStats()
		f := st.Instrument(Funcs())[semantics.PktLen]
		for range calls {
			sink64 += f(p)
		}
		sc := st.Cost(semantics.PktLen)
		live := float64(sc.Nanos) / float64(sc.Timed)
		cal := Calibrate([][]byte{p}, calls)[semantics.PktLen]
		t.Logf("live w(pkt_len) %.1f ns over %d timed calls, calibrated %.1f ns, clock pair %d ns", live, sc.Timed, cal, clockFloor)
		if best = min(best, math.Abs(live-cal)); best <= float64(clockFloor)/2 {
			return
		}
	}
	t.Errorf("live w(pkt_len) is %.1f ns from Calibrate's at best, want within half the clock pair's %d ns", best, clockFloor)
}
