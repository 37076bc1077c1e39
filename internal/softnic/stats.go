package softnic

import (
	"maps"
	"slices"
	"sync"
	"time"

	"opendesc/internal/codegen"
	"opendesc/internal/obs"
	"opendesc/internal/obs/flight"
	"opendesc/internal/semantics"
)

// ShimStats attributes SoftNIC emulation work per semantic: how many values
// its shim or burst form delivered, and how many nanoseconds the timed
// regions among them consumed, per value they served. This makes the w(s)
// software-emulation cost term of the layout optimizer (Eq. 1) directly
// measurable on the running datapath instead of only modelled:
// w(s) = Nanos/Timed, for either form, read density included.
type ShimStats struct {
	meters map[semantics.Name]*Meter
	// fq, when attached, receives one flight event per timed region with the
	// packed semantic name and the region's duration.
	fq *flight.Queue
}

// Meter is one semantic's counters in a ShimStats. A scalar call is a timed
// region delivering one value; a burst window is one delivering each value a
// read takes from it, memo hits included. windows numbers the burst form's
// calls, the grid its windows are timed on.
type Meter struct {
	st                          *ShimStats
	packed                      uint64
	calls, timed, nano, windows obs.Counter
}

// clockFloor is the cost of an empty clock pair on this machine, measured
// once per process (the first NewShimStats): what a timed region books is
// its duration less this, so w(s) prices the shim, not the clock.
var (
	clockFloor     int64
	clockFloorOnce sync.Once
)

// clockPairCost is the median of 64 empty time.Now/time.Since pairs.
func clockPairCost() int64 {
	var d [64]int64
	for i := range d {
		start := time.Now()
		d[i] = time.Since(start).Nanoseconds()
	}
	slices.Sort(d[:])
	return d[len(d)/2]
}

// AttachFlight wires per-region shim events into a flight-recorder queue.
func (st *ShimStats) AttachFlight(q *flight.Queue) { st.fq = q }

// NewShimStats creates counters for every emulable semantic.
func NewShimStats() *ShimStats {
	clockFloorOnce.Do(func() { clockFloor = clockPairCost() })
	st := &ShimStats{meters: make(map[semantics.Name]*Meter)}
	for name := range Funcs() {
		st.meters[name] = &Meter{st: st, packed: flight.PackName(string(name))}
	}
	return st
}

// RegisterMetrics exposes the counters on reg as
// opendesc_softnic_calls_total{semantic=...},
// opendesc_softnic_timed_calls_total{semantic=...} and
// opendesc_softnic_nanos_total{semantic=...}, beside the given labels; the
// ratio of the last two is the measured ns per delivered value.
func (st *ShimStats) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	for _, name := range slices.Sorted(maps.Keys(st.meters)) {
		m := st.meters[name]
		l := append(append([]obs.Label{}, labels...), obs.L("semantic", string(name)))
		reg.AttachCounter("opendesc_softnic_calls_total", "SoftNIC values delivered per semantic (scalar calls and burst-window reads)", &m.calls, l...)
		reg.AttachCounter("opendesc_softnic_timed_calls_total", "SoftNIC values served by timed calls or windows per semantic (one region in flight.SamplePeriod)", &m.timed, l...)
		reg.AttachCounter("opendesc_softnic_nanos_total", "nanoseconds spent in the timed SoftNIC calls and windows per semantic", &m.nano, l...)
	}
}

// ShimCost is one semantic's accumulated emulation cost: every delivered
// value, the values timed regions served, and the nanoseconds those took.
type ShimCost struct {
	Calls uint64
	Timed uint64
	Nanos uint64
}

// Cost returns one semantic's totals (zero for a semantic no shim emulates).
func (st *ShimStats) Cost(name semantics.Name) ShimCost {
	if m := st.meters[name]; m != nil {
		return ShimCost{Calls: m.calls.Load(), Timed: m.timed.Load(), Nanos: m.nano.Load()}
	}
	return ShimCost{}
}

// Meter returns name's meter: nil on a nil ShimStats and for a semantic no
// shim emulates.
func (st *ShimStats) Meter(name semantics.Name) *Meter {
	if st == nil {
		return nil
	}
	return st.meters[name]
}

// book books the timed region of ordinal n, which its caller found on the
// flight sampling grid (flight.Sampled) and timed with one monotonic clock
// pair around the bare call: the duration less the pair's own cost (at
// least 1 ns), the one value the region delivers now, and the EvShim event.
// The timing does not depend on the recorder: with it disabled Record is a
// no-op and the counters run the same.
func (m *Meter) book(n uint32, d time.Duration) {
	dur := uint64(max(1, d.Nanoseconds()-clockFloor))
	m.nano.Add(dur)
	m.timed.Inc()
	m.st.fq.Record(flight.EvShim, n, m.packed, dur)
}

// Window runs a burst form over frames for a read that takes the first of
// its values, and reports whether it was timed; the window's later reads are
// credited by Serve. The grid is the form's own call ordinal, so a window is
// timed whole once in SamplePeriod windows whatever the read density, never
// a single frame of one.
func (m *Meter) Window(form func(frames [][]byte, out []uint64), frames [][]byte, out []uint64) bool {
	m.calls.Inc()
	n := uint32(m.windows.Inc())
	if !flight.Sampled(n) {
		form(frames, out)
		return false
	}
	start := time.Now()
	form(frames, out)
	m.book(n, time.Since(start))
	return true
}

// Serve credits one more value read from a window: a delivered value, and a
// timed one when the window was.
func (m *Meter) Serve(timed bool) {
	m.calls.Inc()
	if timed {
		m.timed.Inc()
	}
}

// Instrument wraps a shim table (Funcs, or a device's Table) so every call
// of an emulable semantic's shim counts, and the calls whose per-shim
// ordinal falls on the flight sampling grid are timed (book). The grid is
// counted per shim, not taken from the packet, so a semantic read on a
// schedule in step with the packet grid (every 16th delivery, say) is still
// timed once in SamplePeriod of its calls. Every other call costs one
// counter increment and the bare shim. Other entries are returned as they
// are. A lane on an instrumented queue reads a semantic with a burst form
// through that form, metered by Window and Serve.
func (st *ShimStats) Instrument(table map[semantics.Name]codegen.SoftFunc) map[semantics.Name]codegen.SoftFunc {
	out := make(map[semantics.Name]codegen.SoftFunc, len(table))
	for name, f := range table {
		m := st.meters[name]
		if m == nil {
			out[name] = f
			continue
		}
		out[name] = func(packet []byte) uint64 {
			n := uint32(m.calls.Inc())
			if !flight.Sampled(n) {
				return f(packet)
			}
			start := time.Now()
			v := f(packet)
			m.book(n, time.Since(start))
			return v
		}
	}
	return out
}
