package softnic

import (
	"maps"
	"slices"
	"time"

	"opendesc/internal/codegen"
	"opendesc/internal/obs"
	"opendesc/internal/obs/flight"
	"opendesc/internal/semantics"
)

// ShimStats attributes SoftNIC emulation work per semantic: how often each
// shim ran, and how many nanoseconds the timed calls among them consumed.
// This makes the w(s) software-emulation cost term of the layout optimizer
// (Eq. 1) directly measurable on the running datapath instead of only
// modelled: w(s) = Nanos/Timed.
type ShimStats struct {
	calls map[semantics.Name]*obs.Counter
	timed map[semantics.Name]*obs.Counter
	nanos map[semantics.Name]*obs.Counter
	// fq, when attached, receives one flight event per timed shim call with
	// the packed semantic name and the call's duration.
	fq *flight.Queue
}

// AttachFlight wires per-call shim events into a flight-recorder queue.
func (st *ShimStats) AttachFlight(q *flight.Queue) { st.fq = q }

// NewShimStats creates counters for every emulable semantic.
func NewShimStats() *ShimStats {
	st := &ShimStats{
		calls: make(map[semantics.Name]*obs.Counter),
		timed: make(map[semantics.Name]*obs.Counter),
		nanos: make(map[semantics.Name]*obs.Counter),
	}
	for name := range Funcs() {
		st.calls[name] = &obs.Counter{}
		st.timed[name] = &obs.Counter{}
		st.nanos[name] = &obs.Counter{}
	}
	return st
}

// RegisterMetrics exposes the counters on reg as
// opendesc_softnic_calls_total{semantic=...},
// opendesc_softnic_timed_calls_total{semantic=...} and
// opendesc_softnic_nanos_total{semantic=...}, beside the given labels; the
// ratio of the last two is the measured ns/call.
func (st *ShimStats) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	for _, name := range slices.Sorted(maps.Keys(st.calls)) {
		l := append(append([]obs.Label{}, labels...), obs.L("semantic", string(name)))
		reg.AttachCounter("opendesc_softnic_calls_total", "SoftNIC shim invocations per semantic", st.calls[name], l...)
		reg.AttachCounter("opendesc_softnic_timed_calls_total", "SoftNIC shim invocations timed per semantic (one in flight.SamplePeriod)", st.timed[name], l...)
		reg.AttachCounter("opendesc_softnic_nanos_total", "nanoseconds spent in the timed SoftNIC shim calls per semantic", st.nanos[name], l...)
	}
}

// ShimCost is one semantic's accumulated emulation cost: every call, the
// timed ones among them, and the nanoseconds those took.
type ShimCost struct {
	Calls uint64
	Timed uint64
	Nanos uint64
}

// Cost returns one semantic's totals (zero for a semantic no shim emulates).
func (st *ShimStats) Cost(name semantics.Name) ShimCost {
	if c := st.calls[name]; c != nil {
		return ShimCost{Calls: c.Load(), Timed: st.timed[name].Load(), Nanos: st.nanos[name].Load()}
	}
	return ShimCost{}
}

// Instrument wraps a shim table (Funcs, or a device's Table) so every call
// of an emulable semantic's shim counts, and the calls whose per-shim
// ordinal falls on the flight sampling grid (flight.Sampled) are timed: one
// monotonic clock pair, one Timed increment and the EvShim event for that
// call. The grid is counted per shim, not taken from the packet, so a
// semantic read on a schedule in step with the packet grid (every 16th
// delivery, say) is still timed once in SamplePeriod of its calls. Every
// other call costs one counter increment and the bare shim. The timing does
// not depend on the recorder: under flight_off Record is a no-op and the
// counters run the same. Other entries are returned as they are.
func (st *ShimStats) Instrument(table map[semantics.Name]codegen.SoftFunc) map[semantics.Name]codegen.SoftFunc {
	out := make(map[semantics.Name]codegen.SoftFunc, len(table))
	for name, f := range table {
		calls, timed, nanos := st.calls[name], st.timed[name], st.nanos[name]
		if calls == nil {
			out[name] = f
			continue
		}
		packed := flight.PackName(string(name))
		out[name] = func(packet []byte) uint64 {
			n := uint32(calls.Inc())
			if !flight.Sampled(n) {
				return f(packet)
			}
			start := time.Now()
			v := f(packet)
			dur := uint64(time.Since(start).Nanoseconds())
			nanos.Add(dur)
			timed.Inc()
			st.fq.Record(flight.EvShim, n, packed, dur)
			return v
		}
	}
	return out
}
