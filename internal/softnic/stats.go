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
// shim ran and how many nanoseconds it consumed. This makes the w(s)
// software-emulation cost term of the layout optimizer (Eq. 1) directly
// measurable on the running datapath instead of only modelled.
type ShimStats struct {
	calls map[semantics.Name]*obs.Counter
	nanos map[semantics.Name]*obs.Counter
	// fq, when attached, receives one flight event per shim call with the
	// packed semantic name and the call's duration.
	fq *flight.Queue
}

// AttachFlight wires per-call shim events into a flight-recorder queue.
func (st *ShimStats) AttachFlight(q *flight.Queue) { st.fq = q }

// NewShimStats creates counters for every emulable semantic.
func NewShimStats() *ShimStats {
	st := &ShimStats{
		calls: make(map[semantics.Name]*obs.Counter),
		nanos: make(map[semantics.Name]*obs.Counter),
	}
	for name := range Funcs() {
		st.calls[name] = &obs.Counter{}
		st.nanos[name] = &obs.Counter{}
	}
	return st
}

// RegisterMetrics exposes the counters on reg as
// opendesc_softnic_calls_total{semantic=...} and
// opendesc_softnic_nanos_total{semantic=...}, beside the given labels.
func (st *ShimStats) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	for _, name := range slices.Sorted(maps.Keys(st.calls)) {
		l := append(append([]obs.Label{}, labels...), obs.L("semantic", string(name)))
		reg.AttachCounter("opendesc_softnic_calls_total", "SoftNIC shim invocations per semantic", st.calls[name], l...)
		reg.AttachCounter("opendesc_softnic_nanos_total", "nanoseconds spent in SoftNIC shims per semantic", st.nanos[name], l...)
	}
}

// ShimCost is one semantic's accumulated emulation cost.
type ShimCost struct {
	Calls uint64
	Nanos uint64
}

// Cost returns one semantic's call and nanosecond totals (zero for a
// semantic no shim emulates).
func (st *ShimStats) Cost(name semantics.Name) ShimCost {
	if c := st.calls[name]; c != nil {
		return ShimCost{Calls: c.Load(), Nanos: st.nanos[name].Load()}
	}
	return ShimCost{}
}

// Instrument wraps a shim table (Funcs, or a device's Table) so every call
// of an emulable semantic's shim increments its call counter and attributes
// its wall time; the other entries are returned as they are. The timing
// costs one monotonic clock read pair per call (~tens of ns), so
// instrumented shims are meant for observed runs (the evolving driver's
// measured w(s), served by `opendesc run -evolve -stats`); benchmarks keep
// the bare table.
func (st *ShimStats) Instrument(table map[semantics.Name]codegen.SoftFunc) map[semantics.Name]codegen.SoftFunc {
	out := make(map[semantics.Name]codegen.SoftFunc, len(table))
	for name, f := range table {
		calls, nanos := st.calls[name], st.nanos[name]
		if calls == nil {
			out[name] = f
			continue
		}
		packed := flight.PackName(string(name))
		out[name] = func(packet []byte) uint64 {
			start := time.Now()
			v := f(packet)
			dur := uint64(time.Since(start).Nanoseconds())
			nanos.Add(dur)
			calls.Inc()
			// Shim calls are routine per-read traffic: sampled on the call
			// count (flight.SamplePeriod) to stay inside the hot-path budget.
			if n := uint32(calls.Load()); flight.Sampled(n) {
				st.fq.Record(flight.EvShim, n, packed, dur)
			}
			return v
		}
	}
	return out
}
