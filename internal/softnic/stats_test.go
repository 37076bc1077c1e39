package softnic

import (
	"strings"
	"testing"

	"opendesc/internal/obs"
	"opendesc/internal/pkt"
	"opendesc/internal/semantics"
)

func TestInstrumentedFuncsCountAndCost(t *testing.T) {
	st := NewShimStats()
	funcs := st.Instrument(Funcs())
	if len(funcs) != len(Funcs()) {
		t.Fatalf("instrumented set has %d funcs, bare has %d", len(funcs), len(Funcs()))
	}
	p := pkt.NewBuilder().
		WithIPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}).
		WithTCP(1234, 80, 0x18).
		WithPayload([]byte("payload")).
		Build()

	// Instrumented shims must return the same values as the bare ones.
	bare := Funcs()
	for name, f := range funcs {
		if got, want := f(p), bare[name](p); got != want {
			t.Errorf("%s instrumented = %#x, bare = %#x", name, got, want)
		}
	}
	for i := 0; i < 9; i++ {
		funcs[semantics.RSS](p)
	}

	if got := st.Cost(semantics.RSS).Calls; got != 10 {
		t.Errorf("rss calls = %d, want 10", got)
	}
	if sc := st.Cost(semantics.VLAN); sc.Calls != 1 || st.Cost(semantics.Name("no_such_semantic")) != (ShimCost{}) {
		t.Errorf("vlan cost = %+v after one call, unknown semantic %+v", sc, st.Cost(semantics.Name("no_such_semantic")))
	}
	if st.MeasuredCost(semantics.RSS) <= 0 {
		t.Errorf("rss measured cost = %v", st.MeasuredCost(semantics.RSS))
	}
	if st.MeasuredCost(semantics.Name("no_such_semantic")) != 0 {
		t.Error("unknown semantic should cost 0")
	}
}

func TestShimStatsRegistration(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewShimStats()
	st.RegisterMetrics(reg)
	p := pkt.NewBuilder().WithUDP(1, 2).Build()
	st.Instrument(Funcs())[semantics.PktLen](p)

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `opendesc_softnic_calls_total{semantic="pkt_len"} 1`) {
		t.Errorf("exposition missing shim call counter:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), `opendesc_softnic_nanos_total{semantic="pkt_len"}`) {
		t.Error("exposition missing shim nanos counter")
	}
}

// MeasuredCost returns the observed mean ns/call for a semantic (0 when the
// shim never ran) — the runtime-measured counterpart of the static cost
// table and of Calibrate.
func (st *ShimStats) MeasuredCost(name semantics.Name) float64 {
	sc := st.Cost(name)
	if sc.Calls == 0 {
		return 0
	}
	return float64(sc.Nanos) / float64(sc.Calls)
}
