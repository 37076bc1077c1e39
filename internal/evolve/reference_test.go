package evolve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/pkt"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
)

// referenceResolve is Resolve as it ran until the solver took vectors: the
// window closed into a map, every shim counter snapshotted into a second, the
// live model a chain of closures over both, and a full CompileJoint whose
// Result is dropped unless the layout changes. It runs on a Resolver's record
// and is kept as the oracle TestResolveMatchesReference compares Resolve with.
func referenceResolve(r *Resolver, m *nic.Model, copts core.CompileOptions, active int) (*core.JointResult, error) {
	r.Postpone()
	if r.delivered.Load()-r.lastDeliv < uint64(r.opts.MinWindow) {
		return nil, nil
	}
	r.evaluations.Inc()

	shimCosts := map[semantics.Name]softnic.ShimCost{}
	if r.shims != nil {
		for name := range softnic.Funcs() {
			if sc := r.shims.Cost(name); sc.Timed > 0 {
				shimCosts[name] = sc
			}
		}
	}
	base := semantics.RegistryCosts(semantics.Default)
	deliv := r.delivered.Load()
	dn := deliv - r.lastDeliv
	r.lastDeliv = deliv
	mix := make(map[semantics.Name]float64, len(r.reads))
	for i, f := range r.intent.Fields {
		cur := r.reads[i].Load()
		mix[f.Semantic] = 0
		if dn > 0 {
			mix[f.Semantic] = float64(cur-r.last[i]) / float64(dn)
		}
		r.last[i] = cur
	}
	costs := semantics.CostModel(func(s semantics.Name) float64 {
		w := base(s)
		if math.IsInf(w, 1) {
			return w
		}
		if sc, ok := shimCosts[s]; ok && sc.Timed >= r.opts.MinShimSamples {
			w = float64(sc.Nanos) / float64(sc.Timed)
		}
		f, ok := mix[s]
		if !ok {
			return w
		}
		return f * w
	})
	if r.opts.Costs != nil {
		costs = r.opts.Costs(costs)
	}
	over := map[semantics.Name]float64{}
	for _, f := range r.intent.Fields {
		if f.CostOverride >= 0 {
			over[f.Semantic] = f.CostOverride
		}
	}
	next, err := m.CompileJoint([]core.TenantIntent{{Intent: r.intent, Weight: 1, Costs: costs.WithOverrides(over)}}, copts)
	if err != nil {
		r.unsat.Inc()
		return nil, err
	}
	if next.Selected.Path.ID == active {
		return nil, nil
	}
	activeTotal := math.Inf(1)
	for _, s := range next.Scored {
		if s.Path.ID == active {
			activeTotal = s.Total
			break
		}
	}
	if next.Selected.Total >= activeTotal*(1-hysteresis) {
		return nil, nil
	}
	return next, nil
}

// TestResolveMatchesReference drives a Resolver and the reference through
// 1 000 seeded random windows per configuration — e1000e and mlx5, static and
// measured shim costs, with and without an Options.Costs wrapper that makes
// some ticks unsatisfiable, a second intent with an @cost override on one
// field from tick 500 — and requires the same answer every tick (stay, the
// same error, or the same compilation bit for bit), the same evaluation and
// rejection counts, and the same window baselines. The subtests keep the
// names they had when a resolver could hold several tenants.
func TestResolveMatchesReference(t *testing.T) {
	packet := pkt.NewBuilder().WithIPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}).WithUDP(1, 2).WithPayload([]byte("window")).Build()
	requests := map[string][2][]semantics.Name{
		"e1000e": {
			{semantics.RSS, semantics.IPChecksum, semantics.VLAN, semantics.PktLen},
			{semantics.IPChecksum, semantics.PktLen},
		},
		"mlx5": {
			{semantics.RSS, semantics.VLAN, semantics.PktLen, semantics.KVKey},
			{semantics.IPChecksum, semantics.L4Checksum, semantics.FlowID},
		},
	}
	intent := func(sems []semantics.Name, override int) *core.Intent {
		it, err := core.IntentFromSemantics("reference", semantics.Default, sems...)
		if err != nil {
			t.Fatal(err)
		}
		if override >= 0 {
			it.Fields[override].CostOverride = 3
		}
		return it
	}
	for _, nicName := range []string{"e1000e", "mlx5"} {
		for _, measured := range []bool{false, true} {
			for _, wrapped := range []bool{false, true} {
				name := fmt.Sprintf("%s/1tenants/measured=%t/wrapped=%t", nicName, measured, wrapped)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(24))
					m := nic.MustLoad(nicName)
					opts := Options{MinWindow: 32, MinShimSamples: 4}
					poisoned := false
					if wrapped {
						opts.Costs = func(live semantics.CostModel) semantics.CostModel {
							return func(s semantics.Name) float64 {
								if poisoned { // no path carries the whole request
									return math.Inf(1)
								}
								return live(s)*1.5 + 0.1
							}
						}
					}
					var shims *softnic.ShimStats
					funcs := map[semantics.Name]func([]byte) uint64{}
					if measured {
						shims = softnic.NewShimStats()
						for s, f := range shims.Instrument(softnic.Funcs()) {
							funcs[s] = f
						}
					}
					var got, want *Resolver
					arm := func(it *core.Intent) {
						var err error
						if got, err = NewResolver(m, core.CompileOptions{}, opts, shims, it); err != nil {
							t.Fatal(err)
						}
						if want, err = NewResolver(m, core.CompileOptions{}, opts, shims, it); err != nil {
							t.Fatal(err)
						}
					}
					arm(intent(requests[nicName][0], -1))

					active, switches, stays, unsat := 0, 0, 0, 0
					for tick := 0; tick < 1000; tick++ {
						if tick == 500 {
							arm(intent(requests[nicName][1], 0))
						}
						n := rng.Intn(200)
						if rng.Intn(8) == 0 {
							n = rng.Intn(12) // some windows stay open
						}
						got.NoteDelivered(n)
						want.NoteDelivered(n)
						for fi, f := range got.intent.Fields {
							reads := 0
							if n > 0 && rng.Intn(3) > 0 {
								reads = rng.Intn(n + 1)
							}
							got.reads[fi].Add(uint64(reads))
							want.reads[fi].Add(uint64(reads))
							if shim := funcs[f.Semantic]; shim != nil && rng.Intn(4) == 0 {
								shim(packet)
							}
						}
						poisoned = rng.Intn(10) == 0

						g, gerr := got.Resolve(active)
						w, werr := referenceResolve(want, m, core.CompileOptions{}, active)
						sameAnswer(t, tick, g, gerr, w, werr)
						switch {
						case gerr != nil:
							unsat++
						case g != nil:
							switches++
							active = g.Selected.Path.ID
						default:
							stays++
						}
						if got.evaluations.Load() != want.evaluations.Load() || got.unsat.Load() != want.unsat.Load() || got.lastCheck != want.lastCheck {
							t.Fatalf("tick %d: %d evaluations, %d unsat, schedule at %d; reference %d, %d, %d", tick,
								got.evaluations.Load(), got.unsat.Load(), got.lastCheck, want.evaluations.Load(), want.unsat.Load(), want.lastCheck)
						}
						if got.lastDeliv != want.lastDeliv || !slices.Equal(got.last, want.last) {
							t.Fatalf("tick %d: window baseline %d %v, reference %d %v", tick, got.lastDeliv, got.last, want.lastDeliv, want.last)
						}
					}
					t.Logf("%d switches, %d stays, %d unsatisfiable", switches, stays, unsat)
					if switches < 10 || stays < 100 || wrapped != (unsat > 0) {
						t.Errorf("windows too tame: %d switches, %d stays, %d unsatisfiable", switches, stays, unsat)
					}
				})
			}
		}
	}
}

// sameAnswer compares one tick's answers: both stay, both fail with the same
// fatal sets, or both compile to the same layout with bit-identical totals
// and equal per-tenant scoring and accessor tables.
func sameAnswer(t *testing.T, tick int, g *core.JointResult, gerr error, w *core.JointResult, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || (g == nil) != (w == nil) {
		t.Fatalf("tick %d: answer %v / %v, reference %v / %v", tick, g != nil, gerr, w != nil, werr)
	}
	if gerr != nil {
		var gu, wu *core.UnsatisfiableError
		if !errors.As(gerr, &gu) || !errors.As(werr, &wu) || !reflect.DeepEqual(gu, wu) {
			t.Fatalf("tick %d: error %v, reference %v", tick, gerr, werr)
		}
		return
	}
	if g == nil {
		return
	}
	bits := math.Float64bits
	if g.Selected.Path != w.Selected.Path || len(g.PerTenant) != len(w.PerTenant) {
		t.Fatalf("tick %d: path %d for %d tenants, reference %d for %d", tick, g.Selected.Path.ID, len(g.PerTenant), w.Selected.Path.ID, len(w.PerTenant))
	}
	for pi := range w.Scored {
		if gs, ws := g.Scored[pi], w.Scored[pi]; bits(gs.Total) != bits(ws.Total) || bits(gs.SoftCost) != bits(ws.SoftCost) {
			t.Fatalf("tick %d: scored[%d] = %+v, reference %+v", tick, pi, gs, ws)
		}
	}
	for ti := range w.PerTenant {
		gr, wr := g.PerTenant[ti], w.PerTenant[ti]
		if gr.Intent != wr.Intent || !reflect.DeepEqual(gr.Accessors, wr.Accessors) || !reflect.DeepEqual(gr.Config, wr.Config) {
			t.Fatalf("tick %d tenant %d: accessors %+v, reference %+v", tick, ti, gr.Accessors, wr.Accessors)
		}
		for pi := range wr.Scored {
			if gs, ws := gr.Scored[pi], wr.Scored[pi]; bits(gs.Total) != bits(ws.Total) || !slices.Equal(gs.Missing, ws.Missing) {
				t.Fatalf("tick %d tenant %d: scored[%d] = %+v, reference %+v", tick, ti, pi, gs, ws)
			}
		}
	}
}
