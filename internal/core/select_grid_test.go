package core_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/semantics"
)

// TestOneTenantJointMatchesSelectPath checks the joint solver's one-tenant
// case — what (*Analysis).Compile now is — against the retained single-intent
// solver on the six bundled NICs × cmd/benchmark's four compile_open intents
// plus one no shim can serve × α ∈ {default, none, 64}: the same selected
// path, every Scored row equal field by field, and the same per-path fatal
// sets when the intent is unsatisfiable. The α = none column makes whole
// groups of paths tie at their software cost, so the tie-break is compared
// too.
func TestOneTenantJointMatchesSelectPath(t *testing.T) {
	intents := [][]semantics.Name{
		{"rss"},
		{"rss", "vlan", "pkt_len"},
		{"ip_checksum", "vlan", "rss", "kv_key"},
		{"rss", "vlan", "pkt_len", "ip_checksum", "l4_checksum", "ptype", "flow_id", "l4_dst_port"},
		{"rss", semantics.Timestamp, semantics.Mark},
	}
	var ties, unsat int
	for _, m := range nic.All() {
		a, err := core.Analyze(m.Info, core.EnumerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, sems := range intents {
			it, err := core.IntentFromSemantics(fmt.Sprintf("grid%d", i), semantics.Default, sems...)
			if err != nil {
				t.Fatal(err)
			}
			for _, alpha := range []float64{0, -1, 64} {
				label := fmt.Sprintf("%s %v alpha=%v", m.Name, sems, alpha)
				sel := core.SelectOptions{Alpha: alpha}
				want, wantScored, werr := core.SelectPath(a.Graph.Control, a.Paths, it.Req(), sel)
				jr, jerr := a.CompileJoint(m.Name, []core.TenantIntent{{Intent: it}}, core.CompileOptions{Select: sel})
				res, cerr := a.Compile(m.Name, it, core.CompileOptions{Select: sel})

				if werr != nil {
					unsat++
					var wu, ju, cu *core.UnsatisfiableError
					if !errors.As(werr, &wu) || !errors.As(jerr, &ju) || !errors.As(cerr, &cu) {
						t.Fatalf("%s: errors %v / %v / %v, want three UnsatisfiableErrors", label, werr, jerr, cerr)
					}
					if ju.Control != wu.Control || !reflect.DeepEqual(ju.MissingEverywhere, wu.MissingEverywhere) {
						t.Errorf("%s: joint fatal sets %v, oracle %v", label, ju.MissingEverywhere, wu.MissingEverywhere)
					}
					if cu.Error() != wu.Error() || cerr.Error() != "opendesc "+m.Name+": "+werr.Error() {
						t.Errorf("%s: Compile says %q, oracle %q", label, cerr, werr)
					}
					continue
				}
				if jerr != nil || cerr != nil {
					t.Fatalf("%s: oracle selects path %d, joint: %v, Compile: %v", label, want.Path.ID, jerr, cerr)
				}
				if res != jr.PerTenant[0] && !reflect.DeepEqual(res, jr.PerTenant[0]) {
					t.Errorf("%s: Compile is not the one-tenant joint result", label)
				}
				if jr.Selected.Path != want.Path || jr.Selected.Total != want.Total ||
					jr.Selected.SoftCost != want.SoftCost || jr.Selected.DMACost != want.DMACost {
					t.Errorf("%s: joint selected %+v, oracle %+v", label, jr.Selected, want)
				}
				if !reflect.DeepEqual(jr.Config, want.Path.Constraints) {
					t.Errorf("%s: config %v, oracle %v", label, jr.Config, want.Path.Constraints)
				}
				if !sameScored(res.Selected, want) || len(res.Scored) != len(wantScored) || len(jr.Scored) != len(wantScored) {
					t.Fatalf("%s: selected %+v of %d, oracle %+v of %d", label, res.Selected, len(res.Scored), want, len(wantScored))
				}
				for pi, ws := range wantScored {
					if !sameScored(res.Scored[pi], ws) {
						t.Errorf("%s: scored[%d] = %+v, oracle %+v", label, pi, res.Scored[pi], ws)
					}
					js := jr.Scored[pi]
					if js.Path != ws.Path || js.Total != ws.Total || js.SoftCost != ws.SoftCost || js.DMACost != ws.DMACost {
						t.Errorf("%s: joint scored[%d] = %+v, oracle %+v", label, pi, js, ws)
					}
					if ws.Path != want.Path && ws.Total == want.Total {
						ties++
					}
				}
			}
		}
	}
	if ties == 0 || unsat == 0 {
		t.Errorf("grid too tame: %d tied totals, %d unsatisfiable cells", ties, unsat)
	}
}

func sameScored(a, b core.Scored) bool {
	return a.Path == b.Path && a.SoftCost == b.SoftCost && a.DMACost == b.DMACost && a.Total == b.Total &&
		slices.Equal(a.Missing, b.Missing)
}
