package core_test

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
	"opendesc/internal/semantics"
)

// solveCase is one joint problem decoded from a byte string, so the seeded
// test and the fuzz target draw from the same space: a NIC, 1–4 tenants each
// with a subset of the registry, a weight (zero and negative mean 1) and a
// cost per semantic (zeros, +Inf, small integers that tie, fractions whose
// sum depends on the order it is taken in) given either as the tenant's own
// model or as the compile's base model under random @cost overrides, and an α
// of −1, 0, 0.5 or 1.
type solveCase struct {
	model   *nic.Model
	tenants []core.TenantIntent
	opts    core.SelectOptions
}

func decodeSolveCase(data []byte) solveCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	cost := func(b byte) float64 {
		switch {
		case b%16 == 1:
			return math.Inf(1)
		case b%4 == 0:
			return 0
		case b%4 == 2:
			return float64(b >> 4)
		}
		return float64(b)/7 + 0.1
	}
	table := func() semantics.CostModel {
		m := map[semantics.Name]float64{}
		for _, s := range semantics.Default.Names() {
			m[s] = cost(next())
		}
		return func(s semantics.Name) float64 { return m[s] }
	}
	models := nic.All()
	c := solveCase{model: models[int(next())%len(models)]}
	c.opts.Alpha = []float64{-1, 0, 0.5, 1}[next()%4]
	if next()%2 == 0 {
		c.opts.Costs = table()
	}
	names := semantics.Default.Names()
	for ti, n := 0, 1+int(next())%4; ti < n; ti++ {
		it := &core.Intent{Name: fmt.Sprintf("t%d", ti)}
		for _, s := range names {
			if next()%3 != 0 && !(len(it.Fields) == 0 && s == names[len(names)-1]) {
				continue
			}
			f := core.IntentField{FieldName: string(s), Semantic: s, WidthBits: 8, CostOverride: -1}
			if b := next(); b%8 == 0 {
				f.CostOverride = float64(b >> 3)
			}
			it.Fields = append(it.Fields, f)
		}
		// Intent order is not name order: the solver must sort, not assume.
		slices.Reverse(it.Fields)
		t := core.TenantIntent{Tenant: it.Name, Intent: it}
		switch b := next(); b % 4 {
		case 0:
			t.Weight = 0
		case 1:
			t.Weight = -1
		default:
			t.Weight = float64(b) / 10
		}
		if next()%2 == 0 {
			t.Costs = table()
		}
		c.tenants = append(c.tenants, t)
	}
	return c
}

// outcome classifies a checked case for the coverage assertion.
type outcome struct{ unsat, tie bool }

// checkSolveCase runs the solver and the oracle on one case and compares what
// they decide bit for bit: the winner, every joint and per-tenant total (by
// math.Float64bits — NaN-safe and sign-of-zero-exact), the Missing lists and
// the fatal sets of an unsatisfiable case.
func checkSolveCase(t *testing.T, c solveCase) outcome {
	t.Helper()
	a, err := c.model.Analysis(core.EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	best, joint, per, werr := core.JointOracle(a.Graph.Control, a.Paths, c.tenants, c.opts)
	jr, err := a.CompileJoint(c.model.Name, c.tenants, core.CompileOptions{Select: c.opts})
	if werr != nil {
		var wu, gu *core.UnsatisfiableError
		if !errors.As(werr, &wu) || !errors.As(err, &gu) {
			t.Fatalf("errors %v / %v, want two UnsatisfiableErrors", werr, err)
		}
		if gu.Control != wu.Control || !reflect.DeepEqual(gu.MissingEverywhere, wu.MissingEverywhere) {
			t.Fatalf("fatal sets %v, oracle %v", gu.MissingEverywhere, wu.MissingEverywhere)
		}
		return outcome{unsat: true}
	}
	if err != nil {
		t.Fatalf("oracle selects path %d, solver: %v", a.Paths[best].ID, err)
	}
	bits := math.Float64bits
	if jr.Selected.Path != a.Paths[best] || !reflect.DeepEqual(jr.Config, a.Paths[best].Constraints) {
		t.Fatalf("selected path %d, oracle %d", jr.Selected.Path.ID, a.Paths[best].ID)
	}
	var out outcome
	for pi, w := range joint {
		g := jr.Scored[pi]
		if g.Path != w.Path || bits(g.Total) != bits(w.Total) || bits(g.SoftCost) != bits(w.SoftCost) || bits(g.DMACost) != bits(w.DMACost) {
			t.Fatalf("joint scored[%d] = %+v, oracle %+v", pi, g, w)
		}
		out.tie = out.tie || (pi != best && w.Total == joint[best].Total)
	}
	for ti, res := range jr.PerTenant {
		if res.Selected.Path != a.Paths[best] || len(res.Scored) != len(per[ti]) || len(res.Accessors) != len(c.tenants[ti].Intent.Fields) {
			t.Fatalf("tenant %d: pinned to path %d with %d rows and %d accessors", ti, res.Selected.Path.ID, len(res.Scored), len(res.Accessors))
		}
		for pi, w := range per[ti] {
			g := res.Scored[pi]
			if g.Path != w.Path || bits(g.Total) != bits(w.Total) || bits(g.SoftCost) != bits(w.SoftCost) ||
				bits(g.DMACost) != bits(w.DMACost) || !slices.Equal(g.Missing, w.Missing) {
				t.Fatalf("tenant %d scored[%d] = %+v, oracle %+v", ti, pi, g, w)
			}
		}
		for _, acc := range res.Accessors {
			if acc.Hardware == slices.Contains(res.Selected.Missing, acc.Semantic) {
				t.Fatalf("tenant %d: accessor %+v against missing %v", ti, acc, res.Selected.Missing)
			}
		}
	}
	return out
}

// TestSolveMatchesOracle drives the solver and the retained set-arithmetic
// solver over 3 000 seeded random cases across the six NICs.
func TestSolveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var solved, unsat, ties int
	for i := 0; i < 3000; i++ {
		data := make([]byte, 256)
		rng.Read(data)
		data[0] = byte(i) // every NIC in turn
		switch out := checkSolveCase(t, decodeSolveCase(data)); {
		case out.unsat:
			unsat++
		default:
			solved++
			if out.tie {
				ties++
			}
		}
	}
	t.Logf("%d solved (%d with a tied runner-up), %d unsatisfiable", solved, ties, unsat)
	if solved < 300 || unsat < 300 || ties < 30 {
		t.Errorf("case mix too tame: %d solved, %d tied, %d unsatisfiable", solved, ties, unsat)
	}
}

func FuzzSolveMatchesOracle(f *testing.F) {
	rng := rand.New(rand.NewSource(7919))
	for i := 0; i < 12; i++ {
		data := make([]byte, 256)
		rng.Read(data)
		data[0] = byte(i)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkSolveCase(t, decodeSolveCase(data)) })
}
