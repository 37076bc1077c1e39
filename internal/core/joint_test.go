package core

import (
	"errors"
	"math"
	"testing"

	"opendesc/internal/semantics"
)

func jointTenants(t *testing.T) []TenantIntent {
	t.Helper()
	return []TenantIntent{
		{Tenant: "a", Intent: intentOf(t, semantics.RSS)},
		{Tenant: "b", Intent: intentOf(t, semantics.IPChecksum)},
	}
}

func TestCompileJointServesBothTenants(t *testing.T) {
	jr, err := CompileJoint("e1000", e1000Info(t), jointTenants(t), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(jr.PerTenant) != 2 {
		t.Fatalf("per-tenant results = %d, want 2", len(jr.PerTenant))
	}
	for i, res := range jr.PerTenant {
		if res.Selected.Path.ID != jr.Selected.Path.ID {
			t.Errorf("tenant %d pinned to path %d, joint selected %d",
				i, res.Selected.Path.ID, jr.Selected.Path.ID)
		}
		if len(res.Accessors) != len(res.Intent.Fields) {
			t.Errorf("tenant %d: %d accessors for %d intent fields",
				i, len(res.Accessors), len(res.Intent.Fields))
		}
	}
	// The two intents live on different e1000 paths, so exactly one tenant
	// ends up on a software shim.
	hwA := jr.PerTenant[0].Accessor(semantics.RSS).Hardware
	hwB := jr.PerTenant[1].Accessor(semantics.IPChecksum).Hardware
	if hwA == hwB {
		t.Errorf("rss hardware=%v, ip_checksum hardware=%v; want exactly one hardware", hwA, hwB)
	}
}

// TestCompileJointWeightTipsSelection pins both tenants' cost models so the
// joint optimum provably flips with the traffic weights.
func TestCompileJointWeightTipsSelection(t *testing.T) {
	flat := func(c float64) semantics.CostModel {
		return func(semantics.Name) float64 { return c }
	}
	tenants := jointTenants(t)
	tenants[0].Costs = flat(18)  // tenant a pays 18 when rss is missing
	tenants[1].Costs = flat(100) // tenant b pays 100 when ip_checksum is missing

	// Equal weights: stranding tenant b costs 100, stranding tenant a costs
	// 18 ⇒ the ip_checksum path must win.
	jr, err := CompileJoint("e1000", e1000Info(t), tenants, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if jr.Selected.Path.Prov().Has(semantics.RSS) {
		t.Errorf("equal weights selected the rss path (total %.1f)", jr.Selected.Total)
	}

	// Tenant a carrying 20× the traffic: 20·18 = 360 > 100 ⇒ flips to rss.
	tenants[0].Weight = 20
	jr, err = CompileJoint("e1000", e1000Info(t), tenants, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !jr.Selected.Path.Prov().Has(semantics.RSS) {
		t.Errorf("weighted joint objective did not flip to the rss path (total %.1f)", jr.Selected.Total)
	}
}

func TestCompileJointObjectiveBreakdown(t *testing.T) {
	tenants := jointTenants(t)
	tenants[0].Weight = 3
	jr, err := CompileJoint("e1000", e1000Info(t), tenants, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for pi, js := range jr.Scored {
		soft := 3*jr.PerTenant[0].Scored[pi].SoftCost + 1*jr.PerTenant[1].Scored[pi].SoftCost
		if math.Abs(soft-js.SoftCost) > 1e-9 {
			t.Errorf("path %d: SoftCost %.3f, want weighted sum %.3f", js.Path.ID, js.SoftCost, soft)
		}
		if math.Abs(js.SoftCost+js.DMACost-js.Total) > 1e-9 {
			t.Errorf("path %d: Total %.3f ≠ Soft %.3f + DMA %.3f", js.Path.ID, js.Total, js.SoftCost, js.DMACost)
		}
		if js.Total < jr.Selected.Total {
			t.Errorf("path %d total %.3f beats selected %.3f", js.Path.ID, js.Total, jr.Selected.Total)
		}
	}
}

// TestCompileJointSingleTenantMatchesCompile: with one tenant the joint
// solver must degenerate to the single-intent Eq. 1 optimization.
func TestCompileJointSingleTenantMatchesCompile(t *testing.T) {
	intent := intentOf(t, semantics.RSS, semantics.PktLen)
	single, err := Compile("e1000", e1000Info(t), intent, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jr, err := CompileJoint("e1000", e1000Info(t), []TenantIntent{{Tenant: "solo", Intent: intent}}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if jr.Selected.Path.ID != single.Selected.Path.ID {
		t.Errorf("joint selected path %d, single compile %d", jr.Selected.Path.ID, single.Selected.Path.ID)
	}
	if jr.Selected.Total != single.Selected.Total {
		t.Errorf("joint total %.3f, single total %.3f", jr.Selected.Total, single.Selected.Total)
	}
	if len(jr.PerTenant[0].Accessors) != len(single.Accessors) {
		t.Errorf("accessor tables differ: %d vs %d", len(jr.PerTenant[0].Accessors), len(single.Accessors))
	}
}

func TestCompileJointUnsatisfiable(t *testing.T) {
	// One tenant demanding timestamp (w=∞, never emitted by e1000) poisons
	// every path even when a neighbor is satisfiable.
	tenants := []TenantIntent{
		{Tenant: "ok", Intent: intentOf(t, semantics.PktLen)},
		{Tenant: "doomed", Intent: intentOf(t, semantics.Timestamp)},
	}
	_, err := CompileJoint("e1000", e1000Info(t), tenants, CompileOptions{})
	var unsat *UnsatisfiableError
	if !errors.As(err, &unsat) {
		t.Fatalf("err = %v, want UnsatisfiableError", err)
	}
}

func TestCompileJointNoTenants(t *testing.T) {
	if _, err := CompileJoint("e1000", e1000Info(t), nil, CompileOptions{}); err == nil {
		t.Fatal("expected error for empty tenant list")
	}
}
