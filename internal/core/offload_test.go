package core

import (
	"strings"
	"testing"

	"opendesc/internal/semantics"
)

// e1000Info and intentOf come from core_test.go.

func TestPlanOffloadsFixedFunctionAllSoftware(t *testing.T) {
	res, err := coldCompile("e1000e", e1000Info(t), intentOf(t, semantics.RSS, semantics.IPChecksum), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanOffloads(res, PipelineCaps{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Pushed(); len(got) != 0 {
		t.Errorf("fixed-function NIC pushed %v", got)
	}
	if got := plan.Software(); len(got) != 1 || got[0] != semantics.RSS {
		t.Errorf("software = %v, want [rss]", got)
	}
	if plan.HostCost <= 0 {
		t.Errorf("host cost = %v", plan.HostCost)
	}
}

func TestPlanOffloadsProgrammablePushes(t *testing.T) {
	res, err := coldCompile("e1000e", e1000Info(t), intentOf(t, semantics.RSS, semantics.IPChecksum), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	caps := PipelineCaps{Programmable: true, StageBudget: 8}
	plan, err := PlanOffloads(res, caps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Pushed(); len(got) != 1 || got[0] != semantics.RSS {
		t.Errorf("pushed = %v, want [rss]", got)
	}
	if plan.StagesUsed != 2 { // ref_rss uses 2 stages
		t.Errorf("stages used = %d", plan.StagesUsed)
	}
	if plan.HostCost != 0 {
		t.Errorf("host cost after full offload = %v", plan.HostCost)
	}
}

// TestPipelineForms pins every semantic's pipeline form — stage count and
// payload flag in the registry — to the values the placement model was
// calibrated with; every other semantic has none.
func TestPipelineForms(t *testing.T) {
	want := map[semantics.Name]struct {
		stages  int
		payload bool
	}{
		semantics.RSS:         {2, false},
		semantics.IPChecksum:  {1, false},
		semantics.L4Checksum:  {1, false},
		semantics.VLAN:        {1, false},
		semantics.PType:       {1, false},
		semantics.FlowID:      {3, false},
		semantics.TunnelID:    {1, false},
		semantics.KVKey:       {4, true},
		semantics.PayloadHash: {2, true},
		semantics.IPID:        {1, false},
	}
	for _, n := range semantics.Default.Names() {
		d := semantics.Default.Lookup(n)
		if w := want[n]; d.Stages != w.stages || d.RequiresPayload != w.payload {
			t.Errorf("%s: stages %d payload %v, want %d %v", n, d.Stages, d.RequiresPayload, w.stages, w.payload)
		}
	}
}

// TestPlanOffloadsL4ChecksumOnRMT: l4_checksum runs on the checksum engine,
// so an RMT pipeline without payload externs (ice's caps) still takes it.
func TestPlanOffloadsL4ChecksumOnRMT(t *testing.T) {
	res, err := coldCompile("e1000e", e1000Info(t), intentOf(t, semantics.L4Checksum), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanOffloads(res, PipelineCaps{Programmable: true, StageBudget: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Pushed(); len(got) != 1 || got[0] != semantics.L4Checksum || plan.StagesUsed != 1 {
		t.Errorf("pushed %v in %d stages, want [l4_checksum] in 1\n%s", got, plan.StagesUsed, plan)
	}
}

func TestPlanOffloadsStageBudget(t *testing.T) {
	// Request several software-bound semantics; a 3-stage budget fits only
	// the most expensive candidates.
	res, err := coldCompile("e1000e", e1000Info(t),
		intentOf(t, semantics.RSS, semantics.IPChecksum, semantics.FlowID, semantics.TunnelID),
		CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// On the csum path: rss, flow_id, tunnel_id are missing.
	caps := PipelineCaps{Programmable: true, StageBudget: 3}
	plan, err := PlanOffloads(res, caps, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy by software cost: flow_id (35, 3 stages) first, exhausting the
	// budget; rss (18) and tunnel_id (14) stay in software.
	pushed := plan.Pushed()
	if len(pushed) != 1 || pushed[0] != semantics.FlowID {
		t.Errorf("pushed = %v, want [flow_id]", pushed)
	}
	if plan.StagesUsed != 3 {
		t.Errorf("stages = %d", plan.StagesUsed)
	}
	sw := semantics.NewSet(plan.Software()...)
	if !sw.Has(semantics.RSS) || !sw.Has(semantics.TunnelID) {
		t.Errorf("software = %v", sw)
	}
}

func TestPlanOffloadsPayloadConstraint(t *testing.T) {
	res, err := coldCompile("e1000e", e1000Info(t), intentOf(t, semantics.KVKey), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// RMT-style pipeline: no payload externs → kv_key cannot be pushed.
	rmt := PipelineCaps{Programmable: true, StageBudget: 16}
	plan, err := PlanOffloads(res, rmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Pushed()) != 0 {
		t.Errorf("payload feature pushed to RMT pipeline: %v", plan.Pushed())
	}
	// SoC/FPGA pipeline with payload externs accepts it.
	soc := PipelineCaps{Programmable: true, StageBudget: 16, PayloadExterns: true}
	plan, err = PlanOffloads(res, soc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Pushed(); len(got) != 1 || got[0] != semantics.KVKey {
		t.Errorf("pushed = %v, want [kv_key]", got)
	}
}

func TestPlanOffloadsDescriptorEntries(t *testing.T) {
	res, err := coldCompile("e1000e", e1000Info(t), intentOf(t, semantics.IPChecksum, semantics.PktLen), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanOffloads(res, PipelineCaps{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	desc := 0
	for _, e := range plan.Entries {
		if e.Placement == PlaceDescriptor {
			desc++
		}
	}
	if desc != 2 {
		t.Errorf("descriptor-served = %d, want 2\n%s", desc, plan)
	}
	if !strings.Contains(plan.String(), "descriptor") {
		t.Errorf("report:\n%s", plan)
	}
}

func TestPipelineCostFactor(t *testing.T) {
	res, err := coldCompile("e1000e", e1000Info(t), intentOf(t, semantics.RSS, semantics.IPChecksum), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	caps := PipelineCaps{Programmable: true, StageBudget: 8, PipelineCostFactor: 0.1}
	plan, err := PlanOffloads(res, caps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.HostCost <= 0 || plan.HostCost >= 18 {
		t.Errorf("residual cost = %v, want 10%% of w(rss)=18", plan.HostCost)
	}
}
