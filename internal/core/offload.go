package core

import (
	"fmt"
	"sort"
	"strings"

	"opendesc/internal/semantics"
)

// The paper's prototype "only lists the missing features ... but does not
// currently offload or compile the P4 code"; §5 sketches the next step:
// decide, per missing feature, between the software counterpart and pushing
// it into the programmable pipeline, under the device's resource
// constraints. PlanOffloads is that placement pass over a compilation
// result, as a cost model: a semantic's pipeline form is its stage count and
// payload flag in the semantics registry, not a program.

// PipelineCaps describes a NIC's programmable-pipeline resources.
type PipelineCaps struct {
	// Programmable: the device accepts pushed P4 stages at all.
	Programmable bool
	// StageBudget is the number of match-action stages available to pushed
	// features (Menshen/Pipeleon-style isolation would partition this).
	StageBudget int
	// PayloadExterns: the device has externs able to inspect payload bytes
	// (multi-core SoCs, FPGAs); RMT-style pipelines do not.
	PayloadExterns bool
	// PipelineCostFactor scales a feature's software cost to its estimated
	// residual host cost after offload (normally ~0: the NIC absorbs it).
	PipelineCostFactor float64
}

// Placement says where a requested semantic is computed.
type Placement int

// Placements.
const (
	// PlaceDescriptor: already delivered by the selected completion layout.
	PlaceDescriptor Placement = iota
	// PlacePipeline: pushed to the NIC's programmable pipeline.
	PlacePipeline
	// PlaceSoftware: SoftNIC shim on the host.
	PlaceSoftware
)

func (p Placement) String() string {
	switch p {
	case PlaceDescriptor:
		return "descriptor"
	case PlacePipeline:
		return "pipeline"
	case PlaceSoftware:
		return "software"
	}
	return "?"
}

// PlanEntry is the placement decision for one intent semantic.
type PlanEntry struct {
	Semantic  semantics.Name
	Placement Placement
	// HostCost is the residual per-packet host cost of the placement.
	HostCost float64
	// Stages is the pipeline stage usage (PlacePipeline only).
	Stages int
}

// OffloadPlan is the placement of every intent semantic.
type OffloadPlan struct {
	Entries    []PlanEntry
	StagesUsed int
	// HostCost is the total residual per-packet host cost.
	HostCost float64
}

// Pushed lists the semantics planned into the pipeline.
func (p *OffloadPlan) Pushed() []semantics.Name {
	var out []semantics.Name
	for _, e := range p.Entries {
		if e.Placement == PlacePipeline {
			out = append(out, e.Semantic)
		}
	}
	return out
}

// Software lists the semantics left to host shims.
func (p *OffloadPlan) Software() []semantics.Name {
	var out []semantics.Name
	for _, e := range p.Entries {
		if e.Placement == PlaceSoftware {
			out = append(out, e.Semantic)
		}
	}
	return out
}

// String renders a placement report.
func (p *OffloadPlan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "offload plan: %d pipeline stages used, residual host cost %.1f\n",
		p.StagesUsed, p.HostCost)
	for _, e := range p.Entries {
		fmt.Fprintf(&sb, "  %-14s -> %-10s", e.Semantic, e.Placement)
		switch e.Placement {
		case PlacePipeline:
			fmt.Fprintf(&sb, " (%d stages)", e.Stages)
		case PlaceSoftware:
			fmt.Fprintf(&sb, " (cost %.1f)", e.HostCost)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// PlanOffloads places every missing semantic of a compilation result:
// features with a pipeline form (semantics.Default's Stages > 0) go to the
// pipeline while the stage budget lasts (most expensive software cost first
// — the greedy heuristic maximizing saved host cycles); the rest stay in
// software.
func PlanOffloads(res *Result, caps PipelineCaps, costs semantics.CostModel) (*OffloadPlan, error) {
	if res == nil {
		return nil, fmt.Errorf("core: PlanOffloads needs a compilation result")
	}
	if costs == nil {
		costs = semantics.RegistryCosts(semantics.Default)
	}
	plan := &OffloadPlan{}
	// Descriptor-served semantics first, in accessor order.
	missing := make(map[semantics.Name]bool)
	for _, m := range res.Missing() {
		missing[m] = true
	}
	for _, f := range res.Intent.Fields {
		if !missing[f.Semantic] {
			plan.Entries = append(plan.Entries, PlanEntry{
				Semantic: f.Semantic, Placement: PlaceDescriptor,
			})
		}
	}
	// Candidates sorted by software cost, most expensive first.
	cand := append([]semantics.Name(nil), res.Missing()...)
	sort.Slice(cand, func(i, j int) bool { return costs(cand[i]) > costs(cand[j]) })

	budget := caps.StageBudget
	for _, s := range cand {
		d := semantics.Default.Lookup(s)
		canPush := caps.Programmable && d != nil && d.Stages > 0 && d.Stages <= budget &&
			(!d.RequiresPayload || caps.PayloadExterns)
		if canPush {
			plan.Entries = append(plan.Entries, PlanEntry{
				Semantic:  s,
				Placement: PlacePipeline,
				Stages:    d.Stages,
				HostCost:  costs(s) * caps.PipelineCostFactor,
			})
			budget -= d.Stages
			plan.StagesUsed += d.Stages
			plan.HostCost += costs(s) * caps.PipelineCostFactor
			continue
		}
		plan.Entries = append(plan.Entries, PlanEntry{
			Semantic:  s,
			Placement: PlaceSoftware,
			HostCost:  costs(s),
		})
		plan.HostCost += costs(s)
	}
	return plan, nil
}
