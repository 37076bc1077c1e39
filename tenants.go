package opendesc

import (
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/tenant"
)

// Multi-tenant serving plane (S24): N applications share one NIC through a
// single jointly-compiled metadata interface. See internal/tenant for the
// mechanics; this file re-exports the plane as public API.
type (
	// TenantSpec declares one tenant of a serving plane: a name, a
	// metadata intent, and the UDP destination port that classifies the
	// tenant's traffic.
	TenantSpec = tenant.Spec
	// TenantOptions sizes a serving plane: NIC model, core/queue count, ring
	// depth and clock.
	TenantOptions = tenant.Options
	// ServingPlane is an open multi-tenant plane: Rx classifies and
	// RSS-steers packets, PollCore runs a per-core delivery loop with work
	// stealing, Renegotiate hot-swaps one tenant's intent without
	// disturbing its neighbors.
	ServingPlane = tenant.Plane
	// TenantDelivery is one packet handed to a tenant inside PollCore: a
	// pointer to the shard's view of the delivery in progress, valid only
	// for the handler call (the Meta contract).
	TenantDelivery = *tenant.Delivery
	// TenantStats is one tenant's delivery snapshot.
	TenantStats = tenant.TenantStats
	// PlaneStats is a point-in-time snapshot of a serving plane.
	PlaneStats = tenant.Stats
	// TenantIntent is one tenant's entry in a joint compilation.
	TenantIntent = core.TenantIntent
	// JointResult is a joint Eq. 1 compilation over several tenants: one
	// selected device configuration plus a per-tenant accessor/shim split.
	JointResult = core.JointResult
)

// OpenTenants opens a multi-tenant serving plane: it solves the joint
// Eq. 1 optimization across every tenant's intent for one shared device
// configuration, programs one RSS-sharded queue per core, and builds each
// tenant its own accessor/shim split.
//
//	p, err := opendesc.OpenTenants(opendesc.TenantOptions{Cores: 4},
//	    opendesc.TenantSpec{Name: "lb", Semantics: []string{"rss", "pkt_len"}},
//	    opendesc.TenantSpec{Name: "fw", Semantics: []string{"ip_checksum"}},
//	)
//	...
//	p.Rx(packet)                     // classify + steer (the simulated wire)
//	p.PollCore(0, func(d opendesc.TenantDelivery) {
//	    hash, _ := d.Get("rss")
//	    ...
//	})
func OpenTenants(opts TenantOptions, specs ...TenantSpec) (*ServingPlane, error) {
	return tenant.Open(opts, specs...)
}

// CompileJoint solves the joint Eq. 1 optimization over several tenants'
// intents against a bundled NIC model, without opening a device: one
// configuration, per-tenant accessor splits. Use it to inspect what a
// serving plane would program.
func CompileJoint(nicName string, tenants []TenantIntent, opts CompileOptions) (*JointResult, error) {
	m, err := nic.Load(nicName)
	if err != nil {
		return nil, err
	}
	return m.CompileJoint(tenants, opts)
}

// JainFairness computes Jain's fairness index (Σx)²/(n·Σx²) over per-tenant
// shares — 1.0 is perfectly fair, 1/n is maximally unfair.
func JainFairness(shares []float64) float64 { return tenant.JainFairness(shares) }
