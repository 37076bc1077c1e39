package main

// The -tenants demo: one multi-tenant serving plane (DESIGN.md S24) over a
// simulated multi-queue device. N tenants declare different intents, one
// joint Eq. 1 compile picks the device configuration, Zipf traffic is RSS-
// sharded across per-core queues, and tenant 0 renegotiates mid-run to show
// a live switchover that neighbors never notice.

import (
	"fmt"

	"opendesc"
	"opendesc/internal/obs"
	"opendesc/internal/workload"
)

// demoProfiles are the intent mixes tenants cycle through.
var demoProfiles = [][]string{
	{"rss", "pkt_len"},
	{"ip_checksum", "pkt_len"},
	{"pkt_len", "ptype"},
	{"rss", "vlan"},
}

// runTenants drives the multi-tenant serving-plane demo.
func runTenants(nicName string, tenants, packets int, statsAddr string, dump bool) {
	cores := tenants
	if cores > 4 {
		cores = 4
	}
	specs := make([]opendesc.TenantSpec, tenants)
	for i := range specs {
		specs[i] = opendesc.TenantSpec{
			Name:      fmt.Sprintf("tenant%02d", i),
			Semantics: demoProfiles[i%len(demoProfiles)],
		}
	}
	plane, err := opendesc.OpenTenants(opendesc.TenantOptions{NIC: nicName, Cores: cores}, specs...)
	if err != nil {
		fatal(err)
	}

	reg := obs.NewRegistry()
	plane.RegisterMetrics(reg)
	if statsAddr != "" {
		addr, _, err := reg.Serve(statsAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("stats endpoint: http://%s/metrics (Prometheus), http://%s/debug/vars (JSON)\n", addr, addr)
	}

	tr, err := workload.GenerateZipf(workload.ZipfSpec{
		Packets: packets,
		Flows:   1 << 20,
		Skew:    1.1,
		Tenants: tenants,
		Seed:    42,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("serving %d tenants on %d cores over simulated %s: %d Zipf(1.1) packets, %d flows\n",
		tenants, cores, nicName, len(tr.Packets), 1<<20)
	half := len(tr.Packets) / 2
	for i, p := range tr.Packets {
		if i == half {
			fmt.Printf("pkt %5d: --- tenant00 renegotiates: %v -> [rss pkt_len flow_id] ---\n",
				i, specs[0].Semantics)
			if err := plane.Renegotiate("tenant00", "rss", "pkt_len", "flow_id"); err != nil {
				fatal(err)
			}
		}
		for !plane.Rx(p) { // ring full: drain every core, then retry
			for c := 0; c < cores; c++ {
				plane.PollCore(c, func(opendesc.TenantDelivery) {})
			}
		}
		if i%8 == 7 {
			for c := 0; c < cores; c++ {
				plane.PollCore(c, func(d opendesc.TenantDelivery) {
					d.Get(demoProfiles[d.Tenant%len(demoProfiles)][0])
				})
			}
		}
	}
	plane.Drain(func(opendesc.TenantDelivery) {})

	st := plane.Stats()
	fmt.Printf("\n%-10s %6s %10s %10s %12s\n", "tenant", "port", "accepted", "delivered", "p99 latency")
	for _, ts := range st.Tenants {
		fmt.Printf("%-10s %6d %10d %10d %10.0fns\n", ts.Name, ts.Port, ts.Accepted, ts.Delivered, ts.P99)
	}
	fmt.Printf("\ngeneration=%d renegotiations=%d (fast=%d) rollbacks=%d drained=%d steals=%d\n",
		st.Generation, st.Renegs, st.FastRenegs, st.Rollbacks, st.Drained, st.Steals)
	fmt.Printf("Jain service fairness: %.4f\n", plane.Fairness())
	if dump {
		fmt.Printf("\nplane counters:\n%s", reg.Table())
	}
	for _, ts := range st.Tenants {
		if ts.Accepted != ts.Delivered {
			fatal(fmt.Errorf("tenant %s: accepted %d != delivered %d", ts.Name, ts.Accepted, ts.Delivered))
		}
	}
}
