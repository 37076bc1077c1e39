package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"opendesc/internal/chaos"
	"opendesc/internal/tenant"
	"opendesc/internal/workload"
)

// tenantProfiles are the intent mixes E19 cycles tenants through — four
// different application shapes sharing one jointly-compiled layout.
var tenantProfiles = [][]string{
	{"rss", "pkt_len"},
	{"ip_checksum", "pkt_len"},
	{"pkt_len", "ptype"},
	{"rss", "vlan"},
}

// e19Run is one serving-plane measurement: aggregate throughput, fairness,
// and steal/renegotiation counts.
type e19Run struct {
	tenants, cores int
	elapsed        time.Duration
	fairness       float64 // Jain over per-tenant service ratios
	loadFairness   float64 // Jain over raw offered load (workload skew context)
	steals         uint64
	renegs         uint64
	delivered      uint64
}

// e19Result is the whole experiment: one serving run per plane shape and the
// tenant-isolation chaos sweep's totals (a violation fails the experiment).
type e19Result struct {
	rows                    []*e19Run
	chaosCases, chaosRenegs uint64
}

// e19Serve pushes a Zipf trace through a plane of (tenants, cores) with one
// producer goroutine and one poll goroutine per core, renegotiating tenant 0
// mid-run to show a live switchover under load loses nothing. A non-nil w
// receives the run's transcript: per-tenant rows, the plane's generation and
// renegotiation counters, and the service fairness.
func e19Serve(tenants, cores, packets int, w io.Writer) (*e19Run, error) {
	specs := make([]tenant.Spec, tenants)
	for i := range specs {
		specs[i] = tenant.Spec{
			Name:      fmt.Sprintf("tenant%02d", i),
			Semantics: tenantProfiles[i%len(tenantProfiles)],
		}
	}
	p, err := tenant.Open(tenant.Options{NIC: "mlx5", Cores: cores, RingEntries: 2048}, specs...)
	if err != nil {
		return nil, err
	}
	tr, err := workload.GenerateZipf(workload.ZipfSpec{
		Packets: packets,
		Flows:   2 << 20, // two million concurrent flows
		Skew:    1.1,
		Tenants: tenants,
		Seed:    19,
	})
	if err != nil {
		return nil, err
	}
	offered := make([]uint64, tenants)
	for _, t := range tr.TenantOf {
		offered[t]++
	}

	var done atomic.Uint64
	var renegErr atomic.Value
	var renegNs atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // producer: the simulated wire
		defer wg.Done()
		for i, pk := range tr.Packets {
			if i == len(tr.Packets)/2 {
				// Live renegotiation in the middle of the run: tenant 0
				// adds flow_id. Neighbors must not lose a packet (checked
				// below by exact conservation). The joint re-compile is
				// control-plane work, timed on its own so the datapath
				// throughput number stays a datapath number.
				t0 := time.Now()
				if err := p.Renegotiate("tenant00", "rss", "pkt_len", "flow_id"); err != nil {
					renegErr.Store(err)
					return
				}
				renegNs.Store(time.Since(t0).Nanoseconds())
			}
			for !p.Rx(pk) { // completion ring full: let consumers drain
				runtime.Gosched()
			}
		}
	}()
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func(core int) {
			defer wg.Done()
			for done.Load() < uint64(packets) {
				n := p.PollCore(core, func(d *tenant.Delivery) {
					d.Get(tenantProfiles[d.Tenant%len(tenantProfiles)][0])
				})
				if n == 0 {
					runtime.Gosched()
				} else {
					done.Add(uint64(n))
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start) - time.Duration(renegNs.Load())
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	if err, _ := renegErr.Load().(error); err != nil {
		return nil, fmt.Errorf("mid-run renegotiation: %w", err)
	}

	st := p.Stats()
	run := &e19Run{tenants: tenants, cores: cores, elapsed: elapsed}
	// Fairness of SERVICE, not of demand: Jain's index over per-tenant
	// delivered/offered ratios. The Zipf head is deliberately lopsided
	// across tenants (rank 1 belongs entirely to tenant 0) — what the plane
	// owes its tenants is that each one's traffic is served in proportion
	// to what arrived, i.e. no neighbor-induced starvation or selective
	// loss. Raw demand skew is reported separately as context.
	ratios := make([]float64, tenants)
	loads := make([]float64, tenants)
	for i, ts := range st.Tenants {
		if ts.Delivered != offered[i] || ts.Accepted != offered[i] {
			return nil, fmt.Errorf("tenant %d: offered %d, accepted %d, delivered %d (exactly-once broken)",
				i, offered[i], ts.Accepted, ts.Delivered)
		}
		ratios[i] = float64(ts.Delivered) / float64(offered[i])
		loads[i] = float64(offered[i])
		run.delivered += ts.Delivered
	}
	run.fairness = tenant.JainFairness(ratios)
	run.loadFairness = tenant.JainFairness(loads)
	run.steals = st.Steals
	run.renegs = st.Renegs + st.FastRenegs
	if w != nil {
		fmt.Fprintf(w, "serving %d tenants on %d cores over simulated mlx5: %d Zipf(1.1) packets, 2M flows; at packet %d tenant00 renegotiates %v -> [rss pkt_len flow_id]\n",
			tenants, cores, len(tr.Packets), len(tr.Packets)/2, specs[0].Semantics)
		fmt.Fprintf(w, "%-10s %6s %10s %10s %12s\n", "tenant", "port", "accepted", "delivered", "p99 latency")
		for _, ts := range st.Tenants {
			fmt.Fprintf(w, "%-10s %6d %10d %10d %10.0fns\n", ts.Name, ts.Port, ts.Accepted, ts.Delivered, ts.P99)
		}
		fmt.Fprintf(w, "generation=%d renegotiations=%d (fast=%d) rollbacks=%d drained=%d steals=%d\n",
			st.Generation, st.Renegs, st.FastRenegs, st.Rollbacks, st.Drained, st.Steals)
		fmt.Fprintf(w, "Jain service fairness: %.4f\n\n", run.fairness)
	}
	if run.renegs == 0 {
		return nil, fmt.Errorf("mid-run renegotiation did not complete")
	}
	return run, nil
}

// E19Tenants is the multi-tenant serving-plane experiment
// (EXPERIMENTS.md E19): aggregate throughput and Jain's fairness across
// tenant counts {1, 4, 16, 64} under a 2M-flow Zipf(1.1) workload, each with
// a live mid-run renegotiation, plus the S23 tenant-isolation chaos sweep.
// Throughput, steals and load fairness move with the scheduler and are
// context; delivered counts, service fairness and the chaos totals repeat
// exactly. The plane's tracked cost and latency are cmd/benchmark's
// tenants_zipf workload. A non-nil w receives each plane shape's transcript.
func E19Tenants(packets int, w io.Writer) (*Table, error) {
	res := &e19Result{}
	for _, shape := range []struct{ tenants, cores int }{
		{1, 1}, {4, 2}, {16, 4}, {64, 8},
	} {
		run, err := e19Serve(shape.tenants, shape.cores, packets, w)
		if err != nil {
			return nil, fmt.Errorf("e19 t=%d c=%d: %w", shape.tenants, shape.cores, err)
		}
		res.rows = append(res.rows, run)
	}

	// Tenant-isolation chaos sweep (S23): scripted renegotiations under
	// interleaved arrivals/polls/steals; every oracle must hold.
	sweep := func(cfg chaos.Config, seed uint64) error {
		r := chaos.Run(cfg, seed)
		res.chaosCases++
		res.chaosRenegs += r.Renegs + r.FastRenegs
		if r.Violation != nil {
			return fmt.Errorf("e19 chaos %d tenants seed=%d: %v", cfg.Tenants, seed, r.Violation)
		}
		return nil
	}
	for seed := uint64(1); seed <= 8; seed++ {
		if err := sweep(chaos.Config{Mode: chaos.ModeTenant, Tenants: 4, Queues: 2, Steps: 512}, seed); err != nil {
			return nil, err
		}
	}
	if err := sweep(chaos.Config{Mode: chaos.ModeTenant, Tenants: 16, Queues: 4, Steps: 768}, 3); err != nil {
		return nil, err
	}

	tab := &Table{
		ID: "E19",
		Title: fmt.Sprintf("multi-tenant serving plane: %d Zipf(1.1) packets over 2M flows per row, live mid-run renegotiation",
			packets),
		Header: []string{"tenants", "cores", "throughput", "fairness", "steals", "renegs"},
		Note: "one joint Eq. 1 compile per plane; per-tenant accessor/shim splits over one shared layout\n" +
			"every row renegotiates tenant 0 mid-run with exact per-tenant conservation (exactly-once held)\n" +
			"fairness = Jain over per-tenant delivered/offered service ratios (load = Jain over raw Zipf demand)",
		run: res,
	}
	for _, run := range res.rows {
		tab.AddRow(run.tenants, run.cores,
			fmt.Sprintf("%.2f Mpps", float64(run.delivered)/run.elapsed.Seconds()/1e6),
			fmt.Sprintf("%.4f (load %.2f)", run.fairness, run.loadFairness),
			run.steals, run.renegs)
	}
	tab.AddRow("chaos", "-", "-", "-", "-",
		fmt.Sprintf("%d renegs / %d cases / 0 violations", res.chaosRenegs, res.chaosCases))
	return tab, nil
}
