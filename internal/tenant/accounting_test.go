package tenant

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"opendesc/internal/obs/flight"
	"opendesc/internal/rxpath"
	"opendesc/internal/workload"
)

// countingClock counts its readers. It never reads zero and never repeats,
// so every stamp is a stamp and every latency is positive.
type countingClock struct{ reads, ns atomic.Uint64 }

func (c *countingClock) Now() uint64 {
	c.reads.Add(1)
	return c.ns.Add(1)
}
func (c *countingClock) Advance(ns uint64) { c.ns.Add(ns) }

// TestClockReadsOnGrid is the deterministic form of the tenants_zipf claim:
// the plane reads its clock for the packets on the flight sampling grid —
// once when the queue stamps one at Rx, once when it is delivered — and for
// no other, however the traffic is cut into polls. The simulated device
// stamps its timestamp semantic from the same injected clock, once per
// packet it accepts; that is the hardware's read and is subtracted.
func TestClockReadsOnGrid(t *testing.T) {
	const packets, burst = 4096, 32
	clk := &countingClock{}
	p, err := Open(Options{NIC: "mlx5", Cores: 2, RingEntries: 2048, Clock: clk}, fourTenants()...)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.GenerateZipf(workload.ZipfSpec{Packets: packets, Flows: 1 << 16, Skew: 1.1, Tenants: 4, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	before := clk.reads.Load()
	var delivered, onGrid uint64
	h := func(d *Delivery) {
		delivered++
		if flight.Sampled(rxpath.Of(d.m).Seq) {
			onGrid++
		}
	}
	for i := 0; i < packets; i += burst {
		for _, pk := range tr.Packets[i : i+burst] {
			if !p.Rx(pk) {
				t.Fatalf("rx %d refused", i)
			}
		}
		p.PollCore(0, h)
		if i == packets/2 {
			p.PollCore(0, h) // own shard just emptied: this one steals from core 1
		}
		p.PollCore(1, h)
	}
	p.Drain(h)
	st := p.Stats()
	if delivered != packets || st.Steals == 0 {
		t.Fatalf("delivered %d of %d with %d steals; the run must deliver everything and steal at least once", delivered, packets, st.Steals)
	}
	var wantGrid, observed uint64
	for _, c := range st.Cores {
		wantGrid += c.Delivered / flight.SamplePeriod
	}
	for _, ts := range p.tenants {
		observed += ts.lat.Count()
	}
	if onGrid != wantGrid || observed != onGrid {
		t.Errorf("latency observed for %d packets, %d delivered on the grid, %d expected from the per-queue counts", observed, onGrid, wantGrid)
	}
	reads := clk.reads.Load() - before - packets
	if limit := uint64(2 * ((packets + flight.SamplePeriod - 1) / flight.SamplePeriod)); reads > limit {
		t.Errorf("the plane read its clock %d times for %d packets (%d on the grid), limit %d: a per-packet read is back", reads, packets, onGrid, limit)
	}
	t.Logf("%d packets, %d on the grid: %d plane clock reads (%.3f per packet)", packets, onGrid, reads, float64(reads)/packets)
}

// TestAccountingExactAtPollBoundary holds the counters a poll publishes when
// it returns to what counting every packet would give, beside a concurrent
// scraper (run under -race). One goroutine serves E19's Zipf trace — own-shard
// polls, steals, packets parked across a layout switchover — and after every
// PollCore compares TenantStats.Delivered with its own per-packet count. The
// scraper checks that no snapshot shows a tenant more delivered than accepted
// and that no counter goes backwards.
func TestAccountingExactAtPollBoundary(t *testing.T) {
	const tenants, cores, packets, burst = 16, 4, 4096, 32
	// Narrow intents, so that asking for timestamp below changes the layout
	// (E19's own profiles already select the full completion).
	specs := make([]Spec, tenants)
	for i := range specs {
		specs[i] = Spec{Name: fmt.Sprintf("tenant%02d", i), Semantics: []string{"rss"}}
		if i%2 == 1 {
			specs[i].Semantics = []string{"pkt_len"}
		}
	}
	p, err := Open(Options{NIC: "mlx5", Cores: cores, RingEntries: 2048}, specs...)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.GenerateZipf(workload.ZipfSpec{Packets: packets, Flows: 2 << 20, Skew: 1.1, Tenants: tenants, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	wg.Add(1)
	go func() { // the scraper
		defer wg.Done()
		last := p.Stats()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := p.Stats()
			if f := p.Fairness(); f <= 0 || f > 1 {
				t.Errorf("fairness %v outside (0, 1]", f)
			}
			for i, ts := range st.Tenants {
				if ts.Delivered > ts.Accepted {
					t.Errorf("snapshot: %s delivered %d > accepted %d", ts.Name, ts.Delivered, ts.Accepted)
				}
				if ts.Delivered < last.Tenants[i].Delivered || ts.Accepted < last.Tenants[i].Accepted {
					t.Errorf("snapshot: %s went backwards: %+v after %+v", ts.Name, ts, last.Tenants[i])
				}
			}
			last = st
		}
	}()

	ref := make([]uint64, tenants) // deliveries counted one packet at a time
	var stolen uint64
	h := func(d *Delivery) {
		ref[d.Tenant]++
		if d.Stolen {
			stolen++
		}
		d.Get(specs[d.Tenant].Semantics[0])
	}
	poll := func(core int) {
		p.PollCore(core, h)
		st := p.Stats()
		for ti, want := range ref {
			if got := st.Tenants[ti].Delivered; got != want {
				t.Fatalf("after PollCore(%d): tenant %d delivered %d, counted %d", core, ti, got, want)
			}
		}
	}
	for i := 0; i < packets; i += burst {
		if i == packets/2 {
			// A layout switchover with traffic in flight: the next polls
			// deliver parked packets.
			if err := p.Renegotiate("tenant00", "rss", "timestamp"); err != nil {
				t.Fatal(err)
			}
		}
		for _, pk := range tr.Packets[i : i+burst] {
			if !p.Rx(pk) {
				t.Fatalf("rx %d refused", i)
			}
		}
		if i < packets/2 {
			continue // build the backlog the switchover parks
		}
		poll(i / burst % cores)
		poll(i / burst % cores) // own shard now empty: steals from the busiest sibling
		for c := 0; c < cores; c++ {
			poll(c)
		}
	}
	for p.Pending() > 0 {
		for c := 0; c < cores; c++ {
			poll(c)
		}
	}

	st := p.Stats()
	if st.Renegs == 0 || st.Drained == 0 || stolen == 0 {
		t.Fatalf("run too tame: %d switchovers parking %d packets, %d stolen deliveries", st.Renegs, st.Drained, stolen)
	}
	for _, ts := range st.Tenants {
		if ts.Accepted != ts.Delivered {
			t.Errorf("at quiescence %s accepted %d, delivered %d", ts.Name, ts.Accepted, ts.Delivered)
		}
	}
}
