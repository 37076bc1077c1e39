package tenant_test

import (
	"fmt"
	"testing"
	"time"

	"opendesc/internal/tenant"
	"opendesc/internal/workload"
)

// BenchmarkRxPoll measures the single-threaded per-packet cost of the serving
// plane: classify + steer + DMA on Rx, ring consume + accessor read on Poll.
// The one-packet arms (tenants=N) poll after every Rx, so whatever a poll
// settles at its boundary is paid per packet there: they guard that work
// against growing with the number of configured tenants. The burst arms poll
// once per 32 packets, as cmd/benchmark's tenants_zipf does, and also report
// the poll side alone (poll-ns/pkt; the clock is read per burst).
func BenchmarkRxPoll(b *testing.B) {
	for _, arm := range []struct{ tenants, burst int }{{1, 1}, {16, 1}, {1, 32}, {16, 32}} {
		name := fmt.Sprintf("tenants=%d", arm.tenants)
		if arm.burst > 1 {
			name += fmt.Sprintf("/burst=%d", arm.burst)
		}
		b.Run(name, func(b *testing.B) {
			specs := make([]tenant.Spec, arm.tenants)
			for i := range specs {
				specs[i] = tenant.Spec{
					Name:      fmt.Sprintf("t%02d", i),
					Semantics: []string{"rss", "pkt_len"},
				}
			}
			p, err := tenant.Open(tenant.Options{NIC: "mlx5", Cores: 1, RingEntries: 512}, specs...)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := workload.GenerateZipf(workload.ZipfSpec{
				Packets: 512, Flows: 1 << 20, Skew: 1.1, Tenants: arm.tenants, Seed: 7,
			})
			if err != nil {
				b.Fatal(err)
			}
			h := func(d tenant.Delivery) { d.Get("rss") }
			timed := arm.burst > 1 // two clock reads per poll would be a tenth of a one-packet op
			var pollNs time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += arm.burst {
				n := min(arm.burst, b.N-i)
				for j := 0; j < n; j++ {
					if !p.Rx(tr.Packets[(i+j)%len(tr.Packets)]) {
						b.Fatal("ring full")
					}
				}
				var t0 time.Time
				if timed {
					t0 = time.Now()
				}
				if got := p.PollCore(0, h); got != n {
					b.Fatalf("poll returned %d, want %d", got, n)
				}
				if timed {
					pollNs += time.Since(t0)
				}
			}
			if timed {
				b.ReportMetric(float64(pollNs.Nanoseconds())/float64(b.N), "poll-ns/pkt")
			}
		})
	}
}
