package opendesc

import (
	"strings"
	"sync"
	"testing"

	"opendesc/internal/faults"
	"opendesc/internal/obs"
	"opendesc/internal/pkt"
)

// TestTwoDriversOneEndpointNamespaced: two concurrently-open drivers share
// one stats registry, each under its own label namespace. Every series must
// appear for both drivers, with zero collisions, while traffic and scrapes
// race (the test matters under -race: scrape iterates the same store the
// datapaths update).
func TestTwoDriversOneEndpointNamespaced(t *testing.T) {
	a, err := Open("mlx5", "rss", "pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open("mlx5", "vlan", "pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	a.RegisterMetrics(reg.WithLabels(obs.L("driver", "a")))
	b.RegisterMetrics(reg.WithLabels(obs.L("driver", "b")))
	if got := reg.Collisions(); got != 0 {
		t.Fatalf("collisions = %d; namespaced drivers must not collide", got)
	}

	// One goroutine per driver (the datapath is single-consumer); the
	// scrapers below race against both datapaths through the shared store.
	packet := pkt.NewBuilder().WithTCP(443, 5555, 0x18).WithPayload([]byte("x")).Build()
	var wg sync.WaitGroup
	var scrapes [8]string
	for _, drv := range []*Driver{a, b} {
		wg.Add(1)
		go func(d *Driver) {
			defer wg.Done()
			for j := 0; j < 128; j++ {
				d.Rx(packet)
				d.Poll(func([]byte, Meta) {})
			}
		}(drv)
	}
	for i := range scrapes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sb strings.Builder
			reg.WritePrometheus(&sb)
			scrapes[i] = sb.String()
		}(i)
	}
	wg.Wait()

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`opendesc_dev_rx_packets_total{nic="mlx5",driver="a"}`,
		`opendesc_dev_rx_packets_total{nic="mlx5",driver="b"}`,
		`opendesc_ring_occupancy{nic="mlx5",ring="cmpt",driver="a"}`,
		`opendesc_ring_occupancy{nic="mlx5",ring="cmpt",driver="b"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %s", want)
		}
	}
	if reg.Collisions() != 0 {
		t.Errorf("collisions = %d after traffic", reg.Collisions())
	}
}

// TestTwoDriversOneEndpointBare: two drivers registering with identical
// names and labels on one registry must not silently drop or double-count
// either one — the second registration is disambiguated with an instance
// label and both data sources stay visible.
func TestTwoDriversOneEndpointBare(t *testing.T) {
	a, err := Open("e1000e", "rss", "pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open("e1000e", "rss", "pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	a.RegisterMetrics(reg)
	b.RegisterMetrics(reg)
	if reg.Collisions() == 0 {
		t.Fatal("identical registrations reported no collisions")
	}

	packet := pkt.NewBuilder().WithTCP(80, 2000, 0x18).Build()
	for i := 0; i < 3; i++ {
		a.Rx(packet)
	}
	a.Poll(func([]byte, Meta) {})
	b.Rx(packet)
	b.Poll(func([]byte, Meta) {})

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	if !strings.Contains(out, `opendesc_dev_rx_packets_total{nic="e1000e"} 3`) {
		t.Errorf("first driver's counter lost:\n%s", grep(out, "rx_packets"))
	}
	if !strings.Contains(out, `opendesc_dev_rx_packets_total{nic="e1000e",instance="1"} 1`) {
		t.Errorf("second driver's counter not instance-disambiguated:\n%s", grep(out, "rx_packets"))
	}
}

// grep filters scrape output lines for failure messages.
func grep(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestEveryDriverRegistersOneSeriesSet: whatever a driver was opened with,
// RegisterMetrics exposes the same queue series — device, flight latency,
// hardening once armed, the fault injector once attached — and an evolving
// driver adds the control-plane series beside them rather than instead.
func TestEveryDriverRegistersOneSeriesSet(t *testing.T) {
	intent, err := NewIntent("metrics", "rss", "vlan", "pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	queue := []string{
		"opendesc_dev_rx_packets_total", "opendesc_flight_dma_to_poll_ns",
		"opendesc_driver_quarantined_total", "opendesc_driver_degraded", "opendesc_faults_injected_total",
	}
	for _, c := range []struct {
		name   string
		evolve *EvolveOptions
		want   []string
	}{
		{"hardened", nil, queue},
		{"hardened+evolving", &EvolveOptions{}, append([]string{"opendesc_evolve_switchovers_total", "opendesc_evolve_generation"}, queue...)},
	} {
		drv, err := OpenWith("e1000e", intent, OpenOptions{Evolve: c.evolve, Harden: &HardenOptions{}})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		drv.InjectFaults(faults.New(faults.Plan{Seed: 1}))
		reg := obs.NewRegistry()
		drv.RegisterMetrics(reg, obs.L("driver", c.name))
		table := reg.Table()
		for _, want := range c.want {
			if !strings.Contains(table, want) {
				t.Errorf("%s driver does not expose %s", c.name, want)
			}
		}
		if reg.Collisions() != 0 {
			t.Errorf("%s driver registered a series twice", c.name)
		}
	}
}
