package tenant

import (
	"runtime"
	"strings"
	"testing"

	"opendesc/internal/codegen"
	"opendesc/internal/obs"
	"opendesc/internal/pkt"
	"opendesc/internal/softnic"
	"opendesc/internal/workload"
)

func mustZipf(t *testing.T, spec workload.ZipfSpec) *workload.ZipfTrace {
	t.Helper()
	tr, err := workload.GenerateZipf(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func fourTenants() []Spec {
	return []Spec{
		{Name: "lb", Semantics: []string{"rss", "pkt_len"}},
		{Name: "fw", Semantics: []string{"ip_checksum", "pkt_len"}},
		{Name: "telemetry", Semantics: []string{"pkt_len", "ptype"}},
		{Name: "kv", Semantics: []string{"rss", "vlan"}},
	}
}

// TestPlaneEndToEnd drives a Zipf multi-tenant trace through the full
// plane: classification, RSS steering, per-core polling, per-tenant
// accessor reads, and exactly-once accounting.
func TestPlaneEndToEnd(t *testing.T) {
	p, err := Open(Options{NIC: "mlx5", Cores: 4}, fourTenants()...)
	if err != nil {
		t.Fatal(err)
	}
	tr := mustZipf(t, workload.ZipfSpec{
		Packets: 512, Flows: 1 << 20, Skew: 1.1, Tenants: 4, Seed: 9,
	})
	offered := make([]int, 4)
	for i, pk := range tr.Packets {
		if !p.Rx(pk) {
			t.Fatalf("rx rejected packet %d", i)
		}
		offered[tr.TenantOf[i]]++
	}
	if got := p.Pending(); got != 512 {
		t.Fatalf("pending = %d, want 512", got)
	}

	delivered := make([]int, 4)
	n := p.Drain(func(d Delivery) {
		delivered[d.Tenant]++
		var in pkt.Info
		if err := pkt.Decode(d.Pkt, &in); err != nil {
			t.Fatalf("delivered packet undecodable: %v", err)
		}
		if want := p.Steer(&in); d.Queue != want {
			t.Errorf("packet delivered from queue %d, steering says %d", d.Queue, want)
		}
		if d.Tenant == 0 || d.Tenant == 3 {
			hash, ok := d.Get("rss")
			if !ok || hash != uint64(softnic.RSS(&in)) {
				t.Errorf("tenant %d rss = %#x/%v, want %#x", d.Tenant, hash, ok, softnic.RSS(&in))
			}
		}
		if d.Tenant == 2 {
			l, ok := d.Get("pkt_len")
			if !ok || l != uint64(len(d.Pkt)) {
				t.Errorf("pkt_len = %d/%v, want %d", l, ok, len(d.Pkt))
			}
		}
		// A semantic outside the tenant's intent must not resolve.
		if _, ok := d.Get("timestamp"); ok {
			t.Error("timestamp resolved outside every intent")
		}
	})
	if n != 512 {
		t.Fatalf("drained %d, want 512", n)
	}
	for i := range delivered {
		if delivered[i] != offered[i] {
			t.Errorf("tenant %d: delivered %d, offered %d", i, delivered[i], offered[i])
		}
	}
	st := p.Stats()
	for i, ts := range st.Tenants {
		if ts.Accepted != uint64(offered[i]) || ts.Delivered != uint64(offered[i]) {
			t.Errorf("tenant %d stats = %+v, offered %d", i, ts, offered[i])
		}
	}
	if f := p.Fairness(); f < 0.90 {
		t.Errorf("Jain fairness = %v under round-robin Zipf sharding, want ≥ 0.90", f)
	}
	if p.Pending() != 0 {
		t.Errorf("pending after drain = %d", p.Pending())
	}

	// Traffic for no tenant is counted, not delivered.
	bad := pkt.NewBuilder().WithUDP(999, 9).Build()
	if p.Rx(bad) {
		t.Error("unclassified packet accepted")
	}
	if got := p.Stats().Unclassified; got != 1 {
		t.Errorf("unclassified = %d, want 1", got)
	}
}

// TestPlaneWorkStealing: a single elephant flow lands every packet on one
// RSS shard; an idle sibling core must steal its backlog in FIFO order.
func TestPlaneWorkStealing(t *testing.T) {
	p, err := Open(Options{NIC: "mlx5", Cores: 4}, fourTenants()...)
	if err != nil {
		t.Fatal(err)
	}
	const pkts = 8
	var victim int
	for i := 0; i < pkts; i++ {
		pk := pkt.NewBuilder().
			WithIPv4([4]byte{10, 0, 0, 1}, [4]byte{192, 168, 0, 0}).
			WithIPID(uint16(i)).
			WithUDP(7777, 20000).
			WithPayload([]byte("elephant")).
			Build()
		if i == 0 {
			var in pkt.Info
			if err := pkt.Decode(pk, &in); err != nil {
				t.Fatal(err)
			}
			victim = p.Steer(&in)
		}
		if !p.Rx(pk) {
			t.Fatalf("rx %d failed", i)
		}
	}
	thief := (victim + 1) % p.Cores()
	var order []uint16
	n := p.PollCore(thief, func(d Delivery) {
		if !d.Stolen || d.Queue != victim || d.Core != thief {
			t.Errorf("delivery = %+v, want stolen from %d by %d", d, victim, thief)
		}
		var in pkt.Info
		if err := pkt.Decode(d.Pkt, &in); err != nil {
			t.Fatal(err)
		}
		order = append(order, in.IPID)
	})
	if n != pkts {
		t.Fatalf("thief delivered %d, want %d", n, pkts)
	}
	for i, id := range order {
		if id != uint16(i) {
			t.Fatalf("stolen deliveries out of order: %v", order)
		}
	}
	st := p.Stats()
	if st.Steals != 1 || st.Cores[victim].Stolen != pkts {
		t.Errorf("steal stats = %+v", st)
	}
}

// TestPlaneRenegotiateFastPath: when the joint optimum keeps the same
// layout, a renegotiation swaps only the one tenant's accessor table —
// neighbors keep their exact runtime objects.
func TestPlaneRenegotiateFastPath(t *testing.T) {
	p, err := Open(Options{NIC: "mlx5", Cores: 2},
		Spec{Name: "pinned", Semantics: []string{"timestamp", "rss"}},
		Spec{Name: "mobile", Semantics: []string{"vlan"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	gen := p.Generation()
	var neighborRT []*codegen.Runtime
	for _, qs := range p.queues {
		neighborRT = append(neighborRT, qs.q.Lane(0).RT)
	}
	pathID := p.Joint().Selected.Path.ID
	if err := p.Renegotiate("mobile", "flow_id", "pkt_len"); err != nil {
		t.Fatal(err)
	}
	if p.Joint().Selected.Path.ID != pathID {
		t.Fatalf("timestamp pins the full CQE; path moved to %v", p.Joint().Selected.Path.ID)
	}
	st := p.Stats()
	if st.FastRenegs != 1 || st.Renegs != 0 || st.Drained != 0 {
		t.Errorf("fast-path stats = %+v, want 1 fast reneg, no drain", st)
	}
	if p.Generation() != gen+1 {
		t.Errorf("generation = %d, want %d", p.Generation(), gen+1)
	}
	for q, qs := range p.queues {
		if qs.q.Lane(0).RT != neighborRT[q] {
			t.Errorf("neighbor's runtime on queue %d was rebuilt on a fast-path renegotiation", q)
		}
	}
	// The renegotiating tenant reads its new semantics.
	pk := pkt.NewBuilder().
		WithIPv4([4]byte{10, 1, 2, 3}, [4]byte{192, 168, 0, 1}).
		WithUDP(5555, 20001).Build()
	if !p.Rx(pk) {
		t.Fatal("rx after fast reneg")
	}
	saw := false
	p.Drain(func(d Delivery) {
		saw = true
		if d.Name != "mobile" {
			t.Fatalf("delivered to %s", d.Name)
		}
		if l, ok := d.Get("pkt_len"); !ok || l != uint64(len(pk)) {
			t.Errorf("pkt_len = %d/%v after reneg", l, ok)
		}
		if _, ok := d.Get("vlan"); ok {
			t.Error("dropped semantic still resolves")
		}
	})
	if !saw {
		t.Fatal("no delivery after fast reneg")
	}
	// Renegotiating an unknown tenant or an unknown semantic fails cleanly.
	if err := p.Renegotiate("ghost", "rss"); err == nil {
		t.Error("unknown tenant renegotiated")
	}
	if err := p.Renegotiate("mobile", "no_such_semantic"); err == nil {
		t.Error("unknown semantic accepted")
	}
	if p.Generation() != gen+1 {
		t.Error("failed renegotiations must not bump the generation")
	}
}

// TestPlaneRenegotiateSwitchover: a layout change drains every queue's
// in-flight completions under the OLD layout. Nothing is lost, per-queue
// order holds across the switchover, and the neighbor tenant reads
// correctly before and after.
func TestPlaneRenegotiateSwitchover(t *testing.T) {
	p, err := Open(Options{NIC: "mlx5", Cores: 2},
		Spec{Name: "lb", Semantics: []string{"rss"}},
		Spec{Name: "counter", Semantics: []string{"pkt_len"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	oldPath := p.Joint().Selected.Path.ID

	// Queue up in-flight traffic for both tenants, unpolled.
	wantOrder := make(map[int][]uint16)
	rss := make(map[uint16]uint64)
	const pkts = 24
	for i := 0; i < pkts; i++ {
		tenant := i % 2
		pk := pkt.NewBuilder().
			WithIPv4([4]byte{10, 9, byte(i), byte(i * 7)}, [4]byte{192, 168, 0, byte(tenant)}).
			WithIPID(uint16(i)).
			WithUDP(uint16(4000+i), uint16(20000+tenant)).
			Build()
		var in pkt.Info
		if err := pkt.Decode(pk, &in); err != nil {
			t.Fatal(err)
		}
		q := p.Steer(&in)
		wantOrder[q] = append(wantOrder[q], uint16(i))
		rss[uint16(i)] = uint64(softnic.RSS(&in))
		if !p.Rx(pk) {
			t.Fatalf("rx %d", i)
		}
	}

	// timestamp forces the full CQE: the layout must change.
	if err := p.Renegotiate("lb", "rss", "timestamp"); err != nil {
		t.Fatal(err)
	}
	if p.Joint().Selected.Path.ID == oldPath {
		t.Fatal("layout did not change; test needs a real switchover")
	}
	st := p.Stats()
	if st.Renegs != 1 || st.Drained != pkts || st.SoftParked != 0 || st.Rollbacks != 0 {
		t.Fatalf("switchover stats = %+v", st)
	}

	// New traffic after the switchover, interleaved behind the parked
	// backlog.
	for i := pkts; i < pkts+8; i++ {
		tenant := i % 2
		pk := pkt.NewBuilder().
			WithIPv4([4]byte{10, 9, byte(i), byte(i * 7)}, [4]byte{192, 168, 0, byte(tenant)}).
			WithIPID(uint16(i)).
			WithUDP(uint16(4000+i), uint16(20000+tenant)).
			Build()
		var in pkt.Info
		_ = pkt.Decode(pk, &in)
		wantOrder[p.Steer(&in)] = append(wantOrder[p.Steer(&in)], uint16(i))
		rss[uint16(i)] = uint64(softnic.RSS(&in))
		if !p.Rx(pk) {
			t.Fatalf("rx %d", i)
		}
	}

	gotOrder := make(map[int][]uint16)
	total := p.Drain(func(d Delivery) {
		var in pkt.Info
		if err := pkt.Decode(d.Pkt, &in); err != nil {
			t.Fatal(err)
		}
		gotOrder[d.Queue] = append(gotOrder[d.Queue], in.IPID)
		switch d.Name {
		case "lb":
			if h, ok := d.Get("rss"); !ok || h != rss[in.IPID] {
				t.Errorf("pkt %d: rss = %#x/%v, want %#x (read under its DMA-time layout)",
					in.IPID, h, ok, rss[in.IPID])
			}
		case "counter":
			if l, ok := d.Get("pkt_len"); !ok || l != uint64(len(d.Pkt)) {
				t.Errorf("pkt %d: neighbor pkt_len = %d/%v", in.IPID, l, ok)
			}
		}
	})
	if total != pkts+8 {
		t.Fatalf("drained %d of %d: packets lost in the switchover", total, pkts+8)
	}
	for q, want := range wantOrder {
		got := gotOrder[q]
		if len(got) != len(want) {
			t.Fatalf("queue %d delivered %d of %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("queue %d reordered: got %v want %v", q, got, want)
			}
		}
	}
}

// TestPlaneValidation rejects malformed planes loudly.
func TestPlaneValidation(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Error("no tenants accepted")
	}
	if _, err := Open(Options{}, Spec{Semantics: []string{"rss"}}); err == nil {
		t.Error("unnamed tenant accepted")
	}
	if _, err := Open(Options{},
		Spec{Name: "a", Semantics: []string{"rss"}},
		Spec{Name: "a", Semantics: []string{"vlan"}},
	); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := Open(Options{},
		Spec{Name: "a", Semantics: []string{"rss"}, Port: 7},
		Spec{Name: "b", Semantics: []string{"vlan"}, Port: 7},
	); err == nil {
		t.Error("duplicate ports accepted")
	}
	if _, err := Open(Options{Cores: 65}, Spec{Name: "a", Semantics: []string{"rss"}}); err == nil {
		t.Error("65 cores accepted")
	}
	if _, err := Open(Options{NIC: "no_such_nic"}, Spec{Name: "a", Semantics: []string{"rss"}}); err == nil {
		t.Error("unknown NIC accepted")
	}
}

// TestPlaneMetrics: the plane exposes per-tenant and per-queue series on a
// shared registry without collisions.
func TestPlaneMetrics(t *testing.T) {
	p, err := Open(Options{NIC: "mlx5", Cores: 2}, fourTenants()...)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg, obs.L("plane", "serving"))
	pk := pkt.NewBuilder().
		WithIPv4([4]byte{10, 0, 0, 1}, [4]byte{192, 168, 0, 0}).
		WithUDP(1234, 20000).Build()
	p.Rx(pk)
	p.Drain(func(Delivery) {})
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`opendesc_tenant_delivered_total{plane="serving",tenant="lb"} 1`,
		`opendesc_tenant_generation{plane="serving"} 1`,
		`queue="1"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q\n%s", want, out)
		}
	}
	if reg.Collisions() != 0 {
		t.Errorf("collisions = %d registering one plane", reg.Collisions())
	}
}

// TestParkedDeliveriesBindOnce: packets parked across a layout switchover
// carry the lane they were parked with, so delivering them allocates nothing
// per packet.
func TestParkedDeliveriesBindOnce(t *testing.T) {
	p, err := Open(Options{NIC: "mlx5", Cores: 1},
		Spec{Name: "lb", Semantics: []string{"rss"}},
		Spec{Name: "counter", Semantics: []string{"pkt_len"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	const pkts = 128
	for i := 0; i < pkts; i++ {
		pk := pkt.NewBuilder().
			WithIPv4([4]byte{10, 9, byte(i), 1}, [4]byte{192, 168, 0, 1}).
			WithUDP(uint16(4000+i), 20000).
			Build()
		if !p.Rx(pk) {
			t.Fatalf("rx %d", i)
		}
	}
	if err := p.Renegotiate("counter", "pkt_len", "timestamp"); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Renegs != 1 || st.Drained != pkts {
		t.Fatalf("want one switchover parking %d packets, got %+v", pkts, st)
	}
	got := 0
	h := func(d Delivery) {
		if _, ok := d.Get("rss"); !ok {
			t.Error("parked delivery lost its accessor")
		}
		got++
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.PollCore(0, h)
	runtime.ReadMemStats(&after)
	if got != pkts {
		t.Fatalf("delivered %d of %d parked packets", got, pkts)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > pkts/4 {
		t.Errorf("delivering %d parked packets made %d allocations; the lane is bound when a packet is parked, not per delivery", pkts, allocs)
	}
}
