package opendesc

import (
	"math"
	"runtime"
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/evolve"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
	"opendesc/internal/softnic"
	"opendesc/internal/workload"
)

// gateLoop is one receive loop under the alloc gate: rx offers a packet to
// the (simulated) device, poll delivers whatever completed through three
// metadata reads per packet.
type gateLoop struct {
	name    string
	packets [][]byte
	rx      func(p []byte) bool
	poll    func() int
}

var gateSems = []string{"rss", "vlan", "pkt_len"}

// gateLoops opens every driver the library ships on the one receive loop:
// pinned, hardened with deep validation, evolving, the two composed, a
// hardened one reading both burst forms, and the multi-tenant plane.
func gateLoops(t *testing.T) []gateLoop {
	t.Helper()
	tr, err := workload.Generate(workload.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	sink := new(uint64)
	h := func(p []byte, meta Meta) {
		v1, _ := meta.Get("rss")
		v2, _ := meta.Get("vlan")
		v3, _ := meta.Get("pkt_len")
		*sink += v1 + v2 + v3
	}
	intent, err := NewIntent("gate", gateSems...)
	if err != nil {
		t.Fatal(err)
	}
	driver := func(name string, opts OpenOptions) gateLoop {
		drv, err := OpenWith("e1000e", intent, opts)
		if err != nil {
			t.Fatal(err)
		}
		return gateLoop{name: name, packets: tr.Packets, rx: drv.Rx, poll: func() int { return drv.Poll(h) }}
	}

	// A hardened driver reading kv_key and payload_hash on every delivery,
	// polled once a window of packets is pending, so each read goes through
	// its burst form over a full window or hits the form's memo.
	hashIntent, err := NewIntent("gate", append(gateSems, "kv_key", "payload_hash")...)
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := OpenWith("e1000e", hashIntent, OpenOptions{Harden: &HardenOptions{Deep: true}})
	if err != nil {
		t.Fatal(err)
	}
	hashLoop := gateLoop{name: "hardened+payload_hash", packets: tr.Packets, rx: hashed.Rx, poll: func() int {
		if hashed.PendingPackets() < softnic.BurstMax {
			return 0
		}
		return hashed.Poll(func(p []byte, meta Meta) {
			h(p, meta)
			k, _ := meta.Get("kv_key")
			v, _ := meta.Get("payload_hash")
			*sink += k + v
		})
	}}

	const tenants = 2
	specs := make([]TenantSpec, tenants)
	for i := range specs {
		specs[i] = TenantSpec{Name: string(rune('a' + i)), Semantics: gateSems}
	}
	plane, err := OpenTenants(TenantOptions{Cores: 1}, specs...)
	if err != nil {
		t.Fatal(err)
	}
	ztr, err := workload.GenerateZipf(workload.ZipfSpec{Packets: 512, Flows: 1 << 10, Skew: 1.1, Tenants: tenants, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	onDelivery := func(d TenantDelivery) {
		v1, _ := d.Get("rss")
		v2, _ := d.Get("vlan")
		v3, _ := d.Get("pkt_len")
		*sink += v1 + v2 + v3
	}

	return []gateLoop{
		driver("pinned", OpenOptions{}),
		driver("hardened", OpenOptions{Harden: &HardenOptions{Deep: true}}),
		// No re-solve inside the measured window: a recompile allocates, and
		// it belongs to the control plane, not to the deliver path.
		driver("evolving", OpenOptions{Evolve: &EvolveOptions{Interval: 1 << 30}}),
		driver("hardened+evolving", OpenOptions{Evolve: &EvolveOptions{Interval: 1 << 30}, Harden: &HardenOptions{Deep: true}}),
		hashLoop,
		{name: "tenants", packets: ztr.Packets, rx: plane.Rx, poll: func() int { return plane.PollCore(0, onDelivery) }},
	}
}

// TestDeliverPathAllocGate is the alloc ratchet for the host-side
// poll→validate→read→deliver hot path of every receive loop. The simulated
// device's Rx side allocates one condition-path string per context branch it
// evaluates, so the gate measures the full Rx+Poll cycle and subtracts an
// Rx-only baseline taken against the same loop — the difference is what the
// host datapath itself allocates per delivered packet, and it must stay
// zero. Any change that puts a heap allocation on Poll, Meta.Get,
// TenantDelivery.Get or the deliver callback path fails this test.
func TestDeliverPathAllocGate(t *testing.T) {
	const runs = 400 // plus AllocsPerRun's warm-up call, still < the 1024-deep ring
	const tolerance = 0.25

	for _, l := range gateLoops(t) {
		t.Run(l.name, func(t *testing.T) {
			next := 0
			packet := func() []byte {
				next++
				return l.packets[next%len(l.packets)]
			}
			for i := 0; i < 64; i++ { // warm the loop's queues and tables
				for !l.rx(packet()) {
					l.poll()
				}
			}
			for l.poll() > 0 {
			}

			// Rx-only baseline: the ring is deep enough that no poll is ever
			// needed.
			rxOnly := testing.AllocsPerRun(runs, func() {
				if !l.rx(packet()) {
					t.Fatal("ring filled during the rx-only baseline")
				}
			})
			for l.poll() > 0 {
			}

			// Full cycle: one Rx, one poll delivering that packet through
			// three reads.
			full := testing.AllocsPerRun(runs, func() {
				p := packet()
				for !l.rx(p) {
					l.poll()
				}
				l.poll()
			})

			deliver := full - rxOnly
			t.Logf("rx(device sim)=%.2f full=%.2f → deliver path=%.2f allocs/pkt (tolerance %.2f)",
				rxOnly, full, deliver, tolerance)
			if deliver > tolerance {
				t.Fatalf("deliver path allocates %.2f allocs/pkt (full %.2f − rx-only %.2f); "+
					"the poll→validate→read→deliver path must stay allocation-free", deliver, full, rxOnly)
			}
		})
	}
}

// TestOpenMemoryGate bounds what bringing a device up allocates, in bytes —
// a count the machine's speed cannot move. A device is sized by its
// description: the completion ring's stride is the largest enumerated path,
// packets are not copied into a pool behind it, and the flight ring is
// allocated as it is written (one 10 KB chunk for a smoke burst). What is
// left is the completion ring — the tenants row is its two 128 KiB ones; the
// limits leave about 50% headroom.
func TestOpenMemoryGate(t *testing.T) {
	for _, c := range []struct {
		name  string
		limit uint64
		open  func() error
	}{
		{"Open(ice)", 64 << 10, func() error {
			_, err := Open("ice", gateSems...)
			return err
		}},
		{"OpenTenants(mlx5, 2 cores)", 512 << 10, func() error {
			_, err := OpenTenants(TenantOptions{NIC: "mlx5", Cores: 2, RingEntries: 2048},
				TenantSpec{Name: "a", Semantics: gateSems}, TenantSpec{Name: "b", Semantics: gateSems})
			return err
		}},
	} {
		if err := c.open(); err != nil { // the description is analysed once per process
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := c.open(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s allocates %d KiB (limit %d KiB)", c.name, got>>10, c.limit>>10)
		if got > c.limit {
			t.Errorf("%s allocates %d bytes, limit %d: bring-up is sized by more than the description",
				c.name, got, c.limit)
		}
	}
}

// TestColdCompileAllocGate bounds what one cold CompileP4 — source text to a
// selected layout, what every host pays per description it has not seen —
// allocates per NIC. The limits are the counts before the byte-table lexer
// (string literals became substrings of the source) and the exact-size lists;
// a count above its limit means an append is doubling again or a name is
// going through fmt.
func TestColdCompileAllocGate(t *testing.T) {
	intent, err := NewIntent("gate", "rss")
	if err != nil {
		t.Fatal(err)
	}
	limits := map[string]float64{"e1000": 390, "e1000e": 547, "ixgbe": 698, "ice": 858, "mlx5": 1195, "qdma": 1592}
	for _, m := range nic.All() {
		got := testing.AllocsPerRun(20, func() {
			if _, err := CompileP4(m.Name, m.Source, intent, CompileOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per cold CompileP4 (limit %.0f)", m.Name, got, limits[m.Name])
		if limit, ok := limits[m.Name]; !ok || got > limit {
			t.Errorf("%s: a cold CompileP4 allocates %.0f, limit %.0f", m.Name, got, limit)
		}
	}
}

// TestWarmCompileSkipsAnalysis keeps renegotiation on the intent side of the
// compiler's configure/run line. A description is analysed once (CFG + path
// enumeration, core.Analyze); Model.Compile on top of that re-solves Eq. 1
// and synthesizes accessors only, so on every bundled NIC it must allocate at
// most a quarter of what the cold pipeline does (12–20 against 112–723 when
// written — a ratio, so it holds on any machine). And an evolving driver's
// tick on a steady read mix — the live cost model evaluated into the
// resolver's own vectors and one Solve over the bound request — allocates
// nothing: only an answer the driver acts on is materialised.
func TestWarmCompileSkipsAnalysis(t *testing.T) {
	intent, err := NewIntent("gate", "rss", "ip_checksum", "vlan", "pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range nic.All() {
		warm := testing.AllocsPerRun(50, func() { m.Compile(intent, CompileOptions{}) })
		cold := testing.AllocsPerRun(50, func() { core.Compile(m.Name, m.Info, intent, CompileOptions{}) })
		t.Logf("%s: warm %.0f, cold %.0f allocs/compile", m.Name, warm, cold)
		if warm*4 > cold {
			t.Errorf("%s: warm Model.Compile allocates %.0f, cold core.Compile %.0f: more than a quarter, the analysis is being redone",
				m.Name, warm, cold)
		}
	}

	const maxTickAllocs = 0
	e, err := evolve.New(nicsim.MustNew(nic.MustLoad("e1000e"), nicsim.Config{}), intent, CompileOptions{}, evolve.Options{
		Interval: 1 << 30, MinWindow: 1, MinShimSamples: math.MaxUint64,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(workload.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	packet := func() { // one delivery reading the rss-heavy mix
		next++
		if !e.Rx(tr.Packets[next%len(tr.Packets)]) {
			t.Fatal("rx stalled")
		}
		e.Poll(func(_ []byte, m Meta) {
			m.Get("rss")
			m.Get("vlan")
			m.Get("pkt_len")
		})
	}
	for i := 0; i < 64; i++ { // settle on the mix's layout
		packet()
		e.Renegotiate()
	}
	settled := e.Stats()
	rxOnly := testing.AllocsPerRun(200, packet)
	full := testing.AllocsPerRun(200, func() {
		packet()
		if _, err := e.Renegotiate(); err != nil {
			t.Fatal(err)
		}
	})
	st := e.Stats()
	if st.Switchovers != settled.Switchovers || st.Renegotiations < settled.Renegotiations+200 {
		t.Fatalf("not a steady window: %+v after %+v", st, settled)
	}
	t.Logf("steady Renegotiate: %.1f allocs/tick (limit %d)", full-rxOnly, maxTickAllocs)
	if full-rxOnly > maxTickAllocs {
		t.Errorf("steady Renegotiate allocates %.1f per tick, limit %d", full-rxOnly, maxTickAllocs)
	}
}
