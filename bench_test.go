// This file hosts the repository-level benchmarks: the timed experiments
// (EXPERIMENTS.md E1–E10) and the micro-benchmarks the later sections cite,
// driving the same harness code as `opendesc experiments` through
// testing.B. It lives in the external test package because internal/bench
// itself imports the root package (E16 drives the hardened public driver).
package opendesc_test

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"testing"
	"time"

	"opendesc"
	"opendesc/internal/baseline"
	"opendesc/internal/bench"
	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/diffverify"
	"opendesc/internal/evolve"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
	"opendesc/internal/obs"
	"opendesc/internal/ring"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/workload"
)

func mustIntent(b *testing.B, sems ...semantics.Name) *core.Intent {
	b.Helper()
	it, err := core.IntentFromSemantics("bench", semantics.Default, sems...)
	if err != nil {
		b.Fatal(err)
	}
	return it
}

// BenchmarkE1_PathSelection times the Fig. 6 running example: CFG extraction,
// path enumeration and Eq. 1 selection on the e1000e description.
func BenchmarkE1_PathSelection(b *testing.B) {
	m := nic.MustLoad("e1000e")
	intent := mustIntent(b, semantics.RSS, semantics.IPChecksum)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := m.Compile(intent, core.CompileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Selected.Path.Prov().Has(semantics.IPChecksum) {
			b.Fatal("Fig. 6 invariant violated")
		}
	}
}

// BenchmarkE2_MultiNIC compiles one intent against every bundled NIC (the §4
// prototype showcase).
func BenchmarkE2_MultiNIC(b *testing.B) {
	intent := mustIntent(b, semantics.RSS, semantics.VLAN, semantics.IPChecksum, semantics.PktLen)
	models := nic.All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m := range models {
			if _, err := m.Compile(intent, core.CompileOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE4_Datapath measures ns/packet of each host stack over simulated
// mlx5 traffic (the §2 motivation comparison).
func BenchmarkE4_Datapath(b *testing.B) {
	tr := workload.MustGenerate(workload.DefaultSpec())
	for _, it := range bench.E4Intents {
		stacks, err := bench.NewStacks(it.Sems, tr)
		if err != nil {
			b.Fatal(err)
		}
		steps := []func(int){stacks.StepSkBuff, stacks.StepMbuf, stacks.StepXDP, stacks.StepOpenDesc}
		for k, stack := range []string{"skbuff", "mbuf", "xdp", "opendesc"} {
			b.Run(it.Name+"/"+stack, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					steps[k](i % stacks.Samples())
				}
			})
		}
	}
}

// BenchmarkE5_FootprintSelection times the Eq. 1 sweep across α values on
// mlx5 (compressed vs full CQE crossover).
func BenchmarkE5_FootprintSelection(b *testing.B) {
	m := nic.MustLoad("mlx5")
	intent := mustIntent(b, semantics.RSS, semantics.VLAN, semantics.IPChecksum, semantics.PktLen)
	for i := 0; i < b.N; i++ {
		for _, alpha := range []float64{0.25, 1, 4, 16} {
			if _, err := m.Compile(intent, core.CompileOptions{
				Select: core.SelectOptions{Alpha: alpha},
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE7_Accessor measures the synthesized constant-time accessors:
// byte-aligned and unaligned hardware reads, and a software shim read.
func BenchmarkE7_Accessor(b *testing.B) {
	m := nic.MustLoad("ixgbe") // 13-bit ptype field exercises unaligned reads
	intent := mustIntent(b, semantics.RSS, semantics.PType, semantics.KVKey)
	res, err := m.Compile(intent, core.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rt := codegen.NewRuntime(res, softnic.Funcs())
	tr := workload.MustGenerate(workload.Spec{Packets: 64, Flows: 8, PayloadBytes: 64, KVFraction: 1, Seed: 3})
	samples, err := bench.CaptureSamples(m, res.Config, tr)
	if err != nil {
		b.Fatal(err)
	}
	var sink uint64
	b.Run("aligned32", func(b *testing.B) {
		r := rt.Reader(semantics.RSS)
		for i := 0; i < b.N; i++ {
			sink += r.Read(samples[i%len(samples)].Cmpt, nil)
		}
	})
	b.Run("unaligned13", func(b *testing.B) {
		r := rt.Reader(semantics.PType)
		for i := 0; i < b.N; i++ {
			sink += r.Read(samples[i%len(samples)].Cmpt, nil)
		}
	})
	b.Run("software-shim", func(b *testing.B) {
		r := rt.Reader(semantics.KVKey)
		for i := 0; i < b.N; i++ {
			s := &samples[i%len(samples)]
			sink += r.Read(s.Cmpt, s.Packet)
		}
	})
	_ = sink
}

// BenchmarkE9_MbufDyn measures the dynfield indirection cost as enabled
// offloads grow.
func BenchmarkE9_MbufDyn(b *testing.B) {
	tr := workload.MustGenerate(workload.DefaultSpec())
	m := nic.MustLoad("mlx5")
	paths, err := m.Paths()
	if err != nil {
		b.Fatal(err)
	}
	var full *core.Path
	for _, p := range paths {
		if p.SizeBytes() == 64 {
			full = p
		}
	}
	samples, err := bench.CaptureSamples(m, full.Constraints, tr)
	if err != nil {
		b.Fatal(err)
	}
	dynOrder := []semantics.Name{
		semantics.Timestamp, semantics.FlowID, semantics.Mark, semantics.LROSegs,
		semantics.IPChecksum, semantics.L4Checksum, semantics.TunnelID, semantics.ErrorFlags,
	}
	var sink uint64
	for _, k := range []int{0, 2, 4, 8} {
		enabled := append([]semantics.Name{semantics.RSS, semantics.VLAN, semantics.PktLen}, dynOrder[:k]...)
		drv := baseline.NewMbufDriver(full, enabled)
		accs := make([]baseline.MbufAccessor, len(enabled))
		for i, sem := range enabled {
			accs[i] = drv.Accessor(sem)
		}
		b.Run(fmt.Sprintf("dynfields-%d", k), func(b *testing.B) {
			var mb baseline.Mbuf
			for i := 0; i < b.N; i++ {
				s := &samples[i%len(samples)]
				drv.Fill(&mb, s.Cmpt, len(s.Packet))
				for _, acc := range accs {
					v, _ := acc.Read(&mb)
					sink += v
				}
			}
		})
	}
	_ = sink
}

// BenchmarkE10_CompileTime times a compile at its two lines, per NIC
// (bench.E10Stages): the frontend (parse + sema), the description-side
// analysis (CFG + paths), the intent-side selection a renegotiation re-runs,
// and the cold total from source text that Open pays once. The two stages that
// read the text also report throughput, so ns per source byte can be read off.
func BenchmarkE10_CompileTime(b *testing.B) {
	intent := mustIntent(b, semantics.RSS, semantics.VLAN, semantics.IPChecksum, semantics.PktLen)
	for _, m := range nic.All() {
		for _, stage := range bench.E10Stages(m, intent) {
			b.Run(m.Name+"/"+stage.Name, func(b *testing.B) {
				b.ReportAllocs()
				if stage.Name == "frontend" || stage.Name == "cold" {
					b.SetBytes(int64(len(m.Source)))
				}
				for i := 0; i < b.N; i++ {
					if err := stage.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRenegotiate times one control-plane tick of the evolving driver on
// the Fig. 6 tension (e1000e carries rss or ip_checksum, never both): a
// steady tick re-solves Eq. 1 under an unchanged read mix and stays put, a
// switching tick sees the mix flipped and drains, reprograms and swaps.
func BenchmarkRenegotiate(b *testing.B) {
	intent := mustIntent(b, semantics.RSS, semantics.IPChecksum, semantics.VLAN, semantics.PktLen)
	tr, err := workload.Generate(workload.DefaultSpec())
	if err != nil {
		b.Fatal(err)
	}
	mixes := [2][]semantics.Name{
		{semantics.RSS, semantics.VLAN, semantics.PktLen},
		{semantics.IPChecksum, semantics.VLAN, semantics.PktLen},
	}
	// open arms an engine whose every tick evaluates a window of the given
	// size, and leaves the static layout for mixes[0]'s.
	open := func(b *testing.B, window int) (*evolve.Engine, func(mix []semantics.Name)) {
		e, err := evolve.New(nicsim.MustNew(nic.MustLoad("e1000e"), nicsim.Config{}), intent, core.CompileOptions{}, evolve.Options{
			Interval: 1 << 30, MinWindow: window, MinShimSamples: math.MaxUint64,
		})
		if err != nil {
			b.Fatal(err)
		}
		next := 0
		deliver := func(mix []semantics.Name) {
			for i := 0; i < window; i++ {
				next++
				if !e.Rx(tr.Packets[next%len(tr.Packets)]) {
					b.Fatal("rx stalled")
				}
				e.Poll(func(_ []byte, m opendesc.Meta) {
					for _, s := range mix {
						m.Get(string(s))
					}
				})
			}
		}
		deliver(mixes[0])
		if _, err := e.Renegotiate(); err != nil {
			b.Fatal(err)
		}
		return e, deliver
	}

	// A steady tick costs less than the one packet its window needs, and
	// stopping the timer around that packet costs a hundred ticks. So: b.N
	// one-packet windows each closed by a tick, then b.N windows alone, and
	// the three per-op figures are the difference.
	b.Run("steady", func(b *testing.B) {
		e, deliver := open(b, 1)
		lap := func(tick bool) (ns, mallocs, bytes float64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			for i := 0; i < b.N; i++ {
				deliver(mixes[0])
				if !tick {
					continue
				}
				if switched, err := e.Renegotiate(); err != nil || switched {
					b.Fatalf("tick %d: switched=%t err=%v", i, switched, err)
				}
			}
			ns = float64(time.Since(start))
			runtime.ReadMemStats(&after)
			return ns, float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
		}
		b.ReportAllocs()
		b.ResetTimer()
		ns, mallocs, bytes := lap(true)
		ns0, mallocs0, bytes0 := lap(false)
		n := float64(b.N)
		b.ReportMetric((ns-ns0)/n, "ns/op")
		b.ReportMetric((mallocs-mallocs0)/n, "allocs/op")
		b.ReportMetric((bytes-bytes0)/n, "B/op")
	})

	// A switching tick outweighs the timer stops around the 64 packets that
	// build its window.
	b.Run("switching", func(b *testing.B) {
		e, deliver := open(b, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			deliver(mixes[(i+1)%2])
			b.StartTimer()
			if switched, err := e.Renegotiate(); err != nil || !switched {
				b.Fatalf("tick %d: switched=%t err=%v", i, switched, err)
			}
		}
	})
}

// BenchmarkSolveJoint times the Eq. 1 kernel alone on mlx5's four paths:
// tenants bound once, their cost vectors evaluated once, then one Solve per
// iteration into a reused scoring — what a re-solve that keeps its layout
// costs, and it allocates nothing.
func BenchmarkSolveJoint(b *testing.B) {
	m := nic.MustLoad("mlx5")
	a, err := m.Analysis(core.EnumerateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	pool := []semantics.Name{semantics.RSS, semantics.VLAN, semantics.PktLen, semantics.IPChecksum,
		semantics.L4Checksum, semantics.FlowID, semantics.PType, semantics.KVKey}
	costs := semantics.RegistryCosts(semantics.Default)
	for _, n := range []int{1, 16} {
		b.Run(fmt.Sprintf("%dtenants", n), func(b *testing.B) {
			tenants := make([]core.BoundTenant, n)
			for i := range tenants {
				bound := a.Bind(mustIntent(b, pool[i%len(pool)], pool[(i+3)%len(pool)], pool[(i+5)%len(pool)]))
				tenants[i] = core.BoundTenant{Tenant: fmt.Sprint("t", i), Bound: bound, Weight: float64(1 + i%4), Costs: bound.Costs(nil, costs)}
			}
			scored := make([]core.JointScored, len(a.Paths))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.Solve(tenants, core.DefaultAlpha, scored); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// configuredDevice builds a device and programs its context registers from a
// compiled intent, as a driver would. Left unprogrammed, every NIC but e1000
// refuses each packet in the deparser walk, and the benchmark would measure
// the error return of a device that drops everything.
func configuredDevice(b *testing.B, m *nic.Model) *nicsim.Device {
	b.Helper()
	res, err := m.Compile(mustIntent(b, semantics.RSS, semantics.VLAN, semantics.PktLen), core.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	dev, err := nicsim.New(m, nicsim.Config{RingEntries: 2048})
	if err != nil {
		b.Fatal(err)
	}
	if err := dev.ApplyConfig(res.Config); err != nil {
		b.Fatal(err)
	}
	return dev
}

// rxLoop receives b.N packets of the trace, draining the completion ring
// whenever it fills; any other refusal is fatal. It reports allocs/pkt as a
// fraction — every allocation the process made during the loop, from the
// MemStats.Mallocs delta — because allocs/op rounds down, and "0 allocs/op"
// beside a non-zero B/op cannot tell one allocation in every few packets
// from none.
func rxLoop(b *testing.B, dev *nicsim.Device, tr *workload.Trace) {
	b.Helper()
	total := 0
	for _, p := range tr.Packets {
		total += len(p)
	}
	b.SetBytes(int64(total / len(tr.Packets)))
	var before, after runtime.MemStats
	b.StopTimer()
	runtime.ReadMemStats(&before)
	b.StartTimer()
	for i := 0; i < b.N; i++ {
		if dev.RxPacket(tr.Packets[i%len(tr.Packets)]) {
			continue
		}
		if dev.CmptRing.Free() != 0 {
			b.Fatalf("packet %d refused with %d ring entries free", i, dev.CmptRing.Free())
		}
		for dev.CmptRing.Pop() {
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/pkt")
}

// BenchmarkSimulatorRx measures the simulated device's packet rate (CFG
// walk + the offload engines the layout carries + completion DMA) per NIC.
func BenchmarkSimulatorRx(b *testing.B) {
	tr := workload.MustGenerate(workload.DefaultSpec())
	for _, m := range nic.All() {
		b.Run(m.Name, func(b *testing.B) {
			rxLoop(b, configuredDevice(b, m), tr)
		})
	}
}

// BenchmarkObsOverhead quantifies the observability tax on the simulator RX
// path. The device counters are always compiled in, so "counters-only" is
// the baseline; "registered" additionally attaches them to a registry (a
// registration-time change only — the hot path is untouched); "serving"
// keeps a live /metrics endpoint scraping concurrently. The acceptance bound
// for the stats endpoint is ≤5% over the endpoint-disabled run.
func BenchmarkObsOverhead(b *testing.B) {
	tr := workload.MustGenerate(workload.DefaultSpec())
	m := nic.MustLoad("mlx5")
	b.Run("counters-only", func(b *testing.B) {
		rxLoop(b, configuredDevice(b, m), tr)
	})
	b.Run("registered", func(b *testing.B) {
		dev := configuredDevice(b, m)
		dev.RegisterMetrics(obs.NewRegistry(), obs.L("queue", "0"))
		rxLoop(b, dev, tr)
	})
	b.Run("serving", func(b *testing.B) {
		dev := configuredDevice(b, m)
		reg := obs.NewRegistry()
		dev.RegisterMetrics(reg, obs.L("queue", "0"))
		addr, closer, err := reg.Serve("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer closer.Close()
		stop := make(chan struct{})
		defer close(stop)
		go func() { // a scraper polling /metrics while packets flow
			url := fmt.Sprintf("http://%s/metrics", addr)
			for {
				select {
				case <-stop:
					return
				case <-time.After(5 * time.Millisecond):
				}
				resp, err := http.Get(url)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
		rxLoop(b, dev, tr)
	})
}

// BenchmarkFlightOverhead measures the flight recorder's hot-path tax on the
// full driver datapath (Rx + Poll + three metadata reads per packet): the
// "on" sub-benchmark records with the default sampling, "off" disables the
// recorder at runtime (the enabled-check cost stays). The tax is well over
// 5% of the host side: on cmd/benchmark's hw_fastpath (2-vCPU VM) disabling
// the recorder takes 19% off the host time per packet.
func BenchmarkFlightOverhead(b *testing.B) {
	tr := workload.MustGenerate(workload.DefaultSpec())
	run := func(b *testing.B, record bool) {
		b.Helper()
		intent, err := opendesc.NewIntent("bench", "rss", "vlan", "pkt_len")
		if err != nil {
			b.Fatal(err)
		}
		drv, err := opendesc.OpenIntent("e1000e", intent, opendesc.CompileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		drv.Flight().SetEnabled(record)
		var sink uint64
		h := func(p []byte, meta opendesc.Meta) {
			v1, _ := meta.Get("rss")
			v2, _ := meta.Get("vlan")
			v3, _ := meta.Get("pkt_len")
			sink += v1 + v2 + v3
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := tr.Packets[i%len(tr.Packets)]
			for !drv.Rx(p) {
				drv.Poll(h)
			}
			if i%8 == 7 {
				drv.Poll(h)
			}
		}
		for drv.Poll(h) > 0 {
		}
		_ = sink
	}
	b.Run("on", func(b *testing.B) { run(b, true) })
	b.Run("off", func(b *testing.B) { run(b, false) })
}

// BenchmarkPollFixedCost is what one Driver.Poll costs the host by what it
// finds: nothing (the idle iteration of a spin-polling application), one
// packet off the flight sampling grid (kv_openloop's usual poll), a burst of
// 32 with its two grid packets. ns/poll is the time inside Poll alone — the
// arms with traffic read the clock around each Poll and subtract what a
// back-to-back pair of reads measures — and allocs/op there are the
// simulated device's: TestDeliverPathAllocGate holds the poll side to zero.
// burst32_read3 makes three hardware Gets per delivery and polls a second
// burst of 32 beside each one with a handler that reads nothing: ns/read is
// the difference per Get, and its allocs/op cover both bursts.
func BenchmarkPollFixedCost(b *testing.B) {
	tr := workload.MustGenerate(workload.DefaultSpec())
	var pair time.Duration
	const pairs = 1 << 14
	for i := 0; i < pairs; i++ {
		pair += time.Since(time.Now())
	}
	pair /= pairs
	for _, arm := range []struct {
		name  string
		burst int
		sems  []string
	}{
		{"empty", 0, []string{"rss"}},
		{"one_unsampled", 1, []string{"rss"}},
		{"burst32", 32, []string{"rss"}},
		{"burst32_read3", 32, []string{"rss", "vlan", "pkt_len"}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			drv, err := opendesc.Open("e1000e", "rss", "vlan", "pkt_len")
			if err != nil {
				b.Fatal(err)
			}
			var sink uint64
			h := func(_ []byte, meta opendesc.Meta) {
				for _, sem := range arm.sems {
					v, _ := meta.Get(sem)
					sink += v
				}
			}
			accepted := 0
			poll := func(h func([]byte, opendesc.Meta)) time.Duration {
				for j := 0; j < arm.burst; j++ {
					accepted++
					// A packet accepted while the recorder is off gets no
					// stamp: that keeps every one-packet poll off the grid.
					off := arm.burst == 1 && accepted%16 == 0
					if off {
						drv.Flight().SetEnabled(false)
					}
					if !drv.Rx(tr.Packets[accepted%len(tr.Packets)]) {
						b.Fatal("ring full")
					}
					if off {
						drv.Flight().SetEnabled(true)
					}
				}
				t0 := time.Now()
				n := drv.Poll(h)
				d := time.Since(t0) - pair
				if n != arm.burst {
					b.Fatalf("poll delivered %d, want %d", n, arm.burst)
				}
				return d
			}
			reads := len(arm.sems) > 1
			var inPoll, bare time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if arm.burst == 0 {
					drv.Poll(h)
					continue
				}
				inPoll += poll(h)
				if reads {
					bare += poll(func([]byte, opendesc.Meta) {})
				}
			}
			if arm.burst == 0 {
				inPoll = b.Elapsed()
			}
			b.ReportMetric(float64(inPoll.Nanoseconds())/float64(b.N), "ns/poll")
			if reads {
				b.ReportMetric(float64((inPoll-bare).Nanoseconds())/float64(b.N*arm.burst*len(arm.sems)), "ns/read")
			}
			_ = sink
		})
	}
}

// BenchmarkRingOps measures the descriptor-queue substrate.
func BenchmarkRingOps(b *testing.B) {
	b.Run("produce-consume-64B", func(b *testing.B) {
		r := ring.MustNew(64, 1024)
		rec := make([]byte, 64)
		for i := 0; i < b.N; i++ {
			if !r.Push(rec) {
				r.Consume(func([]byte) {})
				r.Push(rec)
			} else if i%2 == 1 {
				r.Consume(func([]byte) {})
			}
		}
	})
}

// BenchmarkVerifySixNICs times one S27 differential-verification pass over
// the six bundled descriptions (18 paths, 892 cases, 7 821 cross-view
// checks) — the unit the fleet gate, the compile_open workload and E22's
// exhaustive pass all pay. Its allocation count is gated by
// TestVerifyAllocGate in internal/diffverify.
func BenchmarkVerifySixNICs(b *testing.B) {
	models := nic.All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cases := 0
		for _, m := range models {
			rep, err := diffverify.VerifyModel(m, diffverify.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if !rep.OK() {
				b.Fatalf("%s", rep)
			}
			cases += rep.Cases
		}
		if cases != 892 {
			b.Fatalf("pass checked %d cases, want 892", cases)
		}
	}
}
