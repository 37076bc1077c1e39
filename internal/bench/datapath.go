package bench

import (
	"fmt"
	"math"
	"time"

	"opendesc/internal/baseline"
	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/workload"
)

// Sample is one (completion record, packet) pair captured from the simulated
// device, i.e. what the host datapath sees per received packet.
type Sample struct {
	Cmpt   []byte
	Packet []byte
}

// captureStats is what the simulated device lost while the samples were
// captured: a datapath comparison over a trace the ring stalled or dropped on
// would compare different packet sets.
type captureStats struct {
	fullStalls uint64
	drops      uint64
}

func (c *captureStats) add(o captureStats) {
	c.fullStalls += o.fullStalls
	c.drops += o.drops
}

// CaptureSamples runs a trace through a simulated NIC configured with the
// given context constraints and captures the resulting completions.
func CaptureSamples(m *nic.Model, cons []core.Constraint, tr *workload.Trace) ([]Sample, error) {
	samples, _, err := captureSamplesStats(m, cons, tr)
	return samples, err
}

// captureSamplesStats is CaptureSamples plus the device's stall and drop
// counters at the end of the capture.
func captureSamplesStats(m *nic.Model, cons []core.Constraint, tr *workload.Trace) ([]Sample, captureStats, error) {
	dev, err := nicsim.New(m, nicsim.Config{RingEntries: 64})
	if err != nil {
		return nil, captureStats{}, err
	}
	if err := dev.ApplyConfig(cons); err != nil {
		return nil, captureStats{}, err
	}
	active, err := dev.ActivePath()
	if err != nil {
		return nil, captureStats{}, err
	}
	size := active.SizeBytes()
	samples := make([]Sample, 0, len(tr.Packets))
	for i, p := range tr.Packets {
		if !dev.RxPacket(p) {
			st := dev.Stats()
			return nil, captureStats{}, fmt.Errorf(
				"bench: rx failed at packet %d/%d on %s (device drops=%d, cmpt ring %d/%d full, %d full-stalls)",
				i, len(tr.Packets), m.Name, st.Drops,
				dev.CmptRing.Occupancy(), dev.CmptRing.Capacity(), st.Ring.FullStalls)
		}
		dev.CmptRing.Consume(func(e []byte) {
			samples = append(samples, Sample{
				Cmpt:   append([]byte(nil), e[:size]...),
				Packet: p,
			})
		})
	}
	st := dev.Stats()
	return samples, captureStats{fullStalls: st.Ring.FullStalls, drops: st.Drops}, nil
}

// measure times fn over sample indices [0, n) until it has run at least
// minDur in total, and returns nanoseconds per sample. The fastest round is
// reported (minimum-of-rounds is robust to scheduler noise from concurrent
// work).
func measure(n int, minDur time.Duration, fn func(i int)) float64 {
	// Warm-up pass.
	for i := 0; i < n; i++ {
		fn(i)
	}
	var total time.Duration
	best := math.Inf(1)
	for total < minDur {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		d := time.Since(start)
		total += d
		if ns := float64(d.Nanoseconds()) / float64(n); ns < best {
			best = ns
		}
	}
	return best
}

// Stacks is the four host stacks of the datapath comparison for one intent
// over the mlx5 device. Kernel-style stacks (skbuff, mbuf, xdp) consume the
// full 64-byte CQE — a driver extracts what the descriptor carries; OpenDesc
// consumes the completion layout its compiler selected for the intent. Each
// stack is one Step method: E4 times it (Run), and testing.B loops drive it
// directly.
type Stacks struct {
	intent   []semantics.Name
	full     []Sample // full-CQE samples (baseline stacks)
	selected []Sample // OpenDesc-selected layout samples
	selBytes int

	skbDrv  *baseline.SkBuffDriver
	mbufDrv *baseline.MbufDriver
	xdp     *baseline.XDPDriver

	// Accessor handles resolved once per intent (what real applications
	// cache at startup): dynfield handles for mbuf, reader pointers for the
	// generated OpenDesc accessors.
	mbufAcc   []baseline.MbufAccessor
	odReaders []*codegen.Reader

	// Per-sample scratch, and the sink that defeats dead-code elimination.
	skb  baseline.SkBuff
	mb   baseline.Mbuf
	sink uint64

	// capture is what the device lost across both sample captures (full-CQE
	// and selected-layout).
	capture captureStats
}

// NewStacks prepares the four stacks for an intent over a trace.
func NewStacks(intent []semantics.Name, tr *workload.Trace) (*Stacks, error) {
	m := nic.MustLoad("mlx5")
	paths, err := m.Paths()
	if err != nil {
		return nil, err
	}
	var full *core.Path
	for _, p := range paths {
		if p.SizeBytes() == 64 {
			full = p
		}
	}
	if full == nil {
		return nil, fmt.Errorf("bench: mlx5 full CQE path missing")
	}
	fullSamples, fullStats, err := captureSamplesStats(m, full.Constraints, tr)
	if err != nil {
		return nil, err
	}
	res, err := m.Compile(mustIntent(intent...), core.CompileOptions{})
	if err != nil {
		return nil, err
	}
	selSamples, selStats, err := captureSamplesStats(m, res.Config, tr)
	if err != nil {
		return nil, err
	}
	fullStats.add(selStats)
	soft := softnic.Funcs()
	st := &Stacks{
		intent:   intent,
		full:     fullSamples,
		selected: selSamples,
		selBytes: res.CompletionBytes(),
		capture:  fullStats,
		skbDrv:   baseline.NewSkBuffDriver(full),
		mbufDrv:  baseline.NewMbufDriver(full, nil),
		xdp:      baseline.NewXDPDriver(full, soft),
	}
	rt := codegen.NewRuntime(res, soft)
	for _, sem := range intent {
		st.mbufAcc = append(st.mbufAcc, st.mbufDrv.Accessor(sem))
		st.odReaders = append(st.odReaders, rt.Reader(sem))
	}
	return st, nil
}

// Samples returns the number of captured samples; every Step takes an index
// below it.
func (s *Stacks) Samples() int { return len(s.full) }

// Run measures every stack and returns ns/packet keyed by stack name.
func (s *Stacks) Run(minDur time.Duration) map[string]float64 {
	n := s.Samples()
	return map[string]float64{
		"skbuff":   measure(n, minDur, s.StepSkBuff),
		"mbuf":     measure(n, minDur, s.StepMbuf),
		"xdp":      measure(n, minDur, s.StepXDP),
		"opendesc": measure(n, minDur, s.StepOpenDesc),
	}
}

// StepSkBuff processes full-CQE sample i via eager sk_buff extraction.
func (s *Stacks) StepSkBuff(i int) {
	sm := &s.full[i]
	s.skbDrv.Fill(&s.skb, sm.Cmpt, len(sm.Packet))
	for _, sem := range s.intent {
		v, ok := s.skb.Read(sem)
		if !ok {
			// Not representable: recompute in software like the kernel
			// would for an unknown offload.
			v = softFallback(sem, sm.Packet)
		}
		s.sink += v
	}
}

// StepMbuf processes full-CQE sample i via the mbuf flags+dynfield path.
func (s *Stacks) StepMbuf(i int) {
	sm := &s.full[i]
	s.mbufDrv.Fill(&s.mb, sm.Cmpt, len(sm.Packet))
	for j, acc := range s.mbufAcc {
		v, ok := acc.Read(&s.mb)
		if !ok {
			v = softFallback(s.intent[j], sm.Packet)
		}
		s.sink += v
	}
}

// StepXDP processes full-CQE sample i via the 3-kfunc XDP model.
func (s *Stacks) StepXDP(i int) {
	sm := &s.full[i]
	meta := s.xdp.Wrap(sm.Cmpt, len(sm.Packet))
	for _, sem := range s.intent {
		v, _ := meta.Read(sem, sm.Packet)
		s.sink += v
	}
}

// StepOpenDesc processes selected-layout sample i via generated accessors.
func (s *Stacks) StepOpenDesc(i int) {
	sm := &s.selected[i]
	for _, r := range s.odReaders {
		s.sink += r.Read(sm.Cmpt, sm.Packet)
	}
}

var softFuncs = softnic.Funcs()

func softFallback(sem semantics.Name, packet []byte) uint64 {
	if f := softFuncs[sem]; f != nil {
		return f(packet)
	}
	return 0
}

// E4Intents are the request mixes of the datapath comparison.
var E4Intents = []struct {
	Name string
	Sems []semantics.Name
}{
	{"hash-only", []semantics.Name{semantics.RSS}},
	{"lb", []semantics.Name{semantics.RSS, semantics.PktLen}},
	{"vlan-app", []semantics.Name{semantics.RSS, semantics.VLAN, semantics.PktLen}},
	{"fw", []semantics.Name{semantics.RSS, semantics.IPChecksum, semantics.L4Checksum, semantics.PktLen}},
	{"telemetry", []semantics.Name{semantics.RSS, semantics.Timestamp, semantics.VLAN, semantics.FlowID, semantics.PktLen}},
}

// e4Row is one intent of the datapath comparison: ns/packet per stack, and
// the prepared stacks themselves (the layout the compiler selected; the test
// measures the accessor path's allocations on them).
type e4Row struct {
	intent string
	ns     map[string]float64
	stacks *Stacks
}

// bestBaseline is the fastest of the three kernel-style stacks.
func (r *e4Row) bestBaseline() float64 {
	return math.Min(r.ns["skbuff"], math.Min(r.ns["mbuf"], r.ns["xdp"]))
}

type e4Run struct {
	rows    []e4Row
	capture captureStats
}

// E4Datapath measures per-packet metadata-handling cost per host stack on
// simulated mlx5 traffic — the experiment behind the paper's §2 motivation
// numbers (TinyNF 1.7×, X-Change +70%): eager extraction and indirection
// layers cost more than direct generated accessors, and XDP collapses once a
// request leaves its 3 covered hints. The timings are context; the tracked
// accessor cost is cmd/benchmark's codegen.read_hw_ns and
// opendesc.get_ns_per_read.
func E4Datapath(packets int, minDur time.Duration) (*Table, error) {
	spec := workload.DefaultSpec()
	spec.Packets = packets
	tr, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	run := &e4Run{}
	for _, it := range E4Intents {
		st, err := NewStacks(it.Sems, tr)
		if err != nil {
			return nil, err
		}
		run.rows = append(run.rows, e4Row{intent: it.Name, ns: st.Run(minDur), stacks: st})
		run.capture.add(st.capture)
	}
	t := &Table{
		ID:    "E4",
		Title: "Host datapath cost per stack (ns/packet, simulated mlx5)",
		Note: "skbuff: eager full extraction; mbuf: flags+dynfield indirection;\n" +
			"xdp: 3 kfuncs + software recompute beyond them; opendesc: generated\n" +
			"fixed-offset accessors over the compiler-selected layout.\n" +
			fmt.Sprintf("capture: %d ring full-stalls, %d device drops", run.capture.fullStalls, run.capture.drops),
		Header: []string{"intent", "cmpt-bytes(od)", "skbuff", "mbuf", "xdp", "opendesc", "best-baseline/od"},
		run:    run,
	}
	for _, r := range run.rows {
		t.AddRow(r.intent, r.stacks.selBytes, r.ns["skbuff"], r.ns["mbuf"], r.ns["xdp"], r.ns["opendesc"],
			fmt.Sprintf("%.2fx", r.bestBaseline()/r.ns["opendesc"]))
	}
	return t, nil
}

// E9MbufDyn measures the DPDK rte_mbuf_dyn indirection cost as the number of
// flag-guarded dynamic offload fields grows (the mechanism the paper notes
// "has itself become a performance bottleneck").
func E9MbufDyn(minDur time.Duration) (*Table, error) {
	tr, err := workload.Generate(workload.DefaultSpec())
	if err != nil {
		return nil, err
	}
	m := nic.MustLoad("mlx5")
	paths, err := m.Paths()
	if err != nil {
		return nil, err
	}
	var full *core.Path
	for _, p := range paths {
		if p.SizeBytes() == 64 {
			full = p
		}
	}
	samples, err := CaptureSamples(m, full.Constraints, tr)
	if err != nil {
		return nil, err
	}
	dynOrder := []semantics.Name{
		semantics.Timestamp, semantics.FlowID, semantics.Mark,
		semantics.LROSegs, semantics.IPChecksum, semantics.L4Checksum,
		semantics.TunnelID, semantics.ErrorFlags,
	}
	t := &Table{
		ID:    "E9",
		Title: "DPDK-style dynfield indirection cost vs enabled offloads (mlx5 full CQE)",
		Note: "fill+read ns/packet as flag-guarded dynamic fields are enabled; the\n" +
			"opendesc column reads the same semantics through generated accessors.",
		Header: []string{"dynfields", "mbuf-ns/pkt", "opendesc-ns/pkt", "ratio"},
	}
	soft := softnic.Funcs()
	for k := 0; k <= len(dynOrder); k++ {
		enabled := append([]semantics.Name{semantics.RSS, semantics.VLAN, semantics.PktLen}, dynOrder[:k]...)
		drv := baseline.NewMbufDriver(full, enabled)
		accs := make([]baseline.MbufAccessor, len(enabled))
		for i, sem := range enabled {
			accs[i] = drv.Accessor(sem)
		}
		var mb baseline.Mbuf
		var sink uint64
		mbufNs := measure(len(samples), minDur, func(i int) {
			s := &samples[i]
			drv.Fill(&mb, s.Cmpt, len(s.Packet))
			for _, acc := range accs {
				v, _ := acc.Read(&mb)
				sink += v
			}
		})
		res, err := m.Compile(mustIntent(enabled...), core.CompileOptions{})
		if err != nil {
			return nil, err
		}
		rt := codegen.NewRuntime(res, soft)
		readers := make([]*codegen.Reader, len(enabled))
		for i, sem := range enabled {
			readers[i] = rt.Reader(sem)
		}
		sel, err := CaptureSamples(m, res.Config, tr)
		if err != nil {
			return nil, err
		}
		odNs := measure(len(sel), minDur, func(i int) {
			s := &sel[i]
			for _, r := range readers {
				sink += r.Read(s.Cmpt, s.Packet)
			}
		})
		_ = sink
		t.AddRow(k, mbufNs, odNs, fmt.Sprintf("%.2fx", mbufNs/odNs))
	}
	return t, nil
}
