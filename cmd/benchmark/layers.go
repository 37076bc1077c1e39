package main

import (
	"fmt"
	"slices"

	"opendesc"
	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/diffverify"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
	"opendesc/internal/obs"
	"opendesc/internal/obs/flight"
	"opendesc/internal/pkt"
	"opendesc/internal/ring"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
)

// Shares of the window the traced pass spends on its parts.
const (
	refShare    = 0.45 // untraced reference window (the traced pass's own end-to-end numbers)
	tracedShare = 0.25 // traced window
	replayShare = 0.03 // each timed layer-isolation replay
	// traceCapacity bounds the spans kept per workload (24 B each).
	traceCapacity = 3 << 19
	// setupReps is how many times each bring-up layer is timed, verifyReps
	// how many times each NIC is verified.
	setupReps  = 30
	verifyReps = 5
)

// sink keeps the replays' results alive so the compiler cannot drop the calls.
var sink uint64

// Calls a replay times at once: a burst's worth of the simulated hardware,
// more of the layers that cost nanoseconds, so that the two clock reads around
// a chunk stay under a hundredth of it.
const (
	nicsimChunk = 32
	replayChunk = 1024
)

// timed makes calls 0..n-1 in chunks (step(lo, hi) makes calls lo..hi-1), lap
// after lap for about budgetNs, and returns the quiet-lap nanoseconds (the
// clock is read around every chunk; see quietBySlot) and the mean allocations
// per call.
func timed(clk clock, budgetNs int64, n, chunk int, step func(lo, hi int)) (nsPerCall, allocsPerCall float64) {
	step(0, n) // warm
	slots := (n + chunk - 1) / chunk
	xs := make([]float64, 0, 64*slots)
	m0 := mallocCount()
	start := clk.now()
	for t := start; t-start < budgetNs; {
		for lo := 0; lo < n; lo += chunk {
			step(lo, min(lo+chunk, n))
			now := clk.now()
			xs = append(xs, float64(now-t))
			t = now
		}
	}
	allocsPerCall = float64(mallocCount()-m0) / float64(len(xs)/slots*n)
	var lapNs float64
	for _, ns := range quietBySlot(xs, 0, slots) {
		lapNs += ns
	}
	return lapNs / float64(n), allocsPerCall
}

// quietOf times f reps times and returns the quiet quantile in nanoseconds.
func quietOf(clk clock, reps int, f func() error) (int64, error) {
	samples := make([]int64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := clk.now()
		if err := f(); err != nil {
			return 0, err
		}
		samples = append(samples, clk.now()-t0)
	}
	return quiet(samples), nil
}

// budgetRow is one line of the stage budget: a layer's cost per unit of
// work (a packet, or a grid cell on compile_open), measured in isolation.
type budgetRow struct {
	layer  string
	ns     float64
	allocs float64
	// summed rows are disjoint pieces of the blocking path and add up to the
	// end-to-end cost; the others are "of which" context.
	summed bool
}

// layerResults collects what the replays of one workload produced.
type layerResults struct {
	m      *measured
	budget []budgetRow
}

func (l *layerResults) set(name string, v float64) { l.m.Metrics[name] = v }

func (l *layerResults) row(layer string, ns, allocs float64, summed bool) {
	l.budget = append(l.budget, budgetRow{layer, ns, allocs, summed})
}

// deviceConfig returns what the workload's device runs under: the register
// constraints, the compilation results (one per tenant on the plane, one
// otherwise) and the device sizing.
func deviceConfig(p *prepared) (model *nic.Model, config []core.Constraint, results []*core.Result, devCfg nicsim.Config, err error) {
	model, err = nic.Load(p.w.nic)
	if err != nil {
		return nil, nil, nil, devCfg, err
	}
	if p.r.st.plane != nil {
		jr := p.r.st.plane.Joint()
		return model, jr.Config, jr.PerTenant, nicsim.Config{RingEntries: 2048}, nil
	}
	res := p.r.st.drv.Result
	return model, res.Config, []*core.Result{res}, nicsim.Config{}, nil
}

// hardenConsts are the device-state constants a hardened driver's validator
// pins under the default device configuration (harden.go's softConsts).
var hardenConsts = map[semantics.Name]uint64{
	semantics.QueueID: 0, semantics.Mark: 0, semantics.CryptoCtx: 0,
	semantics.LROSegs: 1, semantics.SegCnt: 1, semantics.RXDropHint: 0,
}

// datapathLayers replays each datapath layer in isolation over the
// workload's own trace, on a device configured like the workload's.
func datapathLayers(p *prepared, l *layerResults) error {
	clk, tr := p.clk, p.r.c.tr
	budget := max(int64(float64(p.cfg.windowNs)*replayShare), 20_000_000)
	model, config, results, devCfg, err := deviceConfig(p)
	if err != nil {
		return err
	}

	// nicsim: the simulated hardware alone — RxPacket (offload engines,
	// deparser walk, completion DMA into the ring) and the ring pop — on
	// devices configured and fed like the workload's: one per RSS shard,
	// and at the workload's own arrival pattern when that is not a tight
	// loop (a packet every ~10 us finds colder caches than a burst does).
	queueOf := make([]int, len(tr.pkts))
	devs := make([]*nicsim.Device, max(1, len(p.r.c.order)))
	for q, idxs := range p.r.c.order {
		for _, i := range idxs {
			queueOf[i] = q
		}
	}
	for q := range devs {
		if devs[q], err = nicsim.New(model, devCfg); err != nil {
			return err
		}
		if err := devs[q].ApplyConfig(config); err != nil {
			return err
		}
	}
	cmpts := make([][]byte, len(tr.pkts))
	for i, pk := range tr.pkts {
		dev := devs[queueOf[i]]
		if !dev.RxPacket(pk) {
			return fmt.Errorf("nicsim replay: packet %d refused", i)
		}
		cmpts[i] = slices.Clone(dev.CmptRing.Peek())
		dev.CmptRing.Pop()
	}
	var rxNs, rxAllocs float64
	if p.w.kind == openLoop {
		arrivals := newPoisson(uint64(p.cfg.seed))
		m0, calls, busy := mallocCount(), 0, int64(0)
		var units []float64 // busy nanoseconds per call, unitPkts calls at a time
		start := clk.now()
		for next := start; next-start < 3*budget; calls++ {
			next += arrivals.gap(gatedRatePPS)
			for clk.now() < next {
			}
			t0 := clk.now()
			devs[0].RxPacket(tr.pkts[calls%len(tr.pkts)])
			devs[0].CmptRing.Pop()
			busy += clk.now() - t0
			if calls%unitPkts == unitPkts-1 {
				units = append(units, float64(busy)/unitPkts)
				busy = 0
			}
		}
		rxNs = mean(quietBySlot(units, 0, 1)) - l.m.Metrics["bench.clock_ns"]
		rxAllocs = float64(mallocCount()-m0) / float64(calls)
	} else {
		rxNs, rxAllocs = timed(clk, 3*budget, len(tr.pkts), nicsimChunk, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				dev := devs[queueOf[i]]
				dev.RxPacket(tr.pkts[i])
				dev.CmptRing.Pop()
			}
		})
	}
	dev := devs[0]
	l.set("nicsim.rx_ns_per_pkt", rxNs)
	l.set("nicsim.rx_allocs_per_pkt", rxAllocs)
	l.set("nicsim.cmpt_bytes", float64(results[0].CompletionBytes()))
	l.row("nicsim.rx (RxPacket + ring pop)", rxNs, rxAllocs, true)

	// ring: push + consume at the workload's record size.
	rg, err := ring.New(dev.CmptRing.EntrySize(), dev.CmptRing.Capacity())
	if err != nil {
		return err
	}
	use := func(e []byte) { sink += uint64(e[0]) }
	ringNs, ringAllocs := timed(clk, budget, len(cmpts), replayChunk, func(lo, hi int) {
		for _, c := range cmpts[lo:hi] {
			rg.Push(c)
			rg.Consume(use)
		}
	})
	l.set("ring.push_consume_ns", ringNs)
	l.row("  of which ring push + consume", ringNs, ringAllocs, false)

	if p.r.st.plane != nil {
		var info pkt.Info
		ns, allocs := timed(clk, budget, len(tr.pkts), replayChunk, func(lo, hi int) {
			for _, pk := range tr.pkts[lo:hi] {
				if pkt.Decode(pk, &info) == nil {
					sink += uint64(p.r.st.plane.Steer(&info))
				}
			}
		})
		l.set("tenant.classify_ns_per_pkt", ns)
		l.row("tenant classify (decode + steer)", ns, allocs, true)
	}

	if p.r.st.drv != nil && p.r.st.drv.Hardened() {
		for _, deep := range []bool{false, true} {
			v, err := codegen.NewValidator(results[0], codegen.ValidatorOptions{Deep: deep, Soft: softnic.Funcs(), Consts: hardenConsts})
			if err != nil {
				return err
			}
			ns, allocs := timed(clk, budget, len(cmpts), replayChunk, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if v.Check(cmpts[i], tr.pkts[i]) != nil {
						sink++
					}
				}
			})
			if deep {
				l.set("codegen.validate_deep_ns", ns)
				l.row("codegen.validate (deep)", ns, allocs, true)
			} else {
				l.set("codegen.validate_struct_ns", ns)
				l.row("  of which structural tier", ns, allocs, false)
			}
		}
	}

	// codegen: the reads the handler's plan makes, through the linked
	// readers, split into hardware accessors and SoftNIC shims.
	rts := make([]*codegen.Runtime, len(results))
	for i, res := range results {
		rts[i] = codegen.NewRuntime(res, softnic.Funcs())
	}
	type read struct {
		r   *codegen.Reader
		idx int
	}
	var hw, soft []read
	c := &consumer{tr: tr, all: p.r.c.all}
	plan := planAll
	if p.w.plan != nil {
		plan = p.w.plan
	}
	for idx := range tr.pkts {
		rt := rts[0]
		if tr.tenantOf != nil {
			rt = rts[tr.tenantOf[idx]]
		}
		for _, k := range plan(c, idx) {
			rd := rt.Reader(semantics.Name(tr.sems[k]))
			if rd.Hardware {
				hw = append(hw, read{rd, idx})
			} else {
				soft = append(soft, read{rd, idx})
			}
		}
		c.delivered++
	}
	perPkt := func(reads []read) float64 { return float64(len(reads)) / float64(len(tr.pkts)) }
	replay := func(reads []read) (float64, float64) {
		if len(reads) == 0 {
			return 0, 0
		}
		return timed(clk, budget, len(reads), replayChunk, func(lo, hi int) {
			for _, rd := range reads[lo:hi] {
				sink += rd.r.Read(cmpts[rd.idx], tr.pkts[rd.idx])
			}
		})
	}
	hwNs, hwAllocs := replay(hw)
	softNs, softAllocs := replay(soft)
	l.set("codegen.read_hw_ns", hwNs)
	l.set("codegen.read_soft_ns", softNs)
	l.set("codegen.hw_read_frac", float64(len(hw))/float64(len(hw)+len(soft)))
	if len(hw) > 0 {
		l.row(fmt.Sprintf("codegen hardware reads (%.2f/pkt)", perPkt(hw)), hwNs*perPkt(hw), hwAllocs*perPkt(hw), true)
	}
	if len(soft) > 0 {
		l.row(fmt.Sprintf("codegen shim reads (%.2f/pkt)", perPkt(soft)), softNs*perPkt(soft), softAllocs*perPkt(soft), true)
	}

	// softnic: the shim bodies of the semantics the layout lacks, called
	// directly.
	var shims []codegen.SoftFunc
	for _, s := range results[0].Missing() {
		if f := softnic.Funcs()[s]; f != nil {
			shims = append(shims, f)
		}
	}
	if len(shims) > 0 {
		ns, allocs := timed(clk, budget, len(tr.pkts), replayChunk, func(lo, hi int) {
			for _, f := range shims {
				for _, pk := range tr.pkts[lo:hi] {
					sink += f(pk)
				}
			}
		})
		ns, allocs = ns/float64(len(shims)), allocs/float64(len(shims))
		l.set("softnic.shim_ns_per_call", ns)
		l.row(fmt.Sprintf("  of which softnic shim bodies (mean of %d)", len(shims)), ns, allocs, false)
	}
	return nil
}

// recorderLayers times the observability primitives on their own and the
// tax the always-on flight recorder puts on the host path.
func recorderLayers(p *prepared, l *layerResults) {
	budget := max(int64(float64(p.cfg.windowNs)*replayShare), 20_000_000)
	q := flight.NewRecorder(flight.Config{}).Queue("bench")
	seq := uint32(0)
	ns, _ := timed(p.clk, budget, replayChunk, replayChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			seq++
			q.Record(flight.EvDeliver, seq, 1, 2)
		}
	})
	l.set("flight.record_ns", ns)
	h := obs.NewHistogram()
	ns, _ = timed(p.clk, budget, replayChunk, replayChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			h.Observe(uint64(i) * 37)
		}
	})
	l.set("obs.observe_ns", ns)

	// Tax: host cost with the driver's recorder off versus on.
	p.r.st.drv.Flight().SetEnabled(false)
	off := p.r.closed(3 * budget).hostNsPerPkt()
	p.r.st.drv.Flight().SetEnabled(true)
	on := p.r.closed(3 * budget).hostNsPerPkt()
	l.set("flight.tax_frac", (on-off)/on)
	l.row("  of which flight recorder + histograms (on vs off)", on-off, 0, false)
}

// bringupLayerNames are the pieces of a device bring-up, in the order
// bringupLayers times them: P4 frontend, path selection, device
// construction, register programming and runtime linking.
var bringupLayerNames = [...]string{"p4.frontend_us", "core.select_us", "nicsim.new_us", "nicsim.apply_config_us", "codegen.link_us"}

// bringupLayers times the pieces of a device bring-up for one NIC × intent
// and returns their quiet times in nanoseconds and the paths enumerated.
func bringupLayers(clk clock, m *nic.Model, intent *opendesc.Intent) (ns [len(bringupLayerNames)]int64, paths int, err error) {
	var res *core.Result
	var dev *nicsim.Device
	for i, f := range []func() error{
		func() (err error) {
			_, err = opendesc.CompileP4(m.Name, m.Source, intent, opendesc.CompileOptions{})
			return err
		},
		func() (err error) { res, err = m.Compile(intent, opendesc.CompileOptions{}); return err },
		func() (err error) { dev, err = nicsim.New(m, nicsim.Config{}); return err },
		func() error { return dev.ApplyConfig(res.Config) },
		func() error { sink += uint64(len(codegen.NewRuntime(res, softnic.Funcs()).Readers)); return nil },
	} {
		if ns[i], err = quietOf(clk, setupReps, f); err != nil {
			return ns, 0, err
		}
	}
	// The first timing is a cold CompileP4: the frontend is what it adds to
	// the warm selection.
	ns[0] = max(ns[0]-ns[1], 0)
	return ns, len(res.Paths), nil
}

// controlLayers reports the bring-up layers for the workload's NIC × intent
// (the median cell of the grid on compile_open) and the differential
// verifier per NIC.
func controlLayers(p *prepared, l *layerResults) error {
	cells, nics := p.cells, nic.All()
	if p.w.kind != grid {
		m, err := nic.Load(p.w.nic)
		if err != nil {
			return err
		}
		intent, err := opendesc.NewIntent("bench", p.w.sems...)
		if err != nil {
			return err
		}
		cells, nics = []gridCell{{nic: m, intent: intent}}, []*nic.Model{m}
	}
	var cols [len(bringupLayerNames)][]int64
	paths := 0
	for _, c := range cells {
		ns, np, err := bringupLayers(p.clk, c.nic, c.intent)
		if err != nil {
			return err
		}
		for i := range ns {
			cols[i] = append(cols[i], ns[i])
		}
		paths += np
	}
	for i, name := range bringupLayerNames {
		l.set(name, us(median(cols[i])))
	}
	l.set("core.paths_enumerated", float64(paths)/float64(len(cells)))

	var verifyNs int64
	checks := 0
	for _, m := range nics {
		var rep *diffverify.Report
		ns, err := quietOf(p.clk, verifyReps, func() (err error) {
			rep, err = diffverify.VerifyModel(m, diffverify.Options{})
			return err
		})
		if err != nil {
			return err
		}
		verifyNs += ns
		checks += rep.Checks
	}
	l.set("diffverify.verify_ms_per_nic", float64(verifyNs)/1e6/float64(len(nics)))
	l.set("diffverify.checks", float64(checks))
	return nil
}

// tracedPass is the per-layer pass over one workload: an untraced reference
// window, a traced window whose spans give the in-situ numbers, then each
// layer replayed in isolation, and the budget that sums them.
func tracedPass(w *workloadDef, cfg config) (*measured, []span, error) {
	p, err := prepare(w, cfg, 1, true)
	if err != nil {
		return nil, nil, err
	}
	l := &layerResults{m: &measured{Workload: w.name, Metrics: map[string]float64{}}}
	m := l.m
	for _, d := range perLayer {
		m.Metrics[d.Name] = 0
	}

	clockNs, _ := timed(p.clk, 10_000_000, replayChunk, replayChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sink += uint64(p.clk.now())
		}
	})
	l.set("bench.clock_ns", clockNs)
	l.set("workload.gen_ns_per_pkt", p.quietSetup()[0]/tracePackets)

	ref, err := p.measure(int64(float64(cfg.windowNs)*refShare), nil)
	if err != nil {
		return nil, nil, err
	}
	spans := newTracer(traceCapacity)
	tp, err := p.measure(int64(float64(cfg.windowNs)*tracedShare), spans)
	if err != nil {
		return nil, nil, err
	}
	for _, ps := range []*pass{ref, tp} {
		for _, win := range ps.steps {
			m.Attempted += win.offered
			m.Failed += win.failed()
		}
	}
	g, tg := ref.steps[ref.gated], tp.steps[tp.gated]
	if g.delivered == 0 || tg.delivered == 0 {
		m.problemf("no packet was delivered")
		return m, spans.spans, nil
	}
	l.set("bench.trace_overhead_frac", 1-g.busyNsPerPkt()/tg.busyNsPerPkt())

	// In-situ numbers from the traced window: Rx from its own unit timings,
	// the split of Poll into its self time and the handlers from the spans.
	// A handler span's two clock reads put about one read inside the span and
	// one into its parent's self time; both are taken back out.
	if spans.dropped > 0 {
		m.detailf("trace: kept %d spans, dropped %d past the capacity; per-layer numbers cover the kept part", len(spans.spans), spans.dropped)
	}
	l.set("opendesc.open_us", ref.bring.quietUs(ref.bring.openNs))
	rxPerPkt := tg.nsPerPkt(func(prev, cur cut) int64 { return cur.rxNs - prev.rxNs })
	bursts := spansByBurst(spans.spans)
	// The spans' unit is one burst in closed loop (of at least one delivery,
	// so bursts and lap positions stay aligned), consecutive bursts in open
	// loop.
	perUnit, slot0, slots := int64(1), tg.slot0*unitPkts/max(w.burst, 1), tracePackets/max(w.burst, 1)
	if w.kind == openLoop {
		perUnit, slot0, slots = unitPkts, 0, 1
	}
	perPkt := func(pick func(burstSpans) int64) float64 {
		var xs []float64
		var ns, n int64
		for _, b := range bursts {
			ns, n = ns+pick(b), n+b.handlers
			if n >= perUnit {
				xs = append(xs, float64(ns)/float64(n)-clockNs)
				ns, n = 0, 0
			}
		}
		return max(mean(quietBySlot(xs, slot0, slots)), 0)
	}
	switch {
	case w.kind == grid:
		// Handlers are not traced on the grid (see measure).
		l.set("opendesc.rx_ns_per_pkt", rxPerPkt)
	case tg.reads > 0:
		pollSelf := perPkt(func(b burstSpans) int64 { return b.pollSelfNs })
		readsPerPkt := float64(tg.reads) / float64(tg.delivered)
		l.set("opendesc.get_ns_per_read", perPkt(func(b burstSpans) int64 { return b.handlerNs })/readsPerPkt)
		switch {
		case p.r.st.plane != nil:
			l.set("tenant.rx_ns_per_pkt", rxPerPkt)
			l.set("tenant.poll_self_ns_per_pkt", pollSelf)
		case w.name == "evolve_shift":
			l.set("opendesc.rx_ns_per_pkt", rxPerPkt)
			l.set("evolve.poll_self_ns_per_pkt", pollSelf)
		default:
			l.set("opendesc.rx_ns_per_pkt", rxPerPkt)
			l.set("opendesc.poll_self_ns_per_pkt", pollSelf)
		}
	}
	if len(tg.queueWaitNs) > 0 {
		l.set("opendesc.queue_wait_us_p50", float64(median(tg.queueWaitNs))/1e3)
	}

	// Counters, from the untraced reference window.
	perM := 1e6 / float64(g.delivered)
	l.set("opendesc.quarantined", float64(ref.quarantined)*perM)
	l.set("opendesc.soft_delivered", float64(ref.softDelivered)*perM)
	l.set("evolve.switches", float64(ref.switches)*perM)
	l.set("evolve.drained_pkts", float64(ref.drained)*perM)
	l.set("evolve.rollbacks", float64(ref.rollbacks))
	if len(g.switchNs) > 0 {
		l.set("evolve.renegotiate_us", float64(quiet(g.switchNs))/1e3)
	}
	if drv := p.r.st.drv; drv != nil {
		rs := drv.DeviceStats().Ring
		l.set("ring.highwater", float64(rs.HighWater))
		l.set("ring.full_stalls", float64(rs.FullStalls))
	}
	if plane := p.r.st.plane; plane != nil {
		st := plane.Stats()
		var most, total float64
		for _, c := range st.Cores {
			most, total = max(most, float64(c.Delivered)), total+float64(c.Delivered)
		}
		l.set("tenant.steals", float64(st.Steals)*1e6/total)
		l.set("tenant.shard_imbalance", most/(total/float64(len(st.Cores))))
		l.set("tenant.fairness", tenantFairness(ref))
	}
	l.set("bench.lat_p90_us", g.quietLatencyUs(0.9))
	pktsPerSample := uint64(1)
	if w.kind != openLoop {
		pktsPerSample = uint64(w.burst)
	}
	l.set("bench.slo_ok_frac", sloShare(g, w.sloUs, pktsPerSample))
	if w.kind == openLoop {
		for name, v := range openLoopContext(ref, m) {
			if _, ok := m.Metrics[name]; ok {
				l.set(name, v)
			}
		}
	}
	sanity(ref, m)

	// Layer-isolation replays and the budget.
	if w.kind != grid {
		if err := datapathLayers(p, l); err != nil {
			return nil, nil, err
		}
	}
	if w.name == "hw_fastpath" {
		recorderLayers(p, l)
		if f := m.Metrics["codegen.hw_read_frac"]; f != 1 {
			m.problemf("hw_fastpath must read only hardware accessors, codegen.hw_read_frac = %.4f", f)
		}
	}
	if err := controlLayers(p, l); err != nil {
		return nil, nil, err
	}
	l.printBudget(ref)
	return m, spans.spans, nil
}

// printBudget renders the stage budget of one workload: every layer's
// isolated cost per unit of work, its share of the end-to-end cost measured
// with tracing off, and the residual the layers do not explain (facade
// bookkeeping, Meta.Get's lookup, the recorder, and the harness's own checks
// and clock reads).
func (l *layerResults) printBudget(ref *pass) {
	m, g := l.m, ref.steps[ref.gated]
	unit, total := "pkt", g.busyNsPerPkt()
	if ref.w.kind == grid {
		// The grid's unit of work is one cell: cold compile, open, smoke
		// burst, and its share of the lap's verification pass. The summed
		// rows are the window's own quiet times, averaged over the cells; the
		// "of which" rows are the isolated pieces of the median cell. The
		// collection before each cell is the harness's and outside the total.
		b := ref.bring
		cells := float64(b.cells)
		verify := float64(quiet(slices.Clone(b.verifyNs))) / cells
		unit, total = "cell", mean(g.quietLap(func(prev, cur cut) float64 { return float64(g.lat[prev.lat]) }))+verify
		v := m.Metrics
		l.row("opendesc.CompileP4, cold", mean(b.quietCells(b.compileNs)), 0, true)
		l.row("  of which p4 frontend", v["p4.frontend_us"]*1e3, 0, false)
		l.row("  of which core path selection", v["core.select_us"]*1e3, 0, false)
		l.row("opendesc.Open", mean(b.quietCells(b.openNs)), 0, true)
		l.row("  of which core path selection, warm", v["core.select_us"]*1e3, 0, false)
		l.row("  of which nicsim.New", v["nicsim.new_us"]*1e3, 0, false)
		l.row("  of which nicsim.ApplyConfig", v["nicsim.apply_config_us"]*1e3, 0, false)
		l.row("  of which codegen link", v["codegen.link_us"]*1e3, 0, false)
		l.row(fmt.Sprintf("smoke burst (Rx + Poll, %d packets)", smokeBurst), g.busyNsPerPkt()*smokeBurst, 0, true)
		l.row("diffverify, six NICs per lap (share of one cell)", verify, 0, true)
		l.row("  beside it, harness: runtime.GC() before each cell (mean)", float64(b.gcNs)/float64(len(b.openNs)), 0, false)
	}
	if ref.w.name == "evolve_shift" {
		l.row("evolve re-solve (core select every 256 pkts)", m.Metrics["core.select_us"]*1e3/256, 0, true)
	}
	var sum float64
	m.detailf("stage budget, per %s, quiet-machine numbers (end to end, tracing off: %.1f ns):", unit, total)
	m.detailf("  %-52s %12s %10s %7s", "layer", "ns/"+unit, "allocs", "share")
	for _, r := range l.budget {
		if r.summed {
			sum += r.ns
		}
		m.detailf("  %-52s %12.1f %10.3f %6.1f%%", r.layer, r.ns, r.allocs, 100*r.ns/total)
	}
	m.detailf("  %-52s %12.1f %10s %6.1f%%", "residual (end to end minus the summed layers)", total-sum, "", 100*(total-sum)/total)
	l.set("bench.residual_frac", (total-sum)/total)
}
