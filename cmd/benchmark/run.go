package main

import (
	"fmt"
	"runtime"
	"slices"

	"opendesc"
	"opendesc/internal/diffverify"
	"opendesc/internal/nic"
)

// config is what one run is parameterised by: the seed and the window from
// the command line. Everything else is a constant of the benchmark.
type config struct {
	seed     int64
	windowNs int64
	// setupRounds is how many set-ups setup_s is taken over: the constant of
	// the same name in every real run; the harness's own tests lower it.
	setupRounds int
}

// Phases outside the window, as shares of it so that a shorter window
// shortens the whole run. At the default 12 s: 1.6 s of warm-up, 0.96 s of
// opens.
const (
	setupRounds  = 21
	warmupShare  = 2.0 / 15
	bringupShare = 0.08
)

// bringup holds device bring-up timings: opens and, on the grid, cold
// compiles and verification passes.
type bringup struct {
	compileNs, openNs, verifyNs []int64
	// cells is how many grid cells the compile and open timings cycle
	// through; 1 off the grid, where every repetition is the same call.
	cells int
	// gcNs is the time the grid spent collecting between cells: harness
	// time, outside every metric, but inside the window's wall time.
	gcNs int64
}

// quietCells returns every cell's quiet time in nanoseconds: ns[i] timed cell
// i % b.cells.
func (b *bringup) quietCells(ns []int64) []float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return quietBySlot(xs, 0, b.cells)
}

// quietUs is the quiet time of the median cell, in microseconds.
func (b *bringup) quietUs(ns []int64) float64 { return median(b.quietCells(ns)) / 1e3 }

// gridCell is one NIC × intent cell of compile_open.
type gridCell struct {
	nic    *nic.Model
	intent *opendesc.Intent
	sems   []string
	plan   []uint8
	mask   []uint64
}

func gridCells() ([]gridCell, error) {
	var cells []gridCell
	for _, m := range nic.All() {
		mask, err := widthMasks(m.Name, gridSems)
		if err != nil {
			return nil, err
		}
		for _, plan := range gridIntents {
			var sems []string
			for _, k := range plan {
				sems = append(sems, gridSems[k])
			}
			intent, err := opendesc.NewIntent("bench", sems...)
			if err != nil {
				return nil, err
			}
			cells = append(cells, gridCell{nic: m, intent: intent, sems: sems, plan: plan, mask: mask})
		}
	}
	return cells, nil
}

// verifyNICs runs the differential harness over the six bundled NICs; every
// verdict must be a pass.
func verifyNICs() error {
	for _, m := range nic.All() {
		rep, err := diffverify.VerifyModel(m, diffverify.Options{})
		if err != nil {
			return fmt.Errorf("verify %s: %w", m.Name, err)
		}
		if !rep.OK() {
			return fmt.Errorf("verify %s: %d disagreements", m.Name, len(rep.Disagreements))
		}
	}
	return nil
}

// gridLap brings every cell up once — cold compile, open, one checked smoke
// burst — then verifies the six descriptions. It is compile_open's unit of
// work, its set-up check, and its warm-up.
func (r *runner) gridLap(cells []gridCell, w *window, b *bringup) error {
	for i := range cells {
		cell := &cells[i]
		r.burst++
		tgc := r.clk.now()
		runtime.GC() // the same allocator state for every cell: see measureBringup
		t0 := r.clk.now()
		b.gcNs += t0 - tgc
		if _, err := opendesc.CompileP4(cell.nic.Name, cell.nic.Source, cell.intent, opendesc.CompileOptions{}); err != nil {
			return fmt.Errorf("compile %s %v: %w", cell.nic.Name, cell.sems, err)
		}
		t1 := r.clk.now()
		drv, err := opendesc.Open(cell.nic.Name, cell.sems...)
		if err != nil {
			return fmt.Errorf("open %s %v: %w", cell.nic.Name, cell.sems, err)
		}
		t2 := r.clk.now()
		r.st = &stack{drv: drv}
		if err := r.st.bind(r.c); err != nil {
			return err
		}
		// The cell's intent is "every semantic" for its smoke burst.
		r.c.mask, r.c.all = cell.mask, cell.plan
		accepted := 0
		for j := 0; j < smokeBurst; j++ {
			if drv.Rx(r.c.tr.pkts[r.next]) {
				accepted++
			} else {
				w.refused++
			}
			r.next = (r.next + 1) % len(r.c.tr.pkts)
		}
		t3 := r.clk.now()
		r.drain(accepted)
		t4 := r.clk.now()
		if r.spans != nil {
			root := r.spans.add(spanBurst, -1, r.burst, t0, t4)
			r.spans.add(spanCompile, root, r.burst, t0, t1)
			r.spans.add(spanOpen, root, r.burst, t1, t2)
			r.spans.add(spanRx, root, r.burst, t2, t3)
			r.spans.add(spanPoll, root, r.burst, t3, t4)
		}
		w.offered += smokeBurst
		w.rxNs += t3 - t2
		w.pollNs += t4 - t3
		// A smoke packet's latency runs from when the operator asked for the
		// device: time to first traffic.
		w.lat = append(w.lat, clampNs(t4-t0))
		b.compileNs = append(b.compileNs, t1-t0)
		b.openNs = append(b.openNs, t2-t1)
		w.cutAt(r.c.delivered)
	}
	t0 := r.clk.now()
	if err := verifyNICs(); err != nil {
		return err
	}
	t1 := r.clk.now()
	if r.spans != nil {
		r.burst++
		r.spans.add(spanVerify, -1, r.burst, t0, t1)
	}
	b.verifyNs = append(b.verifyNs, t1-t0)
	return nil
}

// grid repeats gridLap for durNs.
func (r *runner) grid(durNs int64, cells []gridCell) (*window, *bringup, error) {
	w := &window{lat: make([]uint32, 0, durNs/100_000+1024), slots: len(cells)}
	b := &bringup{cells: len(cells)}
	m := r.begin(w)
	start := m.start
	for now := start; now-start < durNs; now = r.clk.now() {
		if err := r.gridLap(cells, w, b); err != nil {
			return nil, nil, err
		}
	}
	r.finish(w, m)
	return w, b, nil
}

// setup generates the workload's inputs from the seed, brings its device up
// and runs the verification lap: the whole trace once through the stack with
// every read compared against the SoftNIC golden. pieces are the durations of
// its parts, the same parts in every round: generating the trace, computing
// the golden table, bring-up, then every burst (every cell) of the
// verification lap.
func setup(w *workloadDef, cfg config, clk clock) (r *runner, cells []gridCell, pieces []int64, err error) {
	last := clk.now()
	piece := func() {
		now := clk.now()
		pieces = append(pieces, now-last)
		last = now
	}
	pkts, tenantOf, err := w.gen(cfg.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	piece()
	tr, err := newTrace(pkts, tenantOf, w.sems)
	if err != nil {
		return nil, nil, nil, err
	}
	piece()
	r = &runner{w: w, clk: clk}
	if w.kind == grid {
		if cells, err = gridCells(); err != nil {
			return nil, nil, nil, err
		}
		piece()
		r.c = newConsumer(tr, nil)
		var win window
		var b bringup
		if err := r.gridLap(cells, &win, &b); err != nil {
			return nil, nil, nil, err
		}
		if r.c.good != win.offered {
			return nil, nil, nil, fmt.Errorf("%s: verification lap: %d of %d smoke deliveries matched the golden", w.name, r.c.good, win.offered)
		}
		// The lap timed its own cells; the collections before them are the
		// harness's, here as in the window.
		for _, ns := range win.lat {
			pieces = append(pieces, int64(ns))
		}
		return r, cells, append(pieces, b.verifyNs[0]), nil
	}
	mask, err := widthMasks(w.nic, w.sems)
	if err != nil {
		return nil, nil, nil, err
	}
	r.c = newConsumer(tr, mask)
	if w.store {
		r.c.kvSem = slices.Index(w.sems, "kv_key")
		for i := range r.c.kv {
			r.c.kv[i] = make(map[uint64]uint64)
		}
	}
	if r.st, err = w.open(cfg.seed); err != nil {
		return nil, nil, nil, err
	}
	if err := r.st.bind(r.c); err != nil {
		return nil, nil, nil, err
	}
	if w.plan != nil && !w.verifyAll {
		r.c.plan = w.plan
	}
	piece()
	burst := max(w.burst, openLoopBurstCap)
	for i := 0; i < tracePackets; i += burst {
		accepted := 0
		for j := 0; j < burst; j++ {
			if r.st.rx(tr.pkts[r.next]) {
				accepted++
			}
			r.next = (r.next + 1) % tracePackets
		}
		r.drain(accepted)
		piece()
	}
	if r.c.good != tracePackets {
		return nil, nil, nil, fmt.Errorf("%s: verification lap: %d of %d deliveries were in order with golden-equal metadata", w.name, r.c.good, tracePackets)
	}
	if w.plan != nil {
		r.c.plan = w.plan
	}
	return r, nil, pieces, nil
}

// measureBringup times the workload's own bring-up call, over and over for
// bringupShare of the window.
func measureBringup(w *workloadDef, cfg config, clk clock) (*bringup, error) {
	b := &bringup{cells: 1}
	start := clk.now()
	for clk.now()-start < int64(float64(cfg.windowNs)*bringupShare) {
		// Every repetition starts from a collected heap. Without this each
		// device's 2 MiB buffer pool lands on recycled or on fresh (page-
		// faulting) memory at random, and an open takes 0.13 or 0.9 ms.
		runtime.GC()
		t0 := clk.now()
		if _, err := w.open(cfg.seed); err != nil {
			return nil, err
		}
		b.openNs = append(b.openNs, clk.now()-t0)
	}
	return b, nil
}

// prepared is a workload instance that is set up, verified and warm.
type prepared struct {
	w     *workloadDef
	cfg   config
	clk   clock
	r     *runner
	cells []gridCell
	// setupNs holds the pieces of every set-up round, round after round,
	// setupPieces to a round; the first piece is the trace generation.
	setupNs     []int64
	setupPieces int
	// opens is the workload's own bring-up timing, taken for the traced
	// pass (nil for the grid, whose window is its bring-up timing).
	opens    *bringup
	arrivals *poisson
}

// quietSetup returns the quiet duration of every piece of a set-up, in
// nanoseconds.
func (p *prepared) quietSetup() []float64 {
	xs := make([]float64, len(p.setupNs))
	for i, ns := range p.setupNs {
		xs[i] = float64(ns)
	}
	return quietBySlot(xs, 0, p.setupPieces)
}

// prepare sets the workload up rounds times (keeping the last instance),
// times its bring-up when asked to, and warms the instance up.
func prepare(w *workloadDef, cfg config, rounds int, withBringup bool) (*prepared, error) {
	p := &prepared{w: w, cfg: cfg, clk: clock{base: processStart}}
	for i := 0; i < rounds; i++ {
		r, cells, pieces, err := setup(w, cfg, p.clk)
		if err != nil {
			return nil, err
		}
		p.setupNs = append(p.setupNs, pieces...)
		p.r, p.cells, p.setupPieces = r, cells, len(pieces)
	}
	if withBringup && w.kind != grid {
		b, err := measureBringup(w, cfg, p.clk)
		if err != nil {
			return nil, err
		}
		p.opens = b
	}
	warmNs := int64(float64(cfg.windowNs) * warmupShare)
	switch w.kind {
	case grid:
		if _, _, err := p.r.grid(warmNs, p.cells); err != nil {
			return nil, err
		}
	case closedLoop:
		p.r.closed(warmNs)
	case openLoop:
		p.arrivals = newPoisson(uint64(cfg.seed) ^ 0x6f70656e6c6f6f70)
		p.r.open(warmNs, gatedRatePPS, p.arrivals)
	}
	return p, nil
}

// pass is everything one timed window over a prepared workload measured.
type pass struct {
	*prepared
	// steps holds the timed windows: one, or one per open-loop rate step.
	steps []*window
	// gated indexes the step the gated metrics come from.
	gated int
	// bring is the bring-up timing of this pass: the grid window's own, the
	// prepared instance's otherwise (nil in the end-to-end pass).
	bring *bringup
	// Evolving drivers: control-plane counter deltas over the window.
	switches, rollbacks, drained uint64
	// Hardened drivers: counter deltas over the window.
	quarantined, softDelivered uint64
}

// measure drives one timed window of windowNs, recording spans when spans is
// non-nil.
func (p *prepared) measure(windowNs int64, spans *tracer) (*pass, error) {
	r := p.r
	r.spans, r.c.clk = spans, p.clk
	if p.w.kind != grid {
		// The grid records its spans per cell, after the fact; it has no
		// open Poll span for handler spans to hang from.
		r.c.spans = spans
	}
	defer func() { r.spans, r.c.spans = nil, nil }()
	out := &pass{prepared: p, bring: p.opens}
	switch p.w.kind {
	case grid:
		win, b, err := r.grid(windowNs, p.cells)
		if err != nil {
			return nil, err
		}
		out.steps, out.bring = []*window{win}, b
	case closedLoop:
		var ev0 opendesc.EvolveStats
		var h0 opendesc.HardeningStats
		if r.st.drv != nil {
			ev0, h0 = r.st.drv.Evolution(), r.st.drv.Hardening()
		}
		out.steps = []*window{r.closed(windowNs)}
		if r.st.drv != nil {
			ev, h := r.st.drv.Evolution(), r.st.drv.Hardening()
			out.switches, out.rollbacks, out.drained = ev.Switchovers-ev0.Switchovers, ev.Rollbacks-ev0.Rollbacks, ev.PacketsDrained-ev0.PacketsDrained
			out.quarantined, out.softDelivered = h.Quarantined-h0.Quarantined, h.SoftDelivered-h0.SoftDelivered
		}
	case openLoop:
		for i, s := range openLoopSteps {
			out.steps = append(out.steps, r.open(int64(float64(windowNs)*s.share), s.pps, p.arrivals))
			if s.pps == gatedRatePPS {
				out.gated = i
			}
		}
	}
	return out, nil
}

// runPass is the end-to-end pass: set up cfg.setupRounds times, warm up, and
// drive the full window with tracing off.
func runPass(w *workloadDef, cfg config) (*pass, error) {
	p, err := prepare(w, cfg, cfg.setupRounds, false)
	if err != nil {
		return nil, err
	}
	return p.measure(cfg.windowNs, nil)
}
