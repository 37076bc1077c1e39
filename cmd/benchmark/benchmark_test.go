package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"opendesc/internal/perf"
)

func TestPoissonScheduleIsAPureFunctionOfTheSeedWithTheRequestedRate(t *testing.T) {
	const rate, n = 100000.0, 200000
	a, b, other := newPoisson(7), newPoisson(7), newPoisson(8)
	var total int64
	same := true
	for i := 0; i < n; i++ {
		ga, gb, gc := a.gap(rate), b.gap(rate), other.gap(rate)
		if ga != gb {
			t.Fatalf("gap %d differs between two schedules of one seed: %d vs %d", i, ga, gb)
		}
		if ga != gc {
			same = false
		}
		if ga < 0 {
			t.Fatalf("gap %d is negative: %d", i, ga)
		}
		total += ga
	}
	if same {
		t.Error("two seeds gave the same schedule")
	}
	got := float64(n) / (float64(total) / 1e9)
	if math.Abs(got-rate)/rate > 0.01 {
		t.Errorf("mean rate %.0f pkt/s, want %.0f within 1%%", got, rate)
	}
}

func TestHighestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false}, {100, 0.90, true}, {199, 0.90, true}, {200, 0.95, true},
		{1000, 0.99, true}, {9999, 0.99, true}, {10000, 0.999, true}, {100000, 0.9999, true},
	} {
		got, ok := highestTail(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	samples := make([]uint32, 1000)
	for i := range samples {
		samples[i] = uint32(1000 * (len(samples) - i)) // descending: the summary must sort
	}
	s := latencySummary(samples)
	for _, want := range []string{"n=1000", "p50=500.00us", "p99=990.00us"} {
		if !strings.Contains(s, want) {
			t.Errorf("latencySummary = %q, want it to contain %q", s, want)
		}
	}
}

func TestQuietBySlotTakesEachLapPositionWhenTheMachineWasQuiet(t *testing.T) {
	// Three lap positions costing 10, 20 and 30; 40 laps, starting at
	// position 2; the machine is "busy" (x1.7) on three laps in four, and one
	// unit delivered nothing (NaN).
	var xs []float64
	for i := 0; i < 120; i++ {
		x := float64(10 * ((2+i)%3 + 1))
		if (i/3)%4 != 0 {
			x *= 1.7
		}
		xs = append(xs, x)
	}
	xs[5] = math.NaN()
	got := quietBySlot(xs, 2, 3)
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Errorf("quietBySlot = %v, want [10 20 30]: the quiet cost of every position, whatever the busy share", got)
	}
	if m := median(slices.Clone(xs[6:])); m < 17 {
		t.Errorf("the median of the same samples is %v: the test no longer shows what the quiet quantile is for", m)
	}
	if got := quietBySlot([]float64{5, 7}, 0, 4); len(got) != 2 {
		t.Errorf("positions without a sample must be left out, got %v", got)
	}
}

func TestQuartileSpreadMatchesPythonStatisticsQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3, spread := quartileSpread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(spread-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", spread, want)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer(16)
	root := tr.add(spanBurst, -1, 1, 0, 1000)
	rx := tr.add(spanRx, root, 1, 0, 400)        // adjacent to poll
	poll := tr.add(spanPoll, root, 1, 400, 400)  // closed later
	h1 := tr.add(spanHandler, poll, 1, 450, 550) // nested two deep
	h2 := tr.add(spanHandler, poll, 1, 550, 550) // zero-length child
	h3 := tr.add(spanHandler, poll, 1, 600, 900) // gap before it is the parent's
	tr.close(poll, 1000)
	self := selfTimes(tr.spans)
	want := map[int32]int64{root: 0, rx: 400, poll: 600 - 100 - 0 - 300, h1: 100, h2: 0, h3: 300}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spanNames[tr.spans[i].kind], self[i], w)
		}
	}
	tr.add(spanBurst, -1, 2, 1000, 1100) // a second burst, with nothing delivered
	if bs := spansByBurst(tr.spans); len(bs) != 2 || bs[0] != (burstSpans{pollSelfNs: 200, handlerNs: 400, handlers: 3}) || bs[1] != (burstSpans{}) {
		t.Errorf("spans by burst = %+v, want one burst of 3 handlers totalling 400 with poll self 200, then an empty one", bs)
	}
	if full := newTracer(1); full.add(spanBurst, -1, 1, 0, 1) != 0 || full.add(spanBurst, -1, 2, 1, 2) != -1 || full.dropped != 1 {
		t.Error("a full tracer must drop, count the drop and return -1")
	}
}

// testConsumer is a consumer over a 256-packet trace (longer than the
// resync window, like every real trace) with one semantic whose golden is
// the packet's index plus one.
func testConsumer() *consumer {
	tr := &trace{sems: []string{"rss"}, gold: [][]uint64{{}}}
	for i := 0; i < 256; i++ {
		tr.pkts = append(tr.pkts, []byte{byte(i)})
		tr.gold[0] = append(tr.gold[0], uint64(i+1))
	}
	return newConsumer(tr, []uint64{0xfff})
}

// hand delivers trace packet i to c, reading value v for its one semantic.
func hand(c *consumer, i int, v uint64) {
	idx, plan := c.begin(0, c.tr.pkts[i])
	ok := idx >= 0
	for _, k := range plan {
		ok = c.check(idx, k, v, true) && ok
	}
	c.end(idx, ok)
}

func TestConsumerCatchesGarbageLossAndDuplication(t *testing.T) {
	clean := testConsumer()
	for lap := 0; lap < 2; lap++ {
		for i := range clean.tr.pkts {
			hand(clean, i, uint64(i+1)|0x1000) // bits above the field's width are not compared
		}
	}
	if clean.good != 512 || clean.delivered != 512 {
		t.Fatalf("clean run: %d good of %d delivered, want 512 of 512", clean.good, clean.delivered)
	}

	flipped := testConsumer()
	for i := range flipped.tr.pkts {
		v := uint64(i + 1)
		if i == 3 {
			v ^= 0x10
		}
		hand(flipped, i, v)
	}
	if flipped.good != 255 {
		t.Errorf("one flipped value: %d good, want 255", flipped.good)
	}

	dropped := testConsumer()
	for i := range dropped.tr.pkts {
		if i != 2 {
			hand(dropped, i, uint64(i+1))
		}
	}
	if dropped.good != 255 || dropped.delivered != 255 {
		t.Errorf("one dropped delivery: %d good of %d, want 255 of 255 (the 256th is missing from the offered count)", dropped.good, dropped.delivered)
	}

	duplicated := testConsumer()
	for i := range duplicated.tr.pkts[:4] {
		hand(duplicated, i, uint64(i+1))
		if i == 1 {
			hand(duplicated, i, uint64(i+1))
		}
	}
	if duplicated.good != 4 || duplicated.delivered != 5 {
		t.Errorf("one duplicated delivery: %d good of %d, want 4 of 5", duplicated.good, duplicated.delivered)
	}

	reordered := testConsumer()
	for _, i := range []int{0, 2, 1, 3} {
		hand(reordered, i, uint64(i+1))
	}
	if reordered.good != 3 {
		t.Errorf("two swapped deliveries: %d good, want 3", reordered.good)
	}
}

func TestOpenLoopChargesLatencyFromTheDueTime(t *testing.T) {
	// A fake driver that stalls for 2 ms inside one Poll. Packets that became
	// due during the stall were not even sent yet when it ended; measured from
	// their due time they still inherit it.
	c := testConsumer()
	c.plan = func(*consumer, int) []uint8 { return nil }
	var queued [][]byte
	polls := 0
	const stall = 2 * time.Millisecond
	st := &stack{
		rx: func(p []byte) bool { queued = append(queued, p); return true },
		poll: func() int {
			polls++
			if polls == 200 {
				for t0 := time.Now(); time.Since(t0) < stall; {
				}
			}
			n := len(queued)
			for _, p := range queued {
				idx, _ := c.begin(0, p)
				c.end(idx, idx >= 0)
			}
			queued = queued[:0]
			return n
		},
	}
	r := &runner{w: &workloadDef{name: "fake"}, st: st, c: c, clk: clock{base: processStart}}
	w := r.open(int64(40*time.Millisecond), gatedRatePPS, newPoisson(1))
	if w.failed() != 0 || w.delivered != w.offered || w.delivered < 3000 {
		t.Fatalf("fake driver: %d offered, %d delivered, %d failed", w.offered, w.delivered, w.failed())
	}
	inherited := 0
	for _, l := range w.lat {
		if time.Duration(l) > stall/4 {
			inherited++
		}
	}
	// ~200 packets fall due during a 2 ms stall at 100k pkt/s; three quarters
	// of them waited more than a quarter of it. A closed loop would show one.
	if inherited < 100 {
		t.Errorf("%d packets show more than %v of latency after a %v stall, want at least 100: latency is not charged from the due time", inherited, stall/4, stall)
	}
}

func testConfig() config {
	return config{seed: 3, windowNs: int64(100 * time.Millisecond), setupRounds: 2}
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p, err := runPass(w, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, endToEndMetrics(p), endToEnd, true)
			m, spans, err := tracedPass(w, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, m, perLayer, false)
			if len(spans) == 0 {
				t.Error("the traced pass recorded no span")
			}
			if w.kind == grid && m.Metrics["nicsim.rx_ns_per_pkt"] != 0 {
				t.Error("compile_open must not replay the datapath layers")
			}
		})
	}
}

func checkMetrics(t *testing.T, m *measured, defs []metricDef, nonZero bool) {
	t.Helper()
	// Timing-dependent predictions (a quarantine, a switchover count) need a
	// real window; a 100 ms one only has to be correct.
	if m.Failed != 0 || m.Attempted == 0 {
		t.Errorf("%d of %d operations failed", m.Failed, m.Attempted)
	}
	for _, d := range defs {
		v, ok := m.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s: present=%v value=%v, want a finite number", d.Name, ok, v)
		}
		// A share of packets within a latency limit can be 0 on a box slow
		// enough (the race detector makes this one so); a time or a rate not.
		if nonZero && v <= 0 && d.Unit != "ratio" {
			t.Errorf("end-to-end metric %s = %v, want it positive on every workload", d.Name, v)
		}
		if d.Unit == "" || (d.Better != lower && d.Better != higher) {
			t.Errorf("metric %s has unit %q and direction %q", d.Name, d.Unit, d.Better)
		}
	}
	if len(m.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d declared", len(m.Metrics), len(defs))
	}
}

func TestBenchmarkJSONDeclaresWhatTheProgramReports(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, the program's default window is %v", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q (%q), defined %q (%q)", i, decl.Workloads[i].Name, decl.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: its why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics declared, %d defined", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: declared %+v, defined %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end-to-end", decl.EndToEnd, endToEnd)
	same("per-layer", decl.PerLayer, perLayer)
}

func TestResultLineHasTheContractShape(t *testing.T) {
	m := &measured{Workload: "hw_fastpath", Attempted: 10, Metrics: map[string]float64{}}
	for _, d := range endToEnd {
		m.Metrics[d.Name] = 1.5
	}
	s := &suite{selected: workloads[:1], endToEnd: true, repeat: 1, e2e: [][]*measured{{m}}, layers: make([]*measured, 1)}
	raw, err := json.Marshal(s.resultLine())
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(raw, &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("one workload, one pass: the line has keys %v, want exactly correct, attempted, failed, metrics", raw)
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) || metrics["setup_s"] != (metricValue{1.5, "s"}) {
		t.Errorf("metrics = %v, want every end-to-end metric with its unit", metrics)
	}

	s.selected, s.e2e, s.layers = workloads[:2], [][]*measured{{m}, {m}}, make([]*measured, 2)
	raw, err = json.Marshal(s.resultLine())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(raw), `"claim":null}`) {
		t.Errorf("the suite's summary must end with \"claim\": null, got ...%s", raw[len(raw)-40:])
	}
}

func TestCompareRefusesAcrossEnvironments(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rf resultFile) string {
		raw, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	env := perf.Env{GoVersion: "go1.24", GOMAXPROCS: 2, NumCPU: 2, CPUModel: "cpu", Commit: "aaa"}
	result := func(pps float64) []*measured {
		return []*measured{{Workload: "hw_fastpath", Attempted: 1, Metrics: map[string]float64{"sim_pps": pps}}}
	}
	base := write("a.json", resultFile{Env: env, Seed: 1, Seconds: 15, Results: result(100)})

	other := env
	other.Commit = "bbb" // comparing commits is the point: not a difference
	if code := compareFiles([]string{base, write("b.json", resultFile{Env: other, Seed: 1, Seconds: 15, Results: result(98)})}); code != 0 {
		t.Errorf("same environment, 2%% slower: exit %d, want 0", code)
	}
	if code := compareFiles([]string{base, write("c.json", resultFile{Env: other, Seed: 1, Seconds: 15, Results: result(60)})}); code != 1 {
		t.Errorf("same environment, 40%% slower: exit %d, want 1", code)
	}
	for name, rf := range map[string]resultFile{
		"cpus":   {Env: perf.Env{GoVersion: "go1.24", GOMAXPROCS: 2, NumCPU: 8, CPUModel: "cpu"}, Seed: 1, Seconds: 15},
		"model":  {Env: perf.Env{GoVersion: "go1.24", GOMAXPROCS: 2, NumCPU: 2, CPUModel: "other"}, Seed: 1, Seconds: 15},
		"go":     {Env: perf.Env{GoVersion: "go1.25", GOMAXPROCS: 2, NumCPU: 2, CPUModel: "cpu"}, Seed: 1, Seconds: 15},
		"procs":  {Env: perf.Env{GoVersion: "go1.24", GOMAXPROCS: 1, NumCPU: 2, CPUModel: "cpu"}, Seed: 1, Seconds: 15},
		"window": {Env: env, Seed: 1, Seconds: 5},
		"seed":   {Env: env, Seed: 2, Seconds: 15},
	} {
		rf.Results = result(100)
		if code := compareFiles([]string{base, write(name+".json", rf)}); code != 2 {
			t.Errorf("different %s: exit %d, want the refusal (2)", name, code)
		}
	}
}
