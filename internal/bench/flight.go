package bench

import (
	"fmt"
	"time"

	"opendesc"
	"opendesc/internal/faults"
	"opendesc/internal/obs/flight"
	"opendesc/internal/perf"
	"opendesc/internal/workload"
)

// e17Time measures the bare datapath cost (Rx, Poll, three metadata reads)
// of n packets through the plain driver with the flight recorder enabled or
// runtime-disabled.
func e17Time(n int, record bool) (float64, error) {
	intent, err := opendesc.NewIntent("e17", "rss", "vlan", "pkt_len")
	if err != nil {
		return 0, err
	}
	drv, err := opendesc.OpenIntent("e1000e", intent, opendesc.CompileOptions{})
	if err != nil {
		return 0, err
	}
	drv.Flight().SetEnabled(record)
	tr, err := workload.Generate(workload.DefaultSpec())
	if err != nil {
		return 0, err
	}
	var sink uint64
	h := func(p []byte, meta opendesc.Meta) {
		v1, _ := meta.Get("rss")
		v2, _ := meta.Get("vlan")
		v3, _ := meta.Get("pkt_len")
		sink += v1 + v2 + v3
	}
	start := time.Now()
	for i := 0; i < n; i++ {
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
	ns := float64(time.Since(start).Nanoseconds()) / float64(n)
	_ = sink
	return ns, nil
}

// e17Allocs measures steady-state heap allocations per packet with the
// recorder enabled: the full Rx+Poll cycle, an Rx-only baseline (the
// simulated device allocates one condition-path string per context branch
// it evaluates), and their difference, which is what the host-side poll→validate→read→deliver
// path allocates and must stay zero. The driver is warmed first so one-time
// ring and recorder allocations don't count.
func e17Allocs() (full, deliver float64, err error) {
	intent, err := opendesc.NewIntent("e17", "rss", "vlan", "pkt_len")
	if err != nil {
		return 0, 0, err
	}
	drv, err := opendesc.OpenIntent("e1000e", intent, opendesc.CompileOptions{})
	if err != nil {
		return 0, 0, err
	}
	drv.Flight().SetEnabled(true)
	tr, err := workload.Generate(workload.DefaultSpec())
	if err != nil {
		return 0, 0, err
	}
	var sink uint64
	h := func(p []byte, meta opendesc.Meta) {
		v, _ := meta.Get("rss")
		sink += v
	}
	for i := 0; i < 64; i++ {
		p := tr.Packets[i%len(tr.Packets)]
		for !drv.Rx(p) {
			drv.Poll(h)
		}
	}
	for drv.Poll(h) > 0 {
	}
	// Rx-only: 200 runs plus warm-up stay well under the 1024-deep ring.
	rxOnly := perf.Allocs(200, func() {
		drv.Rx(tr.Packets[0])
	})
	for drv.Poll(h) > 0 {
	}
	full = perf.Allocs(200, func() {
		for !drv.Rx(tr.Packets[0]) {
			drv.Poll(h)
		}
		drv.Poll(h)
	})
	_ = sink
	deliver = full - rxOnly
	if deliver < 0 {
		deliver = 0
	}
	return full, deliver, nil
}

// E17Flight is the flight-recorder experiment: the recording overhead on the
// hot path (recorder on vs runtime-disabled, same binary), and a worked
// postmortem — a hardened driver survives an injected device hang and the
// recorder's automatic snapshot must decode to the degrade→reset→restore
// recovery arc with per-completion DMA→deliver latencies. dumpDir, when
// non-empty, also writes the postmortem as a .odfl file (decode with
// `opendesc flight`).
func E17Flight(packets int, dumpDir string) (*Table, error) {
	if packets < 4096 {
		packets = 4096
	}

	// Alternate on/off passes and keep each mode's best time: single passes
	// jitter by several percent in shared environments, and the minimum is
	// the standard estimator for "the code's cost without the noise".
	onNs, offNs := -1.0, -1.0
	for round := 0; round < 3; round++ {
		on, err := e17Time(packets, true)
		if err != nil {
			return nil, err
		}
		off, err := e17Time(packets, false)
		if err != nil {
			return nil, err
		}
		if onNs < 0 || on < onNs {
			onNs = on
		}
		if offNs < 0 || off < offNs {
			offNs = off
		}
	}

	// Worked postmortem: one forced device hang mid-run; the watchdog must
	// degrade, reset, and restore, and the recorder must have snapshotted
	// the whole arc.
	run, err := e17Hang(packets, dumpDir)
	if err != nil {
		return nil, err
	}

	fullAllocs, deliverAllocs, err := e17Allocs()
	if err != nil {
		return nil, err
	}

	tab := &Table{
		ID:     "E17",
		Title:  "flight recorder: hot-path overhead and hang postmortem (e1000e, rss+vlan+pkt_len)",
		Header: []string{"measurement", "value"},
		Record: newPerfRecord("e17_flight", "E17",
			"Flight recorder: hot-path overhead and hang postmortem (e1000e)", packets, 0),
	}
	rec := tab.Record
	addTiming(rec, "datapath/recorder_on", "ns/pkt", onNs)
	addTiming(rec, "datapath/recorder_off", "ns/pkt", offNs)
	rec.AddValue("recorder/overhead_pct", "ratio", (onNs-offNs)/offNs, perf.Info)
	rec.AddValue("datapath/allocs_per_pkt", "allocs/op", fullAllocs, perf.Lower)
	rec.AddValue("deliver/allocs_per_pkt", "allocs/op", deliverAllocs, perf.Lower)
	rec.AddValue("postmortems", "count", float64(run.postmortems), perf.Higher)
	rec.AddValue("dump/delivers", "count", float64(run.delivers), perf.Info)
	rec.AddValue("dump/max_deliver_ns", "ns", float64(run.maxDeliverNs), perf.Info)
	tab.AddRow("datapath, recorder on", fmt.Sprintf("%.0f ns/pkt", onNs))
	tab.AddRow("datapath, recorder disabled", fmt.Sprintf("%.0f ns/pkt (%+.1f%% when on)", offNs, (onNs-offNs)/offNs*100))
	tab.AddRow("deliver-path allocs", fmt.Sprintf("%.2f/pkt (device sim total %.2f)", deliverAllocs, fullAllocs))
	tab.AddRow("hang run delivered", fmt.Sprintf("%d/%d exactly once", run.delivered, run.accepted))
	tab.AddRow("postmortems captured", fmt.Sprintf("%d (last: %q)", run.postmortems, run.lastReason))
	tab.AddRow("recovery arc in dump", run.arc)
	tab.AddRow("deliver events in dump", fmt.Sprintf("%d (max DMA→deliver %dns)", run.delivers, run.maxDeliverNs))
	note := "the postmortem snapshot must decode to degrade → reset_attempt → restore with per-completion latencies"
	if len(run.dumpFiles) > 0 {
		note += "\ndump files:"
		for _, f := range run.dumpFiles {
			note += " " + f
		}
	}
	tab.Note = note
	return tab, nil
}

// e17Run is the outcome of the hang-postmortem drive.
type e17Run struct {
	accepted     int
	delivered    int
	postmortems  uint64
	lastReason   string
	arc          string
	delivers     int
	maxDeliverNs uint64
	dumpFiles    []string
}

// e17Hang drives a hardened driver through one forced device hang and
// decodes the recorder's last postmortem snapshot.
func e17Hang(packets int, dumpDir string) (*e17Run, error) {
	intent, err := opendesc.NewIntent("e17", "rss", "vlan", "pkt_len")
	if err != nil {
		return nil, err
	}
	drv, err := opendesc.OpenWith("e1000e", intent, opendesc.OpenOptions{
		Harden: &opendesc.HardenOptions{},
	})
	if err != nil {
		return nil, err
	}
	if dumpDir != "" {
		drv.Flight().SetDumpDir(dumpDir)
	}
	drv.InjectFaults(faults.New(faults.Plan{
		Seed: 171, HangCount: 1, HangMTBF: packets / 2, HangBurst: 32,
	}))
	tr, err := workload.Generate(workload.DefaultSpec())
	if err != nil {
		return nil, err
	}

	run := &e17Run{}
	h := func(p []byte, meta opendesc.Meta) {
		run.delivered++
		_, _ = meta.Get("rss")
	}
	for i := 0; i < packets; i++ {
		p := tr.Packets[i%len(tr.Packets)]
		tries := 0
		for !drv.Rx(p) {
			drv.Poll(h)
			if tries++; tries > 1<<16 {
				return nil, fmt.Errorf("e17: rx stalled at packet %d", i)
			}
		}
		run.accepted++
		if i%8 == 7 {
			drv.Poll(h)
		}
	}
	idle := 0
	for i := 0; i < 1<<20 && idle < 4; i++ {
		if drv.Poll(h) == 0 {
			idle++
		} else {
			idle = 0
		}
	}
	if run.delivered != run.accepted {
		return nil, fmt.Errorf("e17: delivered %d of %d accepted packets", run.delivered, run.accepted)
	}
	hard := drv.Hardening()
	if hard.HardwareRestores != 1 {
		return nil, fmt.Errorf("e17: %d hardware restores, want 1", hard.HardwareRestores)
	}

	rec := drv.Flight()
	run.postmortems = rec.Postmortems()
	if run.postmortems == 0 {
		return nil, fmt.Errorf("e17: hang recovery captured no postmortem")
	}
	reason, _, _ := rec.LastPostmortem()
	run.lastReason = reason
	run.dumpFiles = rec.DumpFiles()

	snap := rec.LastSnapshot()
	if snap == nil {
		return nil, fmt.Errorf("e17: no postmortem snapshot retained")
	}
	// Decode the recovery arc: the degrade, reset-attempt and restore events
	// must appear in causal order in the dump, and delivered completions must
	// carry their DMA→deliver latency.
	pos := map[flight.Code]int{}
	i := 0
	for _, q := range snap.Queues {
		for _, ev := range q.Events {
			i++
			switch ev.Code {
			case flight.EvDegrade, flight.EvResetAttempt, flight.EvRestore:
				if _, seen := pos[ev.Code]; !seen {
					pos[ev.Code] = i
				}
			case flight.EvDeliver:
				run.delivers++
				if ev.Arg1 > run.maxDeliverNs {
					run.maxDeliverNs = ev.Arg1
				}
			}
		}
	}
	dg, okD := pos[flight.EvDegrade]
	ra, okR := pos[flight.EvResetAttempt]
	rs, okS := pos[flight.EvRestore]
	if !okD || !okR || !okS || !(dg < ra && ra < rs) {
		return nil, fmt.Errorf("e17: postmortem does not decode to degrade→reset→restore (positions: degrade=%d reset=%d restore=%d)", dg, ra, rs)
	}
	if run.delivers == 0 || run.maxDeliverNs == 0 {
		return nil, fmt.Errorf("e17: postmortem has no deliver events with latencies")
	}
	run.arc = fmt.Sprintf("degrade@%d → reset_attempt@%d → restore@%d", dg, ra, rs)
	return run, nil
}
