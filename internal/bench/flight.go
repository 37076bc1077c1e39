package bench

import (
	"fmt"
	"strings"

	"opendesc"
	"opendesc/internal/faults"
	"opendesc/internal/obs/flight"
	"opendesc/internal/workload"
)

// E17Flight is the flight-recorder experiment's worked postmortem: a hardened
// driver survives an injected device hang and the recorder's automatic
// snapshot must decode to the degrade→reset→restore recovery arc with
// per-completion DMA→deliver latencies. dumpDir, when non-empty, also writes
// the postmortem as a .odfl file (decode with `opendesc flight`). What
// recording costs a packet is cmd/benchmark's flight.tax_frac and
// flight.record_ns; that the deliver path allocates nothing with the recorder
// on is TestDeliverPathAllocGate.
func E17Flight(packets int, dumpDir string) (*Table, error) {
	run, err := e17Hang(packets, dumpDir)
	if err != nil {
		return nil, err
	}
	tab := &Table{
		ID:     "E17",
		Title:  "flight recorder: hang postmortem (e1000e, rss+vlan+pkt_len)",
		Header: []string{"measurement", "value"},
		Note:   "the postmortem snapshot must decode to degrade → reset_attempt → restore with per-completion latencies",
		run:    run,
	}
	tab.AddRow("hang run delivered", fmt.Sprintf("%d/%d exactly once", run.delivered, run.accepted))
	tab.AddRow("postmortems captured", fmt.Sprintf("%d (last: %q)", run.postmortems, run.lastReason))
	tab.AddRow("recovery arc in dump", fmt.Sprintf("degrade@%d → reset_attempt@%d → restore@%d",
		run.degradeAt, run.resetAt, run.restoreAt))
	tab.AddRow("deliver events in dump", fmt.Sprintf("%d (max DMA→deliver %dns)", run.delivers, run.maxDeliverNs))
	if len(run.dumpFiles) > 0 {
		tab.Note += "\ndump files: " + strings.Join(run.dumpFiles, " ")
	}
	return tab, nil
}

// e17Run is the outcome of the hang-postmortem drive.
type e17Run struct {
	accepted    int
	delivered   int
	postmortems uint64
	lastReason  string
	// Positions in the dump of the first degrade, reset-attempt and restore
	// events: the recovery arc, which must read in that order.
	degradeAt, resetAt, restoreAt int
	delivers                      int
	maxDeliverNs                  uint64
	dumpFiles                     []string
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
	run.degradeAt, run.resetAt, run.restoreAt = dg, ra, rs
	return run, nil
}
