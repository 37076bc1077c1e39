package main

import (
	"runtime"

	"opendesc"
)

// unitPkts is how many packets a unit offers (a unit of the open loop at
// least as many; a grid unit is one cell). Every burst size is a multiple.
const unitPkts = 32

// cut is a snapshot of a window's running totals at a unit boundary.
type cut struct {
	delivered uint64
	rxNs      int64
	pollNs    int64
	lat       int // latency samples recorded so far
	offered   uint64
}

// window is what one timed window measured. Times are host nanoseconds; the
// clock is read at burst boundaries only, never per packet.
type window struct {
	offered, refused uint64
	delivered, good  uint64
	reads            uint64
	// cuts are the unit boundaries, the window's start included: a unit is
	// the smallest piece of work the clock is read around — unitPkts packets,
	// or one cell on the grid.
	cuts []cut
	// Unit i replays position (slot0+i) % slots of the trace lap (of the
	// grid), so units at one position did identical work lap after lap.
	// The open loop has one position: its units differ only in arrival times.
	slots, slot0 int
	// rxNs is time inside the stack's Rx calls (the simulated hardware and
	// the facade's enqueue); pollNs time inside its Poll sweeps (the host
	// datapath, handlers included); wallNs the whole window.
	rxNs, pollNs, wallNs int64
	mallocs              uint64
	// lat holds one latency sample per packet in open loop (Poll return −
	// due time) and one per burst in closed loop (its turnaround).
	lat []uint32
	// Open loop only: sends the generator itself issued late (it was idle,
	// spinning on the clock, and still missed the due time by more than
	// lateSendNs — a stall of the box, not of the stack), the lateness of the
	// window's last send, and (traced pass only) per-packet Rx-return →
	// Poll-pickup waits.
	lateSends   uint64
	endLateNs   int64
	queueWaitNs []uint32
	// Switching polls of an evolving driver: their durations and count.
	switchNs []uint32
}

func (w *window) failed() uint64 { return w.offered - min(w.good, w.offered) }

// cutAt records a unit boundary; delivered is the consumer's running count.
func (w *window) cutAt(delivered uint64) {
	w.cuts = append(w.cuts, cut{delivered: delivered, rxNs: w.rxNs, pollNs: w.pollNs, lat: len(w.lat), offered: w.offered})
}

// quietLap is the one way a windowed cost is computed: f over each unit, then
// per lap position the quiet quantile of the results across laps (see
// quietBySlot). f returns NaN for a unit the cost is undefined on (nothing
// delivered, no sample). What the stack does at a fixed place in every lap (a
// switchover every 8192 packets) stays in the number; what lands on a unit
// now and then (a stall of the shared box, a GC cycle) does not.
func (w *window) quietLap(f func(prev, cur cut) float64) []float64 {
	xs := make([]float64, len(w.cuts)-1)
	for i := range xs {
		xs[i] = f(w.cuts[i], w.cuts[i+1])
	}
	return quietBySlot(xs, w.slot0, w.slots)
}

// lateSendNs is the lateness beyond which an idle generator's send counts
// as late.
const lateSendNs = 10_000

// mallocCount reads the cumulative allocation count. It stops the world, so
// it is called before and after a window, never inside one.
func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func clampNs(d int64) uint32 {
	return uint32(max(0, min(d, int64(^uint32(0)))))
}

// runner is one opened workload instance being driven: the stack, the
// application-side consumer and the injection cursor, which carry over from
// warm-up to window (and between open-loop steps) so the lap structure of
// the trace is never broken.
type runner struct {
	w   *workloadDef
	st  *stack
	c   *consumer
	clk clock
	// next is the trace index of the next packet to inject.
	next int
	// spans is non-nil in the traced pass.
	spans *tracer
	burst uint32
}

// mark is the state of the running counters when a window began, so the
// window reports deltas.
type mark struct {
	delivered, good, reads, mallocs uint64
	start                           int64
}

// begin opens a window: it snapshots the counters and records the first
// unit boundary.
func (r *runner) begin(w *window) mark {
	m := mark{r.c.delivered, r.c.good, r.c.reads, mallocCount(), r.clk.now()}
	w.cutAt(r.c.delivered)
	return m
}

// finish closes the window begun at m.
func (r *runner) finish(w *window, m mark) {
	w.wallNs = r.clk.now() - m.start
	w.mallocs = mallocCount() - m.mallocs
	w.delivered, w.good, w.reads = r.c.delivered-m.delivered, r.c.good-m.good, r.c.reads-m.reads
}

// drain polls until want packets were delivered or the stack stops making
// progress (a packet that never arrives is counted failed by the caller, not
// waited for).
func (r *runner) drain(want int) {
	for idle := 0; want > 0 && idle < 4; {
		if n := r.st.poll(); n > 0 {
			want, idle = want-n, 0
		} else {
			idle++
		}
	}
}

// closed drives the closed loop for durNs: inject a burst with Rx, poll until
// it is delivered, repeat. One sample per burst: its turnaround.
func (r *runner) closed(durNs int64) *window {
	pkts := r.w.burst
	w := &window{lat: make([]uint32, 0, durNs/20_000+1024), slots: len(r.c.tr.pkts) / unitPkts, slot0: r.next / unitPkts}
	w.cuts = make([]cut, 0, cap(w.lat)+1)
	// A generation switch replaces the driver's Result; comparing the pointer
	// detects it without the allocation an Evolution() snapshot costs.
	var res *opendesc.Result
	if r.st.drv != nil {
		res = r.st.drv.Result
	}
	m := r.begin(w)
	start := m.start
	for {
		t0 := r.clk.now()
		if t0-start >= durNs {
			break
		}
		accepted := 0
		rxFrom := t0
		for i := 1; i <= pkts; i++ {
			if r.st.rx(r.c.tr.pkts[r.next]) {
				accepted++
			} else {
				w.refused++
			}
			r.next = (r.next + 1) % len(r.c.tr.pkts)
			w.offered++
			if i%unitPkts == 0 && i < pkts {
				// A long burst is several units: its Rx calls unitPkts at
				// a time, the last of them with the Poll.
				now := r.clk.now()
				w.rxNs += now - rxFrom
				rxFrom = now
				w.cutAt(r.c.delivered)
			}
		}
		t1 := r.clk.now()
		root, pollSpan := int32(-1), int32(-1)
		if r.spans != nil {
			r.burst++
			root = r.spans.add(spanBurst, -1, r.burst, t0, t1)
			r.spans.add(spanRx, root, r.burst, t0, t1)
			pollSpan = r.spans.add(spanPoll, root, r.burst, t1, t1)
			r.c.pollSpan, r.c.burst = pollSpan, r.burst
		}
		r.drain(accepted)
		t2 := r.clk.now()
		if r.spans != nil {
			r.spans.close(pollSpan, t2)
			r.spans.close(root, t2)
		}
		w.rxNs += t1 - rxFrom
		w.pollNs += t2 - t1
		w.lat = append(w.lat, clampNs(t2-t0))
		if r.st.drv != nil && r.st.drv.Result != res {
			res = r.st.drv.Result
			w.switchNs = append(w.switchNs, clampNs(t2-t1))
		}
		w.cutAt(r.c.delivered)
	}
	r.finish(w, m)
	return w
}

// open drives the open loop for durNs at ratePPS: packets become due on the
// Poisson schedule whatever the stack is doing; a packet's latency runs from
// its due time to the return of the Poll that delivered it, so a stall is
// charged to every packet that queued behind it. When behind schedule, at
// most openLoopBurstCap due packets are injected between two polls.
func (r *runner) open(durNs int64, ratePPS float64, arrivals *poisson) *window {
	w := &window{lat: make([]uint32, 0, int(float64(durNs)/1e9*ratePPS*1.05)+1024), slots: 1}
	w.cuts = make([]cut, 0, cap(w.lat)/unitPkts+1)
	if r.spans != nil {
		w.queueWaitNs = make([]uint32, 0, cap(w.lat))
	}
	var due, sent, rxDone [openLoopBurstCap]int64
	m := r.begin(w)
	start := m.start
	end := start + durNs
	nextDue := start + arrivals.gap(ratePPS)
	idle := false
	for nextDue < end {
		now := r.clk.now()
		if now < nextDue {
			idle = true
			continue // spin: the generator owns this goroutine
		}
		if w.offered-w.cuts[len(w.cuts)-1].offered >= unitPkts {
			w.cutAt(r.c.delivered)
		}
		if idle && now-nextDue > lateSendNs {
			w.lateSends++
		}
		idle = false
		t0 := now
		n := 0
		for nextDue <= now && nextDue < end && n < openLoopBurstCap {
			w.endLateNs = now - nextDue
			sent[n] = now
			ok := r.st.rx(r.c.tr.pkts[r.next])
			r.next = (r.next + 1) % len(r.c.tr.pkts)
			now = r.clk.now()
			w.offered++
			if ok {
				due[n], rxDone[n] = nextDue, now
				n++
			} else {
				w.refused++
			}
			nextDue += arrivals.gap(ratePPS)
		}
		t1 := now
		root, pollSpan := int32(-1), int32(-1)
		if r.spans != nil {
			r.burst++
			root = r.spans.add(spanBurst, -1, r.burst, t0, t1)
			r.spans.add(spanRx, root, r.burst, t0, t1)
			pollSpan = r.spans.add(spanPoll, root, r.burst, t1, t1)
			r.c.pollSpan, r.c.burst = pollSpan, r.burst
		}
		r.drain(n)
		t2 := r.clk.now()
		w.rxNs += t1 - t0
		w.pollNs += t2 - t1
		for i := 0; i < n; i++ {
			w.lat = append(w.lat, clampNs(t2-due[i]))
		}
		if r.spans != nil {
			r.spans.close(pollSpan, t2)
			r.spans.close(root, t2)
			for i := 0; i < n; i++ {
				r.spans.add(spanWait, -1, r.burst, due[i], sent[i])
				r.spans.add(spanQueue, -1, r.burst, rxDone[i], t1)
				w.queueWaitNs = append(w.queueWaitNs, clampNs(t1-rxDone[i]))
			}
		}
	}
	r.finish(w, m)
	return w
}
