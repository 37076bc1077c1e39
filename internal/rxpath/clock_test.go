package rxpath

import (
	"sync/atomic"
	"testing"

	"opendesc/internal/faults"
	"opendesc/internal/obs/flight"
)

// countingClock counts its readers. It never reads zero and never repeats,
// so every stamp is a stamp and every latency is positive.
type countingClock struct{ reads, ns atomic.Uint64 }

func (c *countingClock) Now() uint64 {
	c.reads.Add(1)
	return c.ns.Add(1)
}
func (c *countingClock) Advance(ns uint64) { c.ns.Add(ns) }

// TestPollReadsClockOnGrid is the deterministic form of the kv_openloop
// claim: a Poll pays for what it samples. The queue's recorder runs on a
// counting clock, and every Poll and Drain of a pinned, a hardened (seeded
// corruption and one lost completion) and an evolving queue (a drain and a
// switchover with a backlog in flight) is held to
//
//	reads = 0                        nothing stamped queued, no anomaly recorded
//	reads = 1 + stamped delivered    otherwise: the entry (or first-anomaly)
//	                                 read, and each stamped packet's handler return
//
// with the same traffic cut into polls of 1, 32 and 256 and an empty poll
// after each. What is left per stamped packet once the one read per reading
// poll is set aside — one in Poll, the rest on the Rx side — does not depend
// on the cut. With no fault injected the Rx side reads once per stamped
// packet: its DMA emit, its ring push and its Rx stamp share the device's
// reading.
func TestPollReadsClockOnGrid(t *testing.T) {
	const packets, switchAt, backlog = 4096, 2048, 48
	type totals struct{ rx, inPoll, readingPolls, stamped, anomalies uint64 }
	arm := func(t *testing.T, kind string, cut int) totals {
		q, _, rss, trace := testQueue(t)
		clk := &countingClock{}
		q.fq = flight.NewRecorder(flight.Config{Clock: clk}).Queue("q0")
		q.view.fq = q.fq
		q.dev.AttachFlight(q.fq)
		var inj *faults.Injector
		if kind == "hardened" {
			if err := q.Harden(HardenOptions{Deep: true}); err != nil {
				t.Fatal(err)
			}
			var err error
			if inj, err = faults.Parse("corrupt=0.001", 7); err != nil {
				t.Fatal(err)
			}
			q.dev.InjectFaults(inj)
		}
		var tot totals
		var accepted, delivered, stampedNow uint64
		anomalies := func() uint64 {
			st := q.Hardening()
			return st.Quarantined + st.StaleDrops + st.ResyncDrops + st.SpuriousCompletions
		}
		h := func(p []byte, m Meta) {
			delivered++
			if Of(m).TS != 0 {
				stampedNow++
			}
			if v, ok := m.Get("pkt_len"); !ok || v != uint64(len(p)) {
				t.Fatalf("delivery %d: pkt_len = %d/%v", delivered, v, ok)
			}
		}
		// step runs one Poll (or Drain) and checks what it read.
		step := func(what string, f func()) {
			queued := accepted/flight.SamplePeriod - delivered/flight.SamplePeriod
			before, anomBefore := clk.reads.Load(), anomalies()
			stampedNow = 0
			f()
			reads, anom := clk.reads.Load()-before, anomalies()-anomBefore
			var want uint64
			if queued > 0 || anom > 0 {
				want = 1 + stampedNow
				tot.readingPolls++
			}
			if reads != want {
				t.Fatalf("%s after %d accepted, %d delivered: %d clock reads, want %d (%d stamped queued, %d delivered stamped, %d anomalies)",
					what, accepted, delivered, reads, want, queued, stampedNow, anom)
			}
			tot.inPoll += reads
			tot.stamped += stampedNow
			tot.anomalies += anom
		}
		rx := func(n int) {
			before := clk.reads.Load()
			for ; n > 0; n-- {
				if kind == "hardened" && accepted == packets/3 {
					inj.ScriptNext(faults.Drop)
				}
				if !q.Rx(trace[accepted%uint64(len(trace))], 0) {
					t.Fatalf("rx %d refused", accepted)
				}
				accepted++
			}
			tot.rx += clk.reads.Load() - before
		}
		poll := func() { q.Poll(-1, h) }
		for accepted < packets {
			if kind == "evolving" && accepted == switchAt {
				// A switchover with traffic in flight: the drain pops the
				// backlog's stamped records at its own reading, the next
				// poll delivers them parked.
				rx(backlog)
				step("drain", func() { q.Drain() })
				if err := q.Reprogram(rss.Config, rss.Selected.Path.ID, nil); err != nil {
					t.Fatal(err)
				}
				q.SetLane(0, lane(rss))
			}
			rx(min(cut, int(packets-accepted)))
			step("poll", poll)
			step("empty poll", poll)
		}
		if delivered != accepted || q.Pending() != 0 {
			t.Fatalf("delivered %d of %d, %d pending", delivered, accepted, q.Pending())
		}
		if kind == "hardened" {
			if st := q.Hardening(); st.Quarantined == 0 || st.ResyncDrops != 1 {
				t.Fatalf("run too tame: %d quarantined, %d resynced", st.Quarantined, st.ResyncDrops)
			}
		}
		return tot
	}
	for _, kind := range []string{"pinned", "hardened", "evolving"} {
		t.Run(kind, func(t *testing.T) {
			var ref totals
			for i, cut := range []int{1, 32, 256} {
				tot := arm(t, kind, cut)
				t.Logf("polls of %3d: %d stamped packets, %d anomalies: %d clock reads on the Rx side, %d in Poll beside %d reading polls",
					cut, tot.stamped, tot.anomalies, tot.rx, tot.inPoll-tot.readingPolls, tot.readingPolls)
				if tot.inPoll-tot.readingPolls != tot.stamped {
					t.Errorf("polls of %d: %d reads beyond one per reading poll for %d stamped packets", cut, tot.inPoll-tot.readingPolls, tot.stamped)
				}
				if kind != "hardened" && tot.rx != tot.stamped {
					t.Errorf("polls of %d: %d clock reads on the Rx side for %d stamped packets, want one each", cut, tot.rx, tot.stamped)
				}
				if i == 0 {
					ref = tot
				} else if tot.rx != ref.rx || tot.stamped != ref.stamped || tot.anomalies != ref.anomalies {
					t.Errorf("polls of %d: %d Rx-side reads, %d stamped, %d anomalies; polls of 1 gave %d, %d, %d", cut, tot.rx, tot.stamped, tot.anomalies, ref.rx, ref.stamped, ref.anomalies)
				}
			}
		})
	}
}
