package opendesc

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"opendesc/internal/obs/flight"
)

// TestSampledPacketCarriesItsLifecycle: the queue samples a packet once, at
// Rx, and every layer's routine event rides on that decision. Of 64 packets
// through a loss-free driver the snapshot holds, for each one on the grid,
// exactly one dma_emit, ring_push, ring_pop and deliver, one read per Get
// naming its semantic and — on the hardened driver — one verdict under the
// packet's own seq; for a packet off the grid it holds no routine event at
// all. (A ring event's seq is the slot index, the packet's seq minus one.)
func TestSampledPacketCarriesItsLifecycle(t *testing.T) {
	const packets, gets = 64, 3
	for _, tc := range []struct {
		name   string
		harden *HardenOptions
	}{{"pinned", nil}, {"hardened", &HardenOptions{Deep: true}}} {
		t.Run(tc.name, func(t *testing.T) {
			intent, err := NewIntent("lifecycle", "rss", "vlan", "pkt_len")
			if err != nil {
				t.Fatal(err)
			}
			drv, err := OpenWith("e1000e", intent, OpenOptions{Harden: tc.harden})
			if err != nil {
				t.Fatal(err)
			}
			// Bursts of 24, so grid packets are delivered first, mid-burst
			// and last in a poll.
			driveExactlyOnce(t, drv, hardPackets(packets), 24)

			got := map[uint32]map[flight.Code]int{} // packet seq → code → events
			for seq := uint32(1); seq <= packets; seq++ {
				got[seq] = map[flight.Code]int{}
			}
			for _, q := range drv.Flight().Snapshot().Queues {
				for _, ev := range q.Events {
					seq := ev.Seq
					if ev.Code == flight.EvRingPush || ev.Code == flight.EvRingPop {
						seq++
					}
					if got[seq] == nil {
						continue
					}
					got[seq][ev.Code]++
					if name := flight.UnpackName(ev.Arg0); (ev.Code == flight.EvReadHW || ev.Code == flight.EvReadSoft) &&
						name != "rss" && name != "vlan" && name != "pkt_len" {
						t.Errorf("packet %d: read event names %q", seq, name)
					}
				}
			}
			for seq := uint32(1); seq <= packets; seq++ {
				want := map[flight.Code]int{}
				if flight.Sampled(seq) {
					want = map[flight.Code]int{flight.EvDMAEmit: 1, flight.EvRingPush: 1, flight.EvRingPop: 1, flight.EvDeliver: 1, flight.EvReadHW: gets}
					if tc.harden != nil {
						want[flight.EvVerdict] = 1
					}
				}
				ev := got[seq]
				ev[flight.EvReadHW] += ev[flight.EvReadSoft] // a read is a read
				for _, c := range []flight.Code{flight.EvDMAEmit, flight.EvRingPush, flight.EvRingPop, flight.EvVerdict, flight.EvReadHW, flight.EvDeliver} {
					if ev[c] != want[c] {
						t.Errorf("packet %d: %d %s events, want %d", seq, ev[c], c, want[c])
					}
				}
			}
		})
	}
}

// TestScrapesDuringTraffic is the recorder under its production concurrency
// (run it with -race -count=10): one goroutine drives a pinned driver's
// Rx/Poll loop, the queue's only writer, through several laps of its ring,
// while another scrapes the driver's /debug/flight handler in both machine
// formats and takes snapshots. Every scrape must decode, carry no unknown
// code and no zero timestamp, and hold each sampled packet's events in
// lifecycle order (lifecycleStage).
func TestScrapesDuringTraffic(t *testing.T) {
	drv, err := Open("ice", "rss", "vlan", "pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	packets := hardPackets(256)
	const rounds, batch = 64, 32
	rec := drv.Flight()
	h := rec.Handler()
	scrape := func(format string) *bytes.Buffer {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/flight?format="+format, nil))
		return w.Body
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the datapath: Rx and Poll on one goroutine, as in production
		defer wg.Done()
		defer close(done)
		delivered := 0
		read := func(_ []byte, meta Meta) {
			meta.Get("rss")
			meta.Get("vlan")
			meta.Get("pkt_len")
			delivered++
		}
		for r := 0; r < rounds; r++ {
			for i := 0; i < len(packets); i += batch {
				for _, p := range packets[i : i+batch] {
					if !drv.Rx(p) {
						t.Errorf("rx refused after %d deliveries", delivered)
						return
					}
				}
				drv.Poll(read)
			}
		}
		if want := rounds * len(packets); delivered != want {
			t.Errorf("delivered %d of %d packets", delivered, want)
		}
	}()
	scrapes := 0
	go func() { // the operator: scrape until the traffic stops, at least once after
		defer wg.Done()
		for stopped := false; !stopped; scrapes++ {
			select {
			case <-done:
				stopped = true
			default:
			}
			snap, err := flight.ReadDump(scrape("bin"))
			if err != nil {
				t.Errorf("scrape %d: ?format=bin does not decode: %v", scrapes, err)
				return
			}
			var tr struct {
				TraceEvents []flight.ChromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(scrape("trace").Bytes(), &tr); err != nil {
				t.Errorf("scrape %d: ?format=trace does not decode: %v", scrapes, err)
				return
			}
			if !scrapeHolds(t, "bin", snap) || !scrapeHolds(t, "trace", traceSnapshot(tr.TraceEvents)) ||
				!scrapeHolds(t, "snapshot", rec.Snapshot()) {
				return
			}
		}
	}()
	wg.Wait()
	t.Logf("%d scrapes of each kind during %d packets", scrapes, rounds*len(packets))
}

// lifecycleStage ranks a sampled packet's routine events in the order one
// goroutine records them: the device publishes the record (push), then notes
// the DMA (emit); the poll judges it (verdict), the handler reads, the
// cursor releases the slot (pop) and the poll closes the lifecycle
// (deliver). Codes outside the lifecycle rank 0.
var lifecycleStage = map[flight.Code]int{
	flight.EvRingPush: 1, flight.EvDMAEmit: 2, flight.EvVerdict: 3,
	flight.EvReadHW: 4, flight.EvReadSoft: 4, flight.EvRingPop: 5, flight.EvDeliver: 6,
}

// scrapeHolds checks one scrape: known codes, stamped events, and each
// packet's lifecycle events on the grid and in stage order.
func scrapeHolds(t *testing.T, what string, snap *flight.Snapshot) bool {
	t.Helper()
	stage := map[uint32]int{} // packet seq → latest stage seen
	for _, q := range snap.Queues {
		for _, ev := range q.Events {
			if ev.Code == flight.EvNone || strings.HasPrefix(ev.Code.String(), "code_") {
				t.Errorf("%s: unknown event code %d: %+v", what, ev.Code, ev)
				return false
			}
			if ev.TS == 0 {
				t.Errorf("%s: event with a zero timestamp: %+v", what, ev)
				return false
			}
			s := lifecycleStage[ev.Code]
			if s == 0 {
				continue
			}
			seq := ev.Seq
			if ev.Code == flight.EvRingPush || ev.Code == flight.EvRingPop {
				seq++ // a ring event carries the slot index
			}
			if !flight.Sampled(seq) {
				t.Errorf("%s: packet %d is off the grid but recorded %s", what, seq, ev.Code)
				return false
			}
			if s < stage[seq] {
				t.Errorf("%s: packet %d recorded %s after a later stage", what, seq, ev.Code)
				return false
			}
			stage[seq] = s
		}
	}
	return true
}

// traceSnapshot maps a Chrome trace back to events: an instant names its
// code, a completion span is the deliver event it was drawn from, and a name
// it does not know maps to EvNone.
func traceSnapshot(tes []flight.ChromeEvent) *flight.Snapshot {
	code := map[string]flight.Code{"completion": flight.EvDeliver}
	for c := flight.Code(1); !strings.HasPrefix(c.String(), "code_"); c++ {
		code[c.String()] = c
	}
	var evs []flight.Event
	for _, te := range tes {
		if te.Ph == "M" {
			continue
		}
		seq, _ := te.Args["seq"].(float64)
		evs = append(evs, flight.Event{TS: uint64(te.TS*1e3 + te.Dur*1e3), Code: code[te.Name], Seq: uint32(seq)})
	}
	return &flight.Snapshot{Queues: []flight.QueueEvents{{Events: evs}}}
}
