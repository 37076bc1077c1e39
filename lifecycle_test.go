package opendesc

import (
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
	if !flight.Compiled {
		t.Skip("flight recording compiled out")
	}
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
