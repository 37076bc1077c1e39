package rxpath

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"opendesc/internal/faults"
	"opendesc/internal/obs/flight"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/vclock"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files under testdata/")

// TestStagedPollsLeaveTheUnstagedRing: a poll stages its routine events and
// commits them under one lock, and the ring it leaves is the one a recorder
// that takes the lock once per event leaves. staged_ring.golden was recorded
// by such a recorder, which also read the flight clock at the device's emit,
// the ring's push and the queue's Rx stamp apart. On a virtual clock that
// moves only between operations the run is deterministic, so every event —
// code, sequence number, timestamp, arguments and place in the ring — must
// match: a hardened queue under every fault class, with a hang that trips
// degraded mode and the recovery postmortems, polled in bursts of 32 with
// two reads per delivery and an empty poll after every eighth burst.
func TestStagedPollsLeaveTheUnstagedRing(t *testing.T) {
	q, _, _, trace := testQueue(t)
	clk := vclock.NewVirtual(1)
	q.fq = flight.NewRecorder(flight.Config{Size: 1 << 14, Clock: clk}).Queue("q0")
	q.view.fq = q.fq
	q.dev.AttachFlight(q.fq)
	if err := q.Harden(HardenOptions{Deep: true, DegradeThreshold: 4}); err != nil {
		t.Fatal(err)
	}
	inj, err := faults.Parse("corrupt=0.01,truncate=0.01,dup=0.01,replay=0.01,drop=0.005,hang=1@900", 7)
	if err != nil {
		t.Fatal(err)
	}
	q.dev.InjectFaults(inj)
	h := func(_ []byte, m Meta) {
		m.Get("pkt_len")
		m.Get("ip_checksum")
	}
	const packets, burst = 2048, 32
	for i := 0; i < packets; i++ {
		clk.Advance(7)
		if !q.Rx(trace[i%len(trace)], 0) {
			t.Fatalf("rx %d refused", i)
		}
		if i%burst == burst-1 {
			clk.Advance(50)
			q.Poll(-1, h)
			if i%(8*burst) == 8*burst-1 {
				clk.Advance(50)
				q.Poll(-1, h)
			}
		}
	}
	for q.Pending() > 0 {
		clk.Advance(50)
		q.Poll(-1, h)
	}
	st := q.Hardening()
	if st.Quarantined == 0 || st.StaleDrops == 0 || st.ResyncDrops == 0 || st.DegradedEnters == 0 {
		t.Fatalf("run too tame to cover the hardened paths: %+v", st)
	}
	var out strings.Builder
	for _, ev := range q.Flight().Snapshot().Queues[0].Events {
		fmt.Fprintf(&out, "%d %s %d %d %d\n", ev.TS, ev.Code, ev.Seq, ev.Arg0, ev.Arg1)
	}
	fmt.Fprintf(&out, "postmortems %d\n", q.Flight().Postmortems())
	golden := filepath.Join("testdata", "staged_ring.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("event %d of %d: got %q, want %q", i, len(w)-1, g[i], w[i])
			}
		}
		t.Fatalf("%d events, want %d", len(g)-1, len(w)-1)
	}
}

// TestQuarantinePostmortemHoldsItsPoll: the postmortem the first quarantine
// takes is the snapshot a debugging session opens, so it must hold the events
// of the poll that quarantined — the rejecting verdict and the quarantine
// itself — though that poll's events are staged until it returns.
func TestQuarantinePostmortemHoldsItsPoll(t *testing.T) {
	q, _, _, trace := testQueue(t)
	if err := q.Harden(HardenOptions{Deep: true}); err != nil {
		t.Fatal(err)
	}
	inj, err := faults.Parse("corrupt=0.05,bits=3", 3)
	if err != nil {
		t.Fatal(err)
	}
	q.dev.InjectFaults(inj)
	h := func([]byte, Meta) {}
	for i := 0; q.Hardening().Quarantined == 0; i++ {
		if i == 4096 {
			t.Fatal("no record was quarantined")
		}
		q.Rx(trace[i%len(trace)], 0)
		if i%32 == 31 {
			q.Poll(-1, h)
		}
	}
	snap := q.Flight().LastSnapshot()
	if reason, _, _ := q.Flight().LastPostmortem(); reason != "quarantine" {
		t.Fatalf("last postmortem %q, want the first quarantine's", reason)
	}
	var quarantined uint32
	events := snap.Queues[0].Events
	for _, ev := range events {
		if ev.Code == flight.EvQuarantine {
			quarantined = ev.Seq
		}
	}
	if quarantined == 0 {
		t.Fatal("the quarantine postmortem holds no EvQuarantine")
	}
	verdict := false
	for _, ev := range events {
		verdict = verdict || ev.Code == flight.EvVerdict && ev.Seq == quarantined && ev.Arg0 != 0
	}
	if !verdict {
		t.Errorf("the quarantine postmortem holds no rejecting verdict for packet %d", quarantined)
	}
}

// TestSnapshotDuringStagedPolls takes recorder snapshots from a second
// goroutine while a hardened queue under faults is polled in bursts (run
// under -race; make alloc-gate does). A poll's events land under one lock at
// its commit, so every snapshot must be a prefix of the final ring: no event
// missing before a later one, none out of order, none torn.
func TestSnapshotDuringStagedPolls(t *testing.T) {
	q, _, _, trace := testQueue(t)
	q.fq = flight.NewRecorder(flight.Config{Size: 1 << 14}).Queue("q0")
	q.view.fq = q.fq
	q.dev.AttachFlight(q.fq)
	if err := q.Harden(HardenOptions{Deep: true}); err != nil {
		t.Fatal(err)
	}
	inj, err := faults.Parse("corrupt=0.005,dup=0.005,replay=0.005,drop=0.005", 11)
	if err != nil {
		t.Fatal(err)
	}
	q.dev.InjectFaults(inj)
	done := make(chan struct{})
	go func() {
		defer close(done)
		h := func(_ []byte, m Meta) { m.Get("pkt_len") }
		for i := range 8192 {
			q.Rx(trace[i%len(trace)], 0)
			if i%32 == 31 {
				q.Poll(-1, h)
			}
		}
		q.Poll(-1, h)
	}()
	var seen [][]flight.Event // the snapshots that grew, up to 256
	last := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		evs := q.Flight().Snapshot().Queues[0].Events
		if len(evs) < last {
			t.Fatalf("a snapshot holds %d events, the one before it %d", len(evs), last)
		}
		if len(evs) > last && len(seen) < 256 {
			seen = append(seen, evs)
		}
		last = len(evs)
	}
	final := q.Flight().Snapshot().Queues[0].Events
	if len(final) < 1000 || len(final) >= 1<<14 {
		t.Fatalf("%d events: want enough to race on and fewer than the ring holds", len(final))
	}
	for i, evs := range seen {
		if len(evs) > len(final) || !slices.Equal(evs, final[:len(evs)]) {
			t.Fatalf("snapshot %d (%d events) is not a prefix of the final ring (%d events)", i, len(evs), len(final))
		}
	}
	t.Logf("%d snapshots that grew, %d events", len(seen), len(final))
}

// TestShimEventFollowsItsRead: a timed shim records its event directly, and
// it commits the poll's staged events first, so the read that ran the shim
// stays ahead of the shim's event. Only stamped deliveries read here, so
// each timed window is run by a read recorded just before it.
func TestShimEventFollowsItsRead(t *testing.T) {
	q, res, packets := hashQueue(t, 0)
	st := softnic.NewShimStats()
	st.AttachFlight(q.fq)
	q.Instrument(st)
	l, err := q.Link(res)
	if err != nil {
		t.Fatal(err)
	}
	q.SetLane(0, l)
	h := func(_ []byte, m Meta) {
		if Of(m).TS != 0 {
			m.Get(string(semantics.PayloadHash))
		}
	}
	for i := range 64 * 32 {
		q.Rx(packets[i%len(packets)], 0)
		if i%32 == 31 {
			q.Poll(-1, h)
		}
	}
	shims := 0
	events := q.Flight().Snapshot().Queues[0].Events
	for i, ev := range events {
		if ev.Code != flight.EvShim {
			continue
		}
		shims++
		if prev := events[i-1]; prev.Code != flight.EvReadSoft || prev.Arg0 != ev.Arg0 {
			t.Errorf("shim event %d follows %s of seq %d, not the read that ran it", i, prev.Code, prev.Seq)
		}
	}
	if shims == 0 {
		t.Fatal("no timed shim: the check is vacuous")
	}
}
