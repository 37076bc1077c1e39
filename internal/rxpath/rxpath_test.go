package rxpath

import (
	"errors"
	"testing"

	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/faults"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/workload"
)

func compile(t *testing.T, m *nic.Model, sems ...semantics.Name) *core.Result {
	t.Helper()
	intent, err := core.IntentFromSemantics("rxpath_test", semantics.Default, sems...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Compile(intent, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func lane(res *core.Result) *Lane {
	return &Lane{RT: codegen.NewRuntime(res, softnic.Funcs())}
}

// testQueue opens a one-lane queue on e1000e and returns it with the two
// compilations a switchover moves between (checksum path, RSS path).
func testQueue(t *testing.T) (q *Queue, csum, rss *core.Result, packets [][]byte) {
	t.Helper()
	m := nic.MustLoad("e1000e")
	csum, rss = compile(t, m, semantics.IPChecksum, semantics.PktLen), compile(t, m, semantics.RSS, semantics.PktLen)
	if csum.Selected.Path.ID == rss.Selected.Path.ID {
		t.Fatal("test needs two distinct completion paths")
	}
	q, err := New(nicsim.MustNew(m, nicsim.Config{}), csum.Config, nil)
	if err != nil {
		t.Fatal(err)
	}
	q.SetLane(0, lane(csum))
	tr, err := workload.Generate(workload.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	return q, csum, rss, tr.Packets
}

// TestDrainParksUnderTheOldLane: a drain consumes the ring under the lane the
// packets were DMAed with; after the lane changes, Poll still delivers the
// parked packets first, in order, read through the old runtime, and a limit
// counts parked and live deliveries alike.
func TestDrainParksUnderTheOldLane(t *testing.T) {
	q, csum, rss, packets := testQueue(t)
	for _, p := range packets[:6] {
		if !q.Rx(p, 0) {
			t.Fatal("rx refused")
		}
	}
	if drained, soft := q.Drain(); drained != 6 || soft != 0 || q.Live() != 0 || q.Pending() != 6 {
		t.Fatalf("drain = %d/%d, live %d, pending %d", drained, soft, q.Live(), q.Pending())
	}
	if err := q.Reprogram(rss.Config, rss.Selected.Path.ID, nil); err != nil {
		t.Fatal(err)
	}
	q.SetLane(0, lane(rss))
	for _, p := range packets[6:10] {
		if !q.Rx(p, 0) {
			t.Fatal("rx refused")
		}
	}
	next := 0
	h := func(p []byte, m Meta) {
		if &p[0] != &packets[next][0] {
			t.Fatalf("delivery %d out of order", next)
		}
		want := rss
		if next < 6 {
			want = csum
		}
		if Of(m).RT.Result != want {
			t.Fatalf("delivery %d read under path %d, want %d", next, Of(m).RT.Result.Selected.Path.ID, want.Selected.Path.ID)
		}
		if v, ok := m.Get("pkt_len"); !ok || v != uint64(len(p)) {
			t.Fatalf("delivery %d: pkt_len = %d/%v", next, v, ok)
		}
		next++
	}
	if n := q.Poll(4, h); n != 4 {
		t.Fatalf("limited poll delivered %d, want 4", n)
	}
	if n := q.Poll(4, h); n != 4 || next != 8 {
		t.Fatalf("a limit spanning parked and live packets delivered %d (total %d), want 4 (8)", n, next)
	}
	if n := q.Poll(-1, h); n != 2 || q.Pending() != 0 {
		t.Fatalf("final poll delivered %d, %d still pending", n, q.Pending())
	}
}

// TestDrainKeepsThePendingArray: draining compacts the pending FIFO in place,
// so the next burst reuses its backing array (popping from the front walked
// the slice base forward and made the next append reallocate).
func TestDrainKeepsThePendingArray(t *testing.T) {
	q, _, _, packets := testQueue(t)
	fill := func() {
		for _, p := range packets[:32] {
			if !q.Rx(p, 0) {
				t.Fatal("rx refused")
			}
		}
	}
	fill()
	base, size := &q.pending[0], cap(q.pending)
	q.Drain()
	q.Poll(-1, func([]byte, Meta) {})
	fill()
	if &q.pending[0] != base || cap(q.pending) != size {
		t.Fatalf("pending FIFO was reallocated across a drain (cap %d → %d)", size, cap(q.pending))
	}
}

// TestDrainSoftParksLostCompletions: with no hardening armed, a drain is
// still the one place a lost completion is noticed — the packet is parked
// for software delivery instead of meeting the next layout's records.
func TestDrainSoftParksLostCompletions(t *testing.T) {
	q, _, _, packets := testQueue(t)
	inj := faults.New(faults.Plan{Seed: 1})
	q.Dev().InjectFaults(inj)
	q.Rx(packets[0], 0)
	inj.ScriptNext(faults.Drop)
	q.Rx(packets[1], 0)
	if drained, soft := q.Drain(); drained != 1 || soft != 1 {
		t.Fatalf("drain = %d with record, %d without; want 1 and 1", drained, soft)
	}
	n := 0
	q.Poll(-1, func(p []byte, m Meta) {
		if soft := Of(m).Rec == nil; soft != (n == 1) || m.Hardware("ip_checksum") == soft {
			t.Fatalf("delivery %d: soft = %v", n, soft)
		}
		if v, ok := m.Get("pkt_len"); !ok || v != uint64(len(p)) {
			t.Fatalf("delivery %d: pkt_len = %d/%v", n, v, ok)
		}
		n++
	})
	if n != 2 {
		t.Fatalf("delivered %d of 2", n)
	}
}

// TestReprogramRollsBack: a NAKed or mis-verified reprogram leaves the device
// on the configuration it had, and the queue remembers which that is.
func TestReprogramRollsBack(t *testing.T) {
	q, csum, rss, _ := testQueue(t)
	path := func() int {
		ap, err := q.Dev().ActivePath()
		if err != nil {
			t.Fatal(err)
		}
		return ap.ID
	}
	inj := faults.New(faults.Plan{Seed: 1})
	q.Dev().InjectFaults(inj)
	retries := 0
	for i := 0; i < 4; i++ { // the whole retry budget of the forward apply
		inj.ScriptNext(faults.NAK)
	}
	err := q.Reprogram(rss.Config, rss.Selected.Path.ID, func(int, error) { retries++ })
	if !errors.Is(err, nicsim.ErrConfigNAK) || retries != 4 || path() != csum.Selected.Path.ID {
		t.Fatalf("NAKed reprogram: err %v, %d retries, device on path %d", err, retries, path())
	}
	if err := q.Reprogram(rss.Config, csum.Selected.Path.ID, nil); err == nil || path() != csum.Selected.Path.ID {
		t.Fatalf("mis-verified reprogram: err %v, device on path %d", err, path())
	}
	if err := q.Reprogram(rss.Config, rss.Selected.Path.ID, nil); err != nil || path() != rss.Selected.Path.ID {
		t.Fatalf("clean reprogram: err %v, device on path %d", err, path())
	}
	if err := q.Reprogram(csum.Config, rss.Selected.Path.ID, nil); err == nil || path() != rss.Selected.Path.ID {
		t.Fatalf("a failure after a success must roll back to the new configuration: err %v, path %d", err, path())
	}
}
