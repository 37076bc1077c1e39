package rxpath

import (
	"bytes"
	"errors"
	"maps"
	"math"
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

// hashQueue opens an e1000e queue whose lanes serve payload_hash and kv_key
// in software through their burst forms, and a trace of unique 1 KiB-payload
// packets, 30% of them key-value requests.
func hashQueue(t *testing.T, lanes int) (q *Queue, res *core.Result, packets [][]byte) {
	t.Helper()
	m := nic.MustLoad("e1000e")
	res = compile(t, m, semantics.PayloadHash, semantics.KVKey, semantics.PktLen)
	q, err := New(nicsim.MustNew(m, nicsim.Config{}), res.Config, nil)
	if err != nil {
		t.Fatal(err)
	}
	for tag := range lanes {
		l, err := q.Link(res)
		if err != nil {
			t.Fatal(err)
		}
		q.SetLane(tag, l)
	}
	tr, err := workload.Generate(workload.Spec{Packets: 256, Flows: 64, PayloadBytes: 1024, TCPFraction: 0.6, KVFraction: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return q, res, tr.Packets
}

// read is a handler reading sems against the golden oracle.
func read(t *testing.T, sems ...semantics.Name) DeliverFunc {
	return func(_ []byte, m Meta) {
		for _, sem := range sems {
			v, ok := m.Get(string(sem))
			if want, wok := Want(m, string(sem)); !ok || !wok || v != want {
				t.Fatalf("seq %d: %s = %#x/%v, want %#x", Of(m).Seq, sem, v, ok, want)
			}
		}
	}
}

// formCounts wraps the burst form behind every memo of q's lanes so that it
// counts, per semantic, the frames it hashes and its calls, and fails a call
// that hashes packets of two tags (tagOf).
func formCounts(t *testing.T, q *Queue, tagOf map[*byte]uint32) (hashed, calls map[semantics.Name]int) {
	hashed, calls = make(map[semantics.Name]int), make(map[semantics.Name]int)
	for tag, l := range q.lanes {
		for _, sem := range []semantics.Name{semantics.PayloadHash, semantics.KVKey} {
			if r, i := l.RT.Lookup(sem); r.Hardware || l.burst == nil || l.burst[i].form == nil {
				t.Fatalf("lane %d: %s not linked to its burst form", tag, sem)
			}
		}
		for i := range l.burst {
			m := &l.burst[i]
			if m.form == nil {
				continue
			}
			sem, f := l.RT.Readers[i].Semantic, m.form
			m.form = func(frames [][]byte, out []uint64) {
				for _, p := range frames[1:] {
					if tagOf[&p[0]] != tagOf[&frames[0][0]] {
						t.Fatalf("a %s call on tag %d hashed a packet of tag %d", sem, tagOf[&frames[0][0]], tagOf[&p[0]])
					}
				}
				hashed[sem] += len(frames)
				calls[sem]++
				f(frames, out)
			}
		}
	}
	return hashed, calls
}

// pollCounted polls q limit deliveries at a time, reading sems on each, until
// nothing is pending. Each form must hash every packet exactly once, in fewer
// calls than deliveries, and a poll at most its reads plus BurstMax − 1
// packets ahead.
func pollCounted(t *testing.T, q *Queue, limit int, hashed, calls map[semantics.Name]int, sems ...semantics.Name) {
	t.Helper()
	delivered := 0
	for q.Pending() > 0 {
		before := maps.Clone(hashed)
		n := q.Poll(limit, read(t, sems...))
		for _, sem := range sems {
			if h := hashed[sem] - before[sem]; h > n+softnic.BurstMax-1 {
				t.Fatalf("a poll of %d reads hashed %d packets for %s", n, h, sem)
			}
		}
		delivered += n
	}
	for _, sem := range sems {
		if hashed[sem] != delivered || calls[sem] >= delivered {
			t.Fatalf("%s: %d packets hashed in %d calls for %d deliveries, want each once and fewer calls",
				sem, hashed[sem], calls[sem], delivered)
		}
	}
}

// TestBurstStaysInItsTag: on a two-lane queue where every delivery reads
// payload_hash, one burst-form call hashes the delivery's packet and pending
// packets of its tag only; the memo carries a call's values across a poll
// limit.
func TestBurstStaysInItsTag(t *testing.T) {
	q, _, packets := hashQueue(t, 2)
	tagOf := make(map[*byte]uint32)
	hashed, calls := formCounts(t, q, tagOf)
	for i, p := range packets {
		tag := uint32(0) // a run longer than two windows, then runs of 1–3
		if i >= 2*softnic.BurstMax+3 {
			tag = uint32(i*7/11) % 2
		}
		tagOf[&p[0]] = tag
		if !q.Rx(p, tag) {
			t.Fatal("rx refused")
		}
	}
	pollCounted(t, q, 5, hashed, calls, semantics.PayloadHash)
}

// TestBurstFormsKeepTheirMemos: on a lane reading kv_key and payload_hash on
// every delivery, each form keeps its own memo, so neither evicts the other:
// each hashes every packet once. One memo shared by the two would hash a
// window per read.
func TestBurstFormsKeepTheirMemos(t *testing.T) {
	q, _, packets := hashQueue(t, 1)
	hashed, calls := formCounts(t, q, nil)
	for _, p := range packets {
		if !q.Rx(p, 0) {
			t.Fatal("rx refused")
		}
	}
	pollCounted(t, q, 7, hashed, calls, semantics.KVKey, semantics.PayloadHash)
}

// TestLinkAllocGate: a lane's memos cost Link one allocation, however many
// burst forms it reads, so linking a lane with two forms allocates one less
// than it did when a lane kept one memo for every form (seven).
func TestLinkAllocGate(t *testing.T) {
	q, res, _ := hashQueue(t, 0)
	const limit = 6
	got := testing.AllocsPerRun(20, func() {
		if _, err := q.Link(res); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Link of a lane with two burst forms: %.0f allocations (limit %d)", got, limit)
	if got > limit {
		t.Fatalf("Link allocates %.0f, limit %d", got, limit)
	}
}

// TestBurstMemoNeedsTheSamePacket: a memo hit needs the sequence number and
// the packet, so a number reused after the 32-bit sequence wraps reads the
// new packet's value; and a queue that counts its shim calls (Instrument)
// links no burst form, one shim call per read.
func TestBurstMemoNeedsTheSamePacket(t *testing.T) {
	q, res, packets := hashQueue(t, 1)
	q.seq = math.MaxUint32 - 2
	for _, p := range packets[:6] { // seq 2³²−2 … 3: one window
		q.Rx(p, 0)
	}
	q.Poll(-1, read(t, semantics.PayloadHash, semantics.KVKey))
	var reused []byte
	for _, p := range packets[6:] {
		if len(p) == len(packets[0]) && !bytes.Equal(p, packets[0]) {
			reused = p
			break
		}
	}
	if reused == nil {
		t.Fatal("test needs a different packet of the same length")
	}
	q.seq = math.MaxUint32 - 2 // the next Rx reuses packets[0]'s number
	q.Rx(reused, 0)
	for _, sem := range []semantics.Name{semantics.PayloadHash, semantics.KVKey} {
		if _, i := q.lanes[0].RT.Lookup(sem); q.pending[0].Seq != q.lanes[0].burst[i].seq[0] {
			t.Fatalf("%s: seq %d, the last call holds %d", sem, q.pending[0].Seq, q.lanes[0].burst[i].seq[0])
		}
	}
	q.Poll(-1, read(t, semantics.PayloadHash, semantics.KVKey))

	q, _, packets = hashQueue(t, 0)
	st := softnic.NewShimStats(nil)
	q.Instrument(st)
	l, err := q.Link(res)
	if err != nil || l.burst != nil {
		t.Fatalf("instrumented lane: err %v, burst form linked", err)
	}
	q.SetLane(0, l)
	for _, p := range packets[:16] {
		q.Rx(p, 0)
	}
	q.Poll(-1, read(t, semantics.PayloadHash, semantics.KVKey))
	for _, sem := range []semantics.Name{semantics.PayloadHash, semantics.KVKey} {
		if c := st.Cost(sem).Calls; c != 16 {
			t.Fatalf("16 reads of %s made %d shim calls", sem, c)
		}
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
