package rxpath

import (
	"bytes"
	"errors"
	"maps"
	"math"
	"testing"

	"opendesc/internal/bitfield"
	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/faults"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
	"opendesc/internal/obs/flight"
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

// TestPollOnEmptyRingCountsOneStall pins the empty-ring accounting of the
// unjudged receive loop, which reads a record only after Avail: a Poll with
// a packet pending and no record in the ring delivers nothing and counts
// exactly one empty stall, recorded as EvRingEmpty when the stall count is on
// the sampling grid. A Drain judges the head from Avail alone and counts none.
func TestPollOnEmptyRingCountsOneStall(t *testing.T) {
	q, _, _, packets := testQueue(t)
	q.Rx(packets[0], 0)
	cmpt := q.Dev().CmptRing
	if !cmpt.Pop() {
		t.Fatal("no completion to take")
	}
	empties := func() (evs []flight.Event) {
		for _, qe := range q.Flight().Snapshot().Queues {
			for _, ev := range qe.Events {
				if ev.Code == flight.EvRingEmpty {
					evs = append(evs, ev)
				}
			}
		}
		return evs
	}
	for k := 1; k <= 2*flight.SamplePeriod; k++ {
		if n := q.Poll(-1, func([]byte, Meta) { t.Fatal("delivered a packet with no record") }); n != 0 {
			t.Fatalf("poll %d delivered %d", k, n)
		}
		if st := cmpt.Stats(); st.EmptyStalls != uint64(k) || q.Pending() != 1 {
			t.Fatalf("poll %d: %d empty stalls, %d pending; want %d and 1", k, st.EmptyStalls, q.Pending(), k)
		}
		evs := empties()
		if len(evs) != k/flight.SamplePeriod {
			t.Fatalf("poll %d: %d EvRingEmpty events, want %d", k, len(evs), k/flight.SamplePeriod)
		}
		for _, ev := range evs {
			if ev.Seq != 1 || ev.Arg0 != 0 {
				t.Fatalf("EvRingEmpty seq %d arg0 %d, want the head 1 and 0", ev.Seq, ev.Arg0)
			}
		}
	}
	if drained, soft := q.Drain(); drained != 0 || soft != 1 || cmpt.Stats().EmptyStalls != 2*flight.SamplePeriod {
		t.Fatalf("drain: %d with record, %d without, %d stalls", drained, soft, cmpt.Stats().EmptyStalls)
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
// burst forms it reads, and a hardware reader costs none: it is an offset
// and a width, with no closure to build. A lane with two forms and a
// hardware reader links in five.
func TestLinkAllocGate(t *testing.T) {
	q, res, _ := hashQueue(t, 0)
	const limit = 5
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
// links the same burst forms as any other queue, its memos counting one
// delivered value per read in fewer form calls than reads.
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

	plain := q.lanes[0]
	q, _, packets = hashQueue(t, 0)
	st := softnic.NewShimStats()
	q.Instrument(st)
	l, err := q.Link(res)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.burst {
		if (l.burst[i].form == nil) != (plain.burst[i].form == nil) || (l.burst[i].meter == nil) != (plain.burst[i].form == nil) {
			t.Fatalf("reader %s: instrumented memo %+v, uninstrumented form linked %v", l.RT.Readers[i].Semantic, l.burst[i], plain.burst[i].form != nil)
		}
	}
	q.SetLane(0, l)
	_, calls := formCounts(t, q, nil)
	for _, p := range packets[:16] {
		q.Rx(p, 0)
	}
	q.Poll(-1, read(t, semantics.PayloadHash, semantics.KVKey))
	for _, sem := range []semantics.Name{semantics.PayloadHash, semantics.KVKey} {
		if c := st.Cost(sem).Calls; c != 16 || calls[sem] == 0 || calls[sem] >= 16 {
			t.Fatalf("16 reads of %s: %d values delivered in %d form calls", sem, c, calls[sem])
		}
	}
}

// TestWindowTimingOnGrid is the gate on metering burst forms: on an
// instrumented queue polled 32 packets at a time, each memo times a window
// when the form's own call ordinal is on the flight grid and on no other call,
// and a timed window is credited with every value it serves, memo hits
// included. A dense reader (every delivery) credits a whole window; a sparse
// one (every SamplePeriod-th delivery) credits the 2 values its window
// serves. A grid on read ordinals would time only memo hits here.
func TestWindowTimingOnGrid(t *testing.T) {
	for _, arm := range []struct {
		name   string
		every  int // a delivery reads both forms when its ordinal is a multiple
		served uint64
	}{{"dense", 1, softnic.BurstMax}, {"sparse", flight.SamplePeriod, softnic.BurstMax / flight.SamplePeriod}} {
		t.Run(arm.name, func(t *testing.T) {
			q, res, packets := hashQueue(t, 0)
			st := softnic.NewShimStats()
			rec := flight.NewRecorder(flight.Config{})
			st.AttachFlight(rec.Queue("shims"))
			q.Instrument(st)
			l, err := q.Link(res)
			if err != nil {
				t.Fatal(err)
			}
			q.SetLane(0, l)
			_, windows := formCounts(t, q, nil)
			sems := []semantics.Name{semantics.PayloadHash, semantics.KVKey}
			want := map[semantics.Name]uint64{}
			delivered := 0
			const polls = 4 * flight.SamplePeriod
			for poll := range polls {
				for i := range softnic.BurstMax {
					if !q.Rx(packets[(poll*softnic.BurstMax+i)%len(packets)], 0) {
						t.Fatal("rx refused")
					}
				}
				q.Poll(softnic.BurstMax, func(pkt []byte, m Meta) {
					if delivered++; delivered%arm.every == 0 {
						read(t, sems...)(pkt, m)
					}
				})
				for _, sem := range sems {
					_, i := l.RT.Lookup(sem)
					if windows[sem] != poll+1 {
						t.Fatalf("%s poll %d: %d form calls, want one window per poll", sem, poll, windows[sem])
					}
					if timed := l.burst[i].timed; timed != flight.Sampled(uint32(windows[sem])) {
						t.Fatalf("%s: window %d timed %v, want on the grid only", sem, windows[sem], timed)
					}
					if l.burst[i].timed {
						want[sem] += arm.served
					}
				}
			}
			for _, sem := range sems {
				sc := st.Cost(sem)
				reads := uint64(delivered / arm.every)
				if sc.Calls != reads || want[sem] == 0 || sc.Timed != want[sem] || sc.Nanos < polls/flight.SamplePeriod {
					t.Errorf("%s: %+v after %d reads in %d windows, want %d calls, %d timed values and time measured",
						sem, sc, reads, windows[sem], reads, want[sem])
				}
				if got := len(shimEvents(rec, sem)); got != polls/flight.SamplePeriod {
					t.Errorf("%s: %d EvShim events for %d windows", sem, got, windows[sem])
				}
				t.Logf("%s: %+v in %d windows", sem, sc, windows[sem])
			}
		})
	}
}

// shimEvents returns rec's EvShim events of sem.
func shimEvents(rec *flight.Recorder, sem semantics.Name) (evs []flight.Event) {
	for _, q := range rec.Snapshot().Queues {
		for _, ev := range q.Events {
			if ev.Code == flight.EvShim && ev.Arg0 == flight.PackName(string(sem)) {
				evs = append(evs, ev)
			}
		}
	}
	return evs
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

// TestGetReturnsTheRecordsBits: on every path of every bundled NIC, with the
// device programmed for that path, a hardware Get, the reader's Read and a
// bit-slice read of the completion record agree for every hardware reader,
// over the record the device wrote and over that record XORed with a byte
// pattern, so a field the traffic leaves zero is still read at its own bits.
// The bundled layouts reach both of ReadAligned's branches: byte-aligned
// loads, and unaligned widths (ptype's 10 and 13 bits, mlx5's 24-bit
// flow_id and mark, qdma's 1-bit flags and error_flags at bit 418).
func TestGetReturnsTheRecordsBits(t *testing.T) {
	tr, err := workload.Generate(workload.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	var aligned, unaligned int
	for _, m := range nic.All() {
		paths, err := m.Paths()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			res := &core.Result{NIC: m.Name, Selected: core.Scored{Path: p}}
			seen := make(map[semantics.Name]bool)
			for _, f := range p.Fields {
				if f.Semantic != "" && f.WidthBits <= 64 && !seen[f.Semantic] {
					seen[f.Semantic] = true
					res.Accessors = append(res.Accessors, core.Accessor{Semantic: f.Semantic, FieldName: f.Name,
						OffsetBits: f.OffsetBits, WidthBits: f.WidthBits, Hardware: true})
				}
			}
			q, err := New(nicsim.MustNew(m, nicsim.Config{}), p.Constraints, nil)
			if err != nil {
				t.Fatalf("%s path %d: %v", m.Name, p.ID, err)
			}
			if ap, err := q.Dev().ActivePath(); err != nil || ap.ID != p.ID {
				t.Fatalf("%s path %d: device resolves %v (%v)", m.Name, p.ID, ap, err)
			}
			l, err := q.Link(res)
			if err != nil {
				t.Fatal(err)
			}
			q.SetLane(0, l)
			for _, pkt := range tr.Packets[:32] {
				q.Rx(pkt, 0)
			}
			delivered := q.Poll(-1, func(_ []byte, meta Meta) {
				d := Of(meta)
				rec := d.Rec
				mixed := make([]byte, len(rec))
				for i, b := range rec {
					mixed[i] = b ^ byte(i*197+83)
				}
				defer func() { d.Rec = rec }()
				for _, d.Rec = range [][]byte{rec, mixed} {
					for _, r := range d.RT.Readers {
						if !r.Hardware {
							continue
						}
						got, ok := meta.Get(string(r.Semantic))
						read, bits := r.Read(d.Rec, nil), bitfield.Read(d.Rec, r.OffsetBits, r.WidthBits)
						if !ok || got != bits || read != bits {
							t.Fatalf("%s path %d seq %d: %s bits[%d:%d): Get %#x/%v, Read %#x, record %#x",
								m.Name, p.ID, d.Seq, r.Semantic, r.OffsetBits, r.OffsetBits+r.WidthBits, got, ok, read, bits)
						}
						if w := r.WidthBits; r.OffsetBits%8 == 0 && (w == 8 || w == 16 || w == 32 || w == 64) {
							aligned++
						} else {
							unaligned++
						}
					}
				}
			})
			if delivered == 0 {
				t.Errorf("%s path %d: nothing delivered", m.Name, p.ID)
			}
		}
	}
	if aligned == 0 || unaligned == 0 {
		t.Errorf("reads checked: %d aligned, %d unaligned; want both branches of ReadAligned", aligned, unaligned)
	}
}
