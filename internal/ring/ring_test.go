package ring

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"opendesc/internal/obs/flight"
)

func TestNewRoundsToPowerOfTwo(t *testing.T) {
	r := MustNew(8, 5)
	if r.Capacity() != 8 {
		t.Errorf("capacity = %d, want 8", r.Capacity())
	}
	if r.EntrySize() != 8 {
		t.Errorf("entry size = %d", r.EntrySize())
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Error("zero entry size accepted")
	}
	if _, err := New(8, 0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestPushConsumeFIFO(t *testing.T) {
	r := MustNew(4, 8)
	for i := 0; i < 5; i++ {
		if !r.Push([]byte{byte(i), 0xAA}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.Len() != 5 {
		t.Errorf("len = %d", r.Len())
	}
	for i := 0; i < 5; i++ {
		ok := r.Consume(func(e []byte) {
			if e[0] != byte(i) || e[1] != 0xAA {
				t.Errorf("entry %d = %v", i, e[:2])
			}
			// Short records must be zero padded.
			if e[2] != 0 || e[3] != 0 {
				t.Errorf("entry %d not padded: %v", i, e)
			}
		})
		if !ok {
			t.Fatalf("consume %d failed", i)
		}
	}
	if r.Consume(func([]byte) {}) {
		t.Error("consume on empty ring succeeded")
	}
}

func TestFullRing(t *testing.T) {
	r := MustNew(2, 4)
	for i := 0; i < 4; i++ {
		if !r.Push([]byte{byte(i)}) {
			t.Fatalf("push %d", i)
		}
	}
	if r.Push([]byte{9}) {
		t.Error("push on full ring succeeded")
	}
	if r.Free() != 0 {
		t.Errorf("free = %d", r.Free())
	}
	r.Consume(func([]byte) {})
	if !r.Push([]byte{9}) {
		t.Error("push after consume failed")
	}
}

func TestWrapAround(t *testing.T) {
	r := MustNew(1, 4)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if !r.Push([]byte{byte(round*3 + i)}) {
				t.Fatalf("round %d push %d", round, i)
			}
		}
		for i := 0; i < 3; i++ {
			want := byte(round*3 + i)
			r.Consume(func(e []byte) {
				if e[0] != want {
					t.Errorf("got %d, want %d", e[0], want)
				}
			})
		}
	}
}

func TestPeekPop(t *testing.T) {
	r := MustNew(2, 2)
	if r.Peek() != nil {
		t.Error("peek on empty should be nil")
	}
	if r.Pop() {
		t.Error("pop on empty should fail")
	}
	r.Push([]byte{7, 8})
	e := r.Peek()
	if !bytes.Equal(e, []byte{7, 8}) {
		t.Errorf("peek = %v", e)
	}
	if r.Len() != 1 {
		t.Error("peek must not consume")
	}
	if !r.Pop() || r.Len() != 0 {
		t.Error("pop failed")
	}
}

// burst drains up to max entries in one cursor transaction, the way a poll
// loop with max packets pending does — the sampling decision included: it
// hands Release a timestamp for the entries whose 1-based count is on the
// grid, which are the ones Consume samples — and commits the pops it staged.
func burst(r *Ring, max int, use func(entry []byte)) int {
	cur := r.Cursor()
	n := 0
	for ; n < max; n++ {
		e := cur.At()
		if e == nil {
			break
		}
		use(e)
		var ts uint64
		if flight.Sampled(cur.head + 1) {
			ts = 1
		}
		cur.Release(ts)
	}
	cur.Close()
	r.fq.Commit()
	return n
}

// TestConsumeBatch: a batch is consumed as one cursor transaction.
func TestConsumeBatch(t *testing.T) {
	r := MustNew(1, 16)
	for i := 0; i < 10; i++ {
		r.Push([]byte{byte(i)})
	}
	var got []byte
	n := burst(r, 4, func(e []byte) { got = append(got, e[0]) })
	if n != 4 || !bytes.Equal(got, []byte{0, 1, 2, 3}) {
		t.Errorf("batch = %d %v", n, got)
	}
	// The caller bounds the burst, and a bound of zero consumes nothing: a
	// poll with no packet pending must not drain records it has no packet for.
	if n = burst(r, 0, func([]byte) {}); n != 0 || r.Len() != 6 || r.Stats().EmptyStalls != 0 {
		t.Errorf("zero-bound batch = %d, len %d, stats %+v", n, r.Len(), r.Stats())
	}
	if n = burst(r, 100, func([]byte) {}); n != 6 {
		t.Errorf("over-asked batch = %d, want the 6 left", n)
	}
	if burst(r, 4, func([]byte) {}) != 0 {
		t.Error("batch on empty should be 0")
	}
	if st := r.Stats(); st.Consumed != 10 || st.EmptyStalls != 2 {
		t.Errorf("stats = %+v, want 10 consumed and one stall per exhausted burst", st)
	}
}

// events returns what a recorder holds, timestamps cleared.
func events(rec *flight.Recorder) []flight.Event {
	var out []flight.Event
	for _, q := range rec.Snapshot().Queues {
		for _, ev := range q.Events {
			ev.TS = 0
			out = append(out, ev)
		}
	}
	return out
}

// TestCursorPopEventIsOccupancyAfter pins the one meaning of EvRingPop's
// seq and arg0: a burst records per sampled entry, under its slot index (its
// 1-based count minus one) with the occupancy left behind it, not once per
// burst with its size.
func TestCursorPopEventIsOccupancyAfter(t *testing.T) {
	rec := flight.NewRecorder(flight.Config{})
	r := MustNew(1, 64)
	for i := 0; i < 36; i++ {
		r.Push([]byte{byte(i)})
	}
	r.AttachFlight(rec.Queue("q0"))
	if n := burst(r, 34, func([]byte) {}); n != 34 {
		t.Fatalf("burst = %d", n)
	}
	want := []flight.Event{
		{Code: flight.EvRingPop, Seq: 15, Arg0: 20},
		{Code: flight.EvRingPop, Seq: 31, Arg0: 4},
	}
	if got := events(rec); !reflect.DeepEqual(got, want) {
		t.Errorf("events = %+v, want %+v", got, want)
	}
}

// TestCursorMatchesConsume is the cursor's differential property: a poll
// loop written on the cursor and the same loop written on Consume see the
// same entries in the same order, leave identical Stats, and record identical
// flight events — across the uint32 index wrap, bursts released in part,
// bursts that ask for more than is there, and polls of an empty ring (the
// sampled EvRingEmpty included).
func TestCursorMatchesConsume(t *testing.T) {
	type side struct {
		r    *Ring
		rec  *flight.Recorder
		seen []byte
	}
	mk := func() *side {
		s := &side{r: MustNew(2, 8), rec: flight.NewRecorder(flight.Config{})}
		// 20 entries short of the index wrap.
		s.r.head.Store(^uint32(0) - 19)
		s.r.tail.Store(^uint32(0) - 19)
		s.r.AttachFlight(s.rec.Queue("q0"))
		return s
	}
	viaConsume, viaCursor := mk(), mk()
	rng := rand.New(rand.NewSource(14))
	next := byte(0)
	for step := 0; step < 600; step++ {
		for k := rng.Intn(7); k > 0; k-- {
			rec := []byte{next, ^next}
			if viaConsume.r.Push(rec) != viaCursor.r.Push(rec) {
				t.Fatalf("step %d: push outcomes differ", step)
			}
			next++
		}
		// One poll with max packets pending; every third poll hits whatever
		// is there, empty or not.
		max := rng.Intn(10)
		if step%3 == 0 {
			max = 1 + rng.Intn(3)
		}
		a := 0
		for ; a < max; a++ {
			if !viaConsume.r.Consume(func(e []byte) { viaConsume.seen = append(viaConsume.seen, e...) }) {
				break
			}
		}
		b := burst(viaCursor.r, max, func(e []byte) { viaCursor.seen = append(viaCursor.seen, e...) })
		if a != b {
			t.Fatalf("step %d: consumed %d by Consume, %d by cursor", step, a, b)
		}
		if sa, sb := viaConsume.r.Stats(), viaCursor.r.Stats(); sa != sb {
			t.Fatalf("step %d: stats differ:\n consume %+v\n cursor  %+v", step, sa, sb)
		}
	}
	if !bytes.Equal(viaConsume.seen, viaCursor.seen) {
		t.Fatal("entries differ")
	}
	st := viaCursor.r.Stats()
	if st.Consumed < 1000 || st.EmptyStalls < 2*flight.SamplePeriod || viaCursor.r.head.Load() > 1<<31 {
		t.Fatalf("script too tame to prove anything: %+v, head %#x", st, viaCursor.r.head.Load())
	}
	ea, eb := events(viaConsume.rec), events(viaCursor.rec)
	if !reflect.DeepEqual(ea, eb) {
		t.Fatalf("flight events differ: %d by Consume, %d by cursor", len(ea), len(eb))
	}
	if len(ea) < 100 {
		t.Fatalf("only %d events recorded", len(ea))
	}
}

func TestPushOversizedRejected(t *testing.T) {
	r := MustNew(2, 2)
	if r.Push([]byte{1, 2, 3}) {
		t.Error("oversized push should be rejected")
	}
	if r.Len() != 0 {
		t.Error("rejected push must not occupy a slot")
	}
	if st := r.Stats(); st.Oversized != 1 || st.Produced != 0 {
		t.Errorf("oversized=%d produced=%d, want 1/0", st.Oversized, st.Produced)
	}
	// A well-sized record still goes through afterwards.
	if !r.Push([]byte{1, 2}) {
		t.Error("valid push after oversized rejection failed")
	}
}

func TestMustPushOversizedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized MustPush should panic")
		}
	}()
	MustNew(2, 2).MustPush([]byte{1, 2, 3})
}

func TestReset(t *testing.T) {
	r := MustNew(1, 4)
	r.Push([]byte{1})
	r.Reset()
	if r.Len() != 0 || r.Peek() != nil {
		t.Error("reset did not empty the ring")
	}
}

// TestSPSCConcurrent exercises the single-producer single-consumer contract
// across goroutines: every record arrives exactly once, in order.
func TestSPSCConcurrent(t *testing.T) {
	r := MustNew(2, 64)
	const n = 10000
	var wg sync.WaitGroup
	wg.Add(2)
	errs := make(chan string, 1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; {
			if r.Push([]byte{byte(i), byte(i >> 8)}) {
				i++
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; {
			ok := r.Consume(func(e []byte) {
				got := int(e[0]) | int(e[1])<<8
				if got != i&0xFFFF {
					select {
					case errs <- "out of order":
					default:
					}
				}
			})
			if ok {
				i++
			}
		}
	}()
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

// Property: a random push/consume schedule never loses or duplicates records.
func TestQuickSchedule(t *testing.T) {
	f := func(ops []bool) bool {
		r := MustNew(2, 8)
		next := 0   // next value to push
		expect := 0 // next value to consume
		for _, push := range ops {
			if push {
				if r.Push([]byte{byte(next), byte(next >> 8)}) {
					next++
				}
			} else {
				r.Consume(func(e []byte) {
					got := int(e[0]) | int(e[1])<<8
					if got != expect&0xFFFF {
						panic("order violation")
					}
					expect++
				})
			}
		}
		return expect <= next && r.Len() == next-expect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestStatsExactAcrossWrapAround tracks every counter against a shadow model
// through several full wrap-arounds of the index space, including the
// full and empty boundaries where stall counters must tick.
func TestStatsExactAcrossWrapAround(t *testing.T) {
	r := MustNew(1, 4)
	var produced, consumed, fullStalls, emptyStalls uint64
	occ, hwm := 0, 0

	check := func(when string) {
		t.Helper()
		st := r.Stats()
		want := Stats{
			Produced: produced, Consumed: consumed,
			FullStalls: fullStalls, EmptyStalls: emptyStalls,
			Occupancy: occ, HighWater: hwm,
		}
		if st != want {
			t.Fatalf("%s: stats = %+v, want %+v", when, st, want)
		}
		if r.Occupancy() != occ || r.Capacity() != 4 {
			t.Fatalf("%s: occupancy=%d capacity=%d", when, r.Occupancy(), r.Capacity())
		}
	}

	push := func() bool {
		ok := r.Push([]byte{1})
		if ok {
			produced++
			occ++
			if occ > hwm {
				hwm = occ
			}
		} else {
			fullStalls++
		}
		return ok
	}
	pop := func() bool {
		ok := r.Consume(func([]byte) {})
		if ok {
			consumed++
			occ--
		} else {
			emptyStalls++
		}
		return ok
	}

	check("fresh")
	// Empty boundary: consume on a fresh ring must stall.
	pop()
	check("empty stall")

	// Fill to capacity, then hit the full boundary twice.
	for i := 0; i < 4; i++ {
		if !push() {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	check("full")
	if push() || push() {
		t.Fatal("push on full ring succeeded")
	}
	check("full stalls")

	// Drain completely and hit the empty boundary again.
	for occ > 0 {
		pop()
	}
	pop()
	check("drained")

	// Three index wrap-arounds at varying fill levels. The high-water mark
	// must stay at capacity from the earlier fill, never reset.
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			push()
			push()
			pop()
			pop()
		}
		check("wrap round")
	}
	if hwm != 4 {
		t.Fatalf("shadow high-water = %d, want 4", hwm)
	}

	// Reset empties occupancy but keeps monotonic counters (ethtool
	// semantics).
	push()
	push()
	r.Reset()
	occ = 0
	check("after reset")
}

// TestStatsConsumeBatchAndPop covers the remaining consume paths.
func TestStatsConsumeBatchAndPop(t *testing.T) {
	r := MustNew(1, 8)
	for i := 0; i < 6; i++ {
		r.Push([]byte{byte(i)})
	}
	if n := burst(r, 4, func([]byte) {}); n != 4 {
		t.Fatalf("batch = %d", n)
	}
	r.Peek()
	r.Pop()
	st := r.Stats()
	if st.Produced != 6 || st.Consumed != 5 || st.Occupancy != 1 || st.HighWater != 6 {
		t.Fatalf("stats = %+v", st)
	}
	r.Pop()
	if r.Pop() { // empty
		t.Fatal("pop on empty")
	}
	burst(r, 4, func([]byte) {}) // empty
	st = r.Stats()
	if st.Consumed != 6 || st.EmptyStalls != 2 {
		t.Fatalf("stats after drain = %+v", st)
	}
}

// TestPushDuringReconfigure interleaves producer traffic with the Reset an
// evolve switchover issues when it reprograms the ring for a new descriptor
// layout: entries published before the Reset vanish (their epoch is gone),
// pushes after the Reset land at slot zero, and the monotonic ethtool
// counters keep counting across the boundary.
func TestPushDuringReconfigure(t *testing.T) {
	r := MustNew(8, 4)
	for i := 0; i < 3; i++ {
		if !r.Push([]byte{byte(i)}) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if !r.Consume(func([]byte) {}) {
		t.Fatal("pre-reset consume failed")
	}

	r.Reset() // the reconfigure: old-epoch entries are gone

	if got := r.Len(); got != 0 {
		t.Fatalf("occupancy %d after reset, want 0", got)
	}
	if r.Peek() != nil {
		t.Fatal("peek returned an old-epoch entry after reset")
	}
	// The next push is the new epoch's first entry and must be the next consume.
	if !r.Push([]byte{0xAA}) {
		t.Fatal("post-reset push rejected")
	}
	var got byte
	if !r.Consume(func(e []byte) { got = e[0] }) {
		t.Fatal("post-reset consume failed")
	}
	if got != 0xAA {
		t.Fatalf("consumed %#x after reset, want the new epoch's 0xAA", got)
	}

	st := r.Stats()
	if st.Produced != 4 || st.Consumed != 2 {
		t.Errorf("counters produced=%d consumed=%d, want monotonic 4/2 across reset", st.Produced, st.Consumed)
	}
	if st.Occupancy != 0 {
		t.Errorf("occupancy %d, want 0", st.Occupancy)
	}
}

// TestReconfigureClearsFullBackpressure: a full ring that is reset mid-stream
// accepts a full capacity of new-epoch pushes again (the switchover drain
// path relies on this).
func TestReconfigureClearsFullBackpressure(t *testing.T) {
	r := MustNew(4, 4)
	for i := 0; i < r.Capacity(); i++ {
		if !r.Push([]byte{byte(i)}) {
			t.Fatalf("fill push %d rejected", i)
		}
	}
	if r.Push([]byte{9}) {
		t.Fatal("push into a full ring succeeded")
	}
	stalls := r.Stats().FullStalls

	r.Reset()

	for i := 0; i < r.Capacity(); i++ {
		if !r.Push([]byte{byte(0x10 + i)}) {
			t.Fatalf("new-epoch push %d rejected after reset", i)
		}
	}
	seen := 0
	for r.Consume(func(e []byte) {
		if e[0] != byte(0x10+seen) {
			t.Fatalf("entry %d = %#x, want new-epoch %#x", seen, e[0], 0x10+seen)
		}
		seen++
	}) {
	}
	if seen != r.Capacity() {
		t.Fatalf("drained %d entries, want %d", seen, r.Capacity())
	}
	if got := r.Stats().FullStalls; got != stalls {
		t.Errorf("full stalls moved %d -> %d across reset without a full ring", stalls, got)
	}
}

// TestReconfigureWrapAround resets a ring whose indices have already lapped
// the capacity, then laps it again: slot reuse after the index rebase must
// not resurface stale bytes.
func TestReconfigureWrapAround(t *testing.T) {
	r := MustNew(8, 4)
	// Lap the ring one and a half times.
	for i := 0; i < 6; i++ {
		if !r.Push([]byte{byte(0xE0 + i)}) {
			t.Fatalf("lap push %d rejected", i)
		}
		if !r.Consume(func([]byte) {}) {
			t.Fatalf("lap consume %d failed", i)
		}
	}
	r.Reset()
	// Two more laps in the new epoch; every value must read back exactly.
	for i := 0; i < 2*r.Capacity(); i++ {
		if !r.Push([]byte{byte(i), byte(i >> 1)}) {
			t.Fatalf("post-reset push %d rejected", i)
		}
		var e0, e1 byte
		if !r.Consume(func(e []byte) { e0, e1 = e[0], e[1] }) {
			t.Fatalf("post-reset consume %d failed", i)
		}
		if e0 != byte(i) || e1 != byte(i>>1) {
			t.Fatalf("entry %d read back %#x/%#x, want %#x/%#x", i, e0, e1, byte(i), byte(i>>1))
		}
	}
}

// BenchmarkRingPush is the producer's cost of one completion: a 32-byte
// record into a 256-byte entry, so seven eighths of the entry are zero fill.
// The bytes/s are entry bytes, the unit Push pays in. Pop keeps the ring from
// filling and is in the time.
func BenchmarkRingPush(b *testing.B) {
	const entry = 256
	r, err := New(entry, 64)
	if err != nil {
		b.Fatal(err)
	}
	rec := make([]byte, 32)
	for i := range rec {
		rec[i] = byte(i + 1)
	}
	if a := testing.AllocsPerRun(100, func() { r.Push(rec); r.Pop() }); a != 0 {
		b.Fatalf("%v allocs per push, want 0", a)
	}
	b.SetBytes(entry)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Push(rec)
		r.Pop()
	}
}

// MustPush is Push that panics on an oversized record (a programming error
// in tests and fixtures, where silent rejection would hide the bug).
func (r *Ring) MustPush(rec []byte) bool {
	if len(rec) > r.entrySize {
		panic(fmt.Sprintf("ring: record %dB exceeds entry size %dB", len(rec), r.entrySize))
	}
	return r.Push(rec)
}
