//go:build !flight_off

// These tests exercise live recording and are compiled out together with it
// under -tags flight_off (see record_off_test.go for the no-op contract).
package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestRecordSnapshotDecode(t *testing.T) {
	r := NewRecorder(Config{Size: 64})
	q := r.Queue("q0")
	q.Record(EvDMAEmit, 7, 16, 2)
	q.Record(EvDeliver, 7, 100, 250)
	snap := r.Snapshot()
	if len(snap.Queues) != 1 || snap.Queues[0].Name != "q0" {
		t.Fatalf("snapshot queues = %+v", snap.Queues)
	}
	evs := snap.Queues[0].Events
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Code != EvDMAEmit || evs[0].Seq != 7 || evs[0].Arg0 != 16 || evs[0].Arg1 != 2 {
		t.Errorf("event 0 = %+v", evs[0])
	}
	if evs[1].Code != EvDeliver || evs[1].Arg1 != 250 {
		t.Errorf("event 1 = %+v", evs[1])
	}
	if evs[1].TS < evs[0].TS {
		t.Errorf("timestamps not monotone: %d then %d", evs[0].TS, evs[1].TS)
	}
	if evs[0].Queue != q.ID() {
		t.Errorf("queue id = %d, want %d", evs[0].Queue, q.ID())
	}
}

func TestQueueIdentityAndReuse(t *testing.T) {
	r := NewRecorder(Config{})
	a := r.Queue("a")
	b := r.Queue("b")
	if a == b || a.ID() == b.ID() {
		t.Fatalf("distinct names must give distinct queues: %v %v", a.ID(), b.ID())
	}
	if r.Queue("a") != a {
		t.Error("Queue must be idempotent per name")
	}
	if a.Recorder() != r {
		t.Error("Recorder backlink broken")
	}
}

func TestNilQueueIsInert(t *testing.T) {
	var q *Queue
	q.Record(EvDeliver, 1, 2, 3) // must not panic
	q.RecordT(5, EvDeliver, 1, 2, 3)
	if q.Now() != 0 {
		t.Error("nil queue Now() must be 0")
	}
	if q.Dropped() != 0 || q.Recorder() != nil {
		t.Error("nil queue accessors must be zero")
	}
}

func TestDisabledRecordsNothing(t *testing.T) {
	r := NewRecorder(Config{Size: 64})
	q := r.Queue("q0")
	r.SetEnabled(false)
	if q.Now() != 0 {
		t.Error("disabled Now() must be 0")
	}
	q.Record(EvDeliver, 1, 0, 0)
	q.RecordT(123, EvDeliver, 1, 0, 0)
	if n := r.Snapshot().Events(); n != 0 {
		t.Fatalf("disabled recorder captured %d events", n)
	}
	r.SetEnabled(true)
	q.Record(EvDeliver, 2, 0, 0)
	if n := r.Snapshot().Events(); n != 1 {
		t.Fatalf("re-enabled recorder captured %d events, want 1", n)
	}
}

func TestWrapAroundKeepsNewest(t *testing.T) {
	r := NewRecorder(Config{Size: 8})
	q := r.Queue("q0")
	for i := 0; i < 100; i++ {
		q.Record(EvRingPush, uint32(i), uint64(i), 0)
	}
	evs := r.Snapshot().Queues[0].Events
	if len(evs) != 8 {
		t.Fatalf("got %d events after wrap, want ring size 8", len(evs))
	}
	for i, ev := range evs {
		if want := uint32(92 + i); ev.Seq != want {
			t.Errorf("event %d seq = %d, want %d (oldest-first tail)", i, ev.Seq, want)
		}
	}
	// A limited snapshot trims further.
	if got := len(q.snapshot(3)); got != 3 {
		t.Errorf("limited snapshot kept %d, want 3", got)
	}
}

func TestSizeRoundsUpToPowerOfTwo(t *testing.T) {
	r := NewRecorder(Config{Size: 100})
	q := r.Queue("q")
	for i := 0; i < 1000; i++ {
		q.Record(EvRingPush, uint32(i), 0, 0)
	}
	if got := len(r.Snapshot().Queues[0].Events); got != 128 {
		t.Fatalf("ring holds %d events, want 128 (100 rounded up)", got)
	}
}

// TestChunksMaterialiseOnFirstTouch: a ring's storage is allocated a chunk at
// a time as writers reach it, a snapshot passes over the chunks nobody has
// written, and neither a chunk boundary nor a wrap loses or reorders events.
func TestChunksMaterialiseOnFirstTouch(t *testing.T) {
	const size = 4 * chunkSlots
	r := NewRecorder(Config{Size: size})
	q := r.Queue("q0")
	installed := func() (n int) {
		for i := range q.chunks {
			if q.chunks[i].Load() != nil {
				n++
			}
		}
		return n
	}
	if len(q.chunks) != 4 || installed() != 0 {
		t.Fatalf("fresh queue: %d of %d chunks installed, want 0 of 4", installed(), len(q.chunks))
	}
	record := func(from, to int) {
		for i := from; i < to; i++ {
			q.Record(EvRingPush, uint32(i), uint64(i), 0)
		}
	}
	inOrder := func(first, n int) {
		t.Helper()
		evs := q.snapshot(0)
		if len(evs) != n {
			t.Fatalf("snapshot holds %d events, want %d", len(evs), n)
		}
		for i, ev := range evs {
			if ev.Seq != uint32(first+i) || ev.Arg0 != uint64(first+i) {
				t.Fatalf("event %d = %+v, want seq %d", i, ev, first+i)
			}
		}
	}
	record(0, 40) // a smoke burst
	if installed() != 1 {
		t.Errorf("%d chunks after 40 events, want 1", installed())
	}
	inOrder(0, 40)
	record(40, chunkSlots+10) // across the first boundary
	if installed() != 2 {
		t.Errorf("%d chunks after %d events, want 2", installed(), chunkSlots+10)
	}
	inOrder(0, chunkSlots+10)
	record(chunkSlots+10, size+chunkSlots/2) // through a wrap
	if installed() != 4 {
		t.Errorf("%d chunks after a full lap, want 4", installed())
	}
	inOrder(chunkSlots/2, size)
}

// TestConcurrentWritersAndSnapshots is the -race acceptance test (run it with
// -race -count=10): several writers hammer one queue through many
// wrap-arounds while a reader continuously snapshots — a one-chunk ring that
// wraps constantly, and a four-chunk one whose chunks the writers race to
// install while the reader walks across their boundaries. Every decoded event
// must be internally consistent (arg0 must equal the checksum the writer
// computed from its id and seq), proving the sequence validation discards
// torn slots.
func TestConcurrentWritersAndSnapshots(t *testing.T) {
	for _, size := range []int{64, 4 * chunkSlots} {
		t.Run(fmt.Sprintf("size%d", size), func(t *testing.T) { concurrentWritersAndSnapshots(t, size) })
	}
}

func concurrentWritersAndSnapshots(t *testing.T, size int) {
	r := NewRecorder(Config{Size: size})
	q := r.Queue("q0")
	const writers = 4
	const perWriter = 20000
	check := func(writer, seq uint64) uint64 { return writer*1_000_003 + seq*7919 }

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // reader: snapshot continuously, validate every event
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range q.snapshot(0) {
				if ev.Code != EvDeliver || ev.Arg0 != check(ev.Arg1, uint64(ev.Seq)) {
					t.Errorf("torn event surfaced: %+v", ev)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq := uint64(i)
				q.Record(EvDeliver, uint32(seq), check(w, seq), w)
			}
		}(uint64(w))
	}
	wg.Wait()
	close(stop)
	<-readerDone
	// All tickets were issued; drops (lap protection) are permitted but must
	// be rare and accounted.
	if q.wpos.Load() != writers*perWriter {
		t.Fatalf("wpos = %d, want %d", q.wpos.Load(), writers*perWriter)
	}
	t.Logf("lap-protection drops: %d of %d", q.Dropped(), writers*perWriter)
	// Final quiescent snapshot must decode a full ring of valid events.
	evs := q.snapshot(0)
	if len(evs)+int(q.Dropped()) < size && len(evs) < size-4 {
		t.Errorf("quiescent snapshot decoded only %d events", len(evs))
	}
	for _, ev := range evs {
		if ev.Arg0 != check(ev.Arg1, uint64(ev.Seq)) {
			t.Errorf("quiescent torn event: %+v", ev)
		}
	}
}

func TestPackName(t *testing.T) {
	for _, s := range []string{"", "rss", "pkt_len", "exactly8", "truncated-long-name"} {
		got := UnpackName(PackName(s))
		want := s
		if len(want) > 8 {
			want = want[:8]
		}
		if got != want {
			t.Errorf("round trip %q = %q, want %q", s, got, want)
		}
	}
}

func TestDumpRoundTrip(t *testing.T) {
	r := NewRecorder(Config{Size: 64})
	q0 := r.Queue("rx")
	q1 := r.Queue("ctl")
	q0.Record(EvDMAEmit, 1, 16, 0)
	q0.Record(EvDeliver, 1, 900, 1800)
	q1.Record(EvDegrade, 0, 8, 0)
	snap := r.Snapshot()

	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Queues) != 2 || back.Queues[0].Name != "rx" || back.Queues[1].Name != "ctl" {
		t.Fatalf("round trip queues = %+v", back.Queues)
	}
	if len(back.Queues[0].Events) != 2 || back.Queues[0].Events[1] != snap.Queues[0].Events[1] {
		t.Errorf("round trip events drifted: %+v vs %+v",
			back.Queues[0].Events, snap.Queues[0].Events)
	}
	if back.Epoch.UnixNano() != snap.Epoch.UnixNano() {
		t.Errorf("epoch drifted: %v vs %v", back.Epoch, snap.Epoch)
	}

	// Corrupt inputs fail cleanly.
	if _, err := ReadDump(bytes.NewReader([]byte("NOTADUMP"))); err == nil {
		t.Error("bad magic must fail")
	}
	var short bytes.Buffer
	snap.WriteTo(&short)
	trunc := short.Bytes()[:short.Len()-10]
	if _, err := ReadDump(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated dump must fail")
	}
}

func TestPostmortem(t *testing.T) {
	dir := t.TempDir()
	r := NewRecorder(Config{Size: 1024})
	r.SetDumpDir(dir)
	q := r.Queue("q0")
	const recorded = postmortemEvents + 88
	for i := 0; i < recorded; i++ {
		q.Record(EvRingPush, uint32(i), 0, 0)
	}
	path := r.Postmortem("watchdog-degrade")
	if path == "" {
		t.Fatal("postmortem with a dump directory set must write a file")
	}
	reason, text, ok := r.LastPostmortem()
	if !ok || reason != "watchdog-degrade" {
		t.Fatalf("LastPostmortem = %q %v", reason, ok)
	}
	if !strings.Contains(text, "watchdog-degrade") || !strings.Contains(text, "ring_push") {
		t.Errorf("postmortem text missing content:\n%s", text)
	}
	snap := r.LastSnapshot()
	if snap == nil || len(snap.Queues[0].Events) != postmortemEvents {
		t.Fatalf("postmortem kept %d events, want the last %d", len(snap.Queues[0].Events), postmortemEvents)
	}
	if snap.Queues[0].Events[0].Seq != recorded-postmortemEvents {
		t.Errorf("postmortem tail starts at seq %d, want %d", snap.Queues[0].Events[0].Seq, recorded-postmortemEvents)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := ReadDump(f)
	if err != nil {
		t.Fatalf("dump file does not round-trip: %v", err)
	}
	if back.Reason != "watchdog-degrade" || back.Events() != postmortemEvents {
		t.Errorf("dump file = reason %q events %d", back.Reason, back.Events())
	}
	if r.Postmortems() != 1 || len(r.DumpFiles()) != 1 {
		t.Errorf("postmortem accounting: count=%d files=%v", r.Postmortems(), r.DumpFiles())
	}
	if base := filepath.Base(path); base != "flight-001-watchdog-degrade.odfl" {
		t.Errorf("dump file name = %q", base)
	}
}

func TestChromeTraceWellFormed(t *testing.T) {
	r := NewRecorder(Config{Size: 64})
	q := r.Queue("q0")
	q.Record(EvDMAEmit, 1, 16, 0)
	q.Record(EvReadHW, 1, PackName("rss"), 0)
	q.Record(EvDeliver, 1, 500, 1500)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON: %s", buf.Bytes())
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	// thread_name metadata + 2 instants + 1 span
	if len(tr.TraceEvents) != 4 {
		t.Fatalf("got %d trace events, want 4:\n%s", len(tr.TraceEvents), buf.Bytes())
	}
	var sawSpan, sawName bool
	for _, ev := range tr.TraceEvents {
		switch ev["ph"] {
		case "X":
			sawSpan = true
			if ev["dur"].(float64) != 1.5 { // 1500 ns = 1.5 µs
				t.Errorf("span dur = %v µs, want 1.5", ev["dur"])
			}
		case "M":
			sawName = true
		}
	}
	if !sawSpan || !sawName {
		t.Errorf("trace missing span (%v) or thread metadata (%v)", sawSpan, sawName)
	}
}

func TestFormatReadable(t *testing.T) {
	r := NewRecorder(Config{Size: 64})
	q := r.Queue("q0")
	q.Record(EvVerdict, 3, 0, 16)
	q.Record(EvQuarantine, 4, 2, 0)
	q.Record(EvShim, 4, PackName("kv_key"), 120)
	out := r.Dump()
	for _, want := range []string{"verdict", "ok", "quarantine", "violation=1", "sem=kv_key", `queue 0 "q0"`} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// Dump renders the full buffer as human-readable text.
func (r *Recorder) Dump() string { return r.Snapshot().Format() }

// Dropped reports events lost to the writer-lap protection (a writer stalled
// mid-record while the ring wrapped past it). Zero in any sane run.
func (q *Queue) Dropped() uint64 {
	if q == nil {
		return 0
	}
	return q.dropped.Load()
}
