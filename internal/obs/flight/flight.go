// Package flight is the hot-path flight recorder (DESIGN.md S22): an
// always-on ring of compact binary events per queue that records the life of
// every completion — DMA emit, ring push/pop, validator verdict, accessor
// reads, hardening classifications, switchover phases — and can replay the
// recent past when something goes wrong.
//
// The design borrows from DPDK's rte_trace and the kernel's ftrace ring
// buffer: recording must be cheap and allocation-free so it can stay enabled
// in production, and the buffer overwrites its oldest events so the
// interesting history (the moments before a watchdog trip) is always there.
//
// Each Queue owns a fixed power-of-two ring of 32-byte events, its storage
// allocated in chunks as writers first reach them, and one mutex. A writer
// takes the lock, bumps the queue's ticket, stores the event into the
// ticket's slot and unlocks: a production queue has one writer goroutine, so
// the lock is uncontended and costs one lock and one unlock. Several writers
// are safe; the lock serialises them. A snapshot takes the lock once per
// chunk of tickets, so a writer waits at most one chunk copy even while a
// full ring is scraped, and skips the slots a writer reused between chunks.
//
// Recorder.SetEnabled(false) is the one off switch: Now then reports zero
// and Record/RecordT return after one atomic load.
package flight

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"opendesc/internal/vclock"
)

// Code identifies an event type. Codes are stable across processes: they are
// written into binary dump files and decoded by `opendesc flight`.
type Code uint16

const (
	EvNone Code = iota

	// Device side (nicsim).
	EvDMAEmit  // completion serialized and DMAed; arg0 = record bytes, arg1 = 1 + the index of the path it took
	EvDMALost  // injector ate the completion record; packet counted, nothing DMAed
	EvHangDrop // packet refused while the device is wedged
	EvDevReset // device reset accepted (function-level reset completed)

	// Descriptor ring. seq = the record's absolute slot index: the packet's
	// 1-based seq minus one, on a queue that has lost nothing.
	EvRingPush  // record published; arg0 = occupancy after
	EvRingFull  // producer stalled: ring full; arg0 = occupancy (= capacity)
	EvRingPop   // record consumed; arg0 = occupancy after
	EvRingEmpty // consumer found the ring empty with work pending
	EvRingWrap  // tail wrapped to slot 0; arg0 = completed laps

	// Validation (codegen.Validator, recorded by the receive queue).
	EvVerdict // seq = packet seq; arg0 = 0 for conforming, violation kind+1 otherwise; arg1 = record bytes

	// Metadata reads.
	EvReadHW   // synthesized hardware accessor; arg0 = packed semantic name
	EvReadSoft // SoftNIC shim fallback read; arg0 = packed semantic name
	EvShim     // instrumented softnic shim call; arg0 = packed name, arg1 = ns

	// Hardened-driver classifications (harden.go).
	EvQuarantine   // validator rejected a record; arg0 = violation kind+1
	EvStale        // pre-reset completion dropped after recovery
	EvResync       // pending entry skipped to re-align with the device
	EvSpurious     // completion with no pending packet drained
	EvDegrade      // watchdog tripped: entering SoftNIC degraded mode; arg0 = fault streak
	EvResetAttempt // recovery tick issued a device reset; seq = attempt, arg0 = backoff ticks
	EvRestore      // hardware mode restored; arg0 = reset attempts it took

	// Delivery (driver poll).
	EvDeliver // packet handed to the handler; arg0 = DMA→poll ns, arg1 = DMA→deliver ns

	// Switchover phases (evolve.Engine). arg1 = target generation.
	EvQuiesce  // switchover begun: Rx parked
	EvDrain    // in-flight completions drained; arg0 = drained count
	EvApply    // new descriptor layout applied to the device; arg0 = attempt
	EvVerify   // post-apply probe verified the active path
	EvSwap     // runtime swapped: new generation live
	EvRollback // switchover failed: previous generation restored

	// Fault injection (faults.Injector).
	EvFault     // a fault was injected; arg0 = faults.Class
	EvHangStart // scheduled device hang began; arg0 = planned burst
	EvHangClear // device reset cleared a hang; arg0 = packets refused while wedged

	// Fleet datapath oracles and telemetry (fleet.Host). These are the
	// anomaly events a telemetry report always carries verbatim; the
	// controller cites them in evidence-bake rollback reasons.
	EvGarbage   // golden-metadata oracle violation; arg0 = packed semantic name, arg1 = generation
	EvOrderViol // exactly-once/FIFO violation; arg1 = generation
	EvTelemetry // telemetry report built; seq = report sequence, arg0 = report bytes

	numCodes
)

var codeNames = [numCodes]string{
	EvNone:         "none",
	EvDMAEmit:      "dma_emit",
	EvDMALost:      "dma_lost",
	EvHangDrop:     "hang_drop",
	EvDevReset:     "dev_reset",
	EvRingPush:     "ring_push",
	EvRingFull:     "ring_full",
	EvRingPop:      "ring_pop",
	EvRingEmpty:    "ring_empty",
	EvRingWrap:     "ring_wrap",
	EvVerdict:      "verdict",
	EvReadHW:       "read_hw",
	EvReadSoft:     "read_soft",
	EvShim:         "shim",
	EvQuarantine:   "quarantine",
	EvStale:        "stale",
	EvResync:       "resync",
	EvSpurious:     "spurious",
	EvDegrade:      "degrade",
	EvResetAttempt: "reset_attempt",
	EvRestore:      "restore",
	EvDeliver:      "deliver",
	EvQuiesce:      "quiesce",
	EvDrain:        "drain",
	EvApply:        "apply",
	EvVerify:       "verify",
	EvSwap:         "swap",
	EvRollback:     "rollback",
	EvFault:        "fault",
	EvHangStart:    "hang_start",
	EvHangClear:    "hang_clear",
	EvGarbage:      "garbage",
	EvOrderViol:    "order_viol",
	EvTelemetry:    "telemetry",
}

// SamplePeriod is the 1-in-N period for routine per-packet events (DMA
// emits, ring push/pop, clean verdicts, accessor reads, shim calls, deliver
// latencies). A recorded event costs what BenchmarkRecordT and
// cmd/benchmark's flight.record_ns measure; tracing all seven-plus events of
// every completion would multiply the recorder's hot-path tax. Sampling
// the routine traffic keeps a representative slice of healthy lifecycles in
// the ring while anomalies (stalls, violations, hardening classifications,
// watchdog and switchover events) are always recorded. A sampled packet
// costs its queue four clock reads and the poll that delivers it one; other
// packets, and other polls, read no clock. Even so the tax is no 5%: on
// cmd/benchmark's hw_fastpath (2-vCPU VM, 3 s windows, six pairs each) a
// recorder disabled at runtime takes 19% off the host time per packet.
const SamplePeriod = 16

// Sampled reports whether a routine event with 1-based ordinal seq falls on
// the sampling grid. Device and receive queue count accepted packets in
// lockstep, the ring samples the record whose 1-based count is on the grid,
// and everything after Rx rides on the queue's Rx stamp; so on a queue that
// has lost nothing a sampled packet carries its whole lifecycle — emit, push,
// pop, verdict, reads, deliver — and an unsampled one no routine event.
func Sampled(seq uint32) bool { return seq&(SamplePeriod-1) == 0 }

// String returns the stable wire name of the code.
func (c Code) String() string {
	if int(c) < len(codeNames) && codeNames[c] != "" {
		return codeNames[c]
	}
	return fmt.Sprintf("code_%d", uint16(c))
}

// nameArgs maps codes whose arg0 is a packed semantic name (PackName) so the
// human-readable formatter can unpack them.
func (c Code) nameArg() bool {
	return c == EvReadHW || c == EvReadSoft || c == EvShim
}

// PackName packs the first 8 bytes of a semantic name into a u64 so reads can
// be recorded without allocating. UnpackName reverses it for display.
func PackName(s string) uint64 {
	var v uint64
	for i := 0; i < len(s) && i < 8; i++ {
		v |= uint64(s[i]) << (8 * i)
	}
	return v
}

// UnpackName decodes a PackName value back into its (possibly truncated)
// string form.
func UnpackName(v uint64) string {
	var b []byte
	for i := 0; i < 8; i++ {
		c := byte(v >> (8 * i))
		if c == 0 {
			break
		}
		b = append(b, c)
	}
	return string(b)
}

// Event is one decoded 32-byte flight-recorder entry.
type Event struct {
	TS    uint64 // nanoseconds since the recorder epoch
	Code  Code
	Queue uint16
	Seq   uint32 // per-stream sequence (packet index, ring slot, generation…)
	Arg0  uint64
	Arg1  uint64
}

// slot is the in-memory storage for one event: its ticket plus the four
// payload words, read and written only under the queue's lock.
type slot struct {
	ticket uint64
	ts     uint64
	meta   uint64 // code(16) | queue(16) | seq(32)
	a0, a1 uint64
}

// Queue is one event ring, conventionally one per device queue or per
// goroutine so the common case is a single writer and an uncontended lock.
// The zero Queue pointer is valid and records nothing, so instrumented layers
// can keep an always-nil field at zero cost.
type Queue struct {
	rec  *Recorder
	name string
	id   uint16
	mask uint64

	mu   sync.Mutex
	wpos uint64 // tickets issued; tickets are 1-based
	// chunks holds the ring's slots, chunkSlots (10 KB) at a time, each
	// installed by the first writer to reach it: a queue pays for the part of
	// its ring it has touched (a fresh device's smoke burst records a few
	// dozen events; a steady one touches every chunk within its first lap).
	chunks []*[chunkSlots]slot
}

const chunkSlots = 256

// ID returns the queue's numeric id (assigned at registration, stable within
// a recorder).
func (q *Queue) ID() uint16 { return q.id }

// Recorder returns the owning recorder, or nil for a nil queue.
func (q *Queue) Recorder() *Recorder {
	if q == nil {
		return nil
	}
	return q.rec
}

// record takes the next ticket and stores the event in its slot,
// materialising the slot's chunk on first touch.
func (q *Queue) record(ts uint64, c Code, seq uint32, a0, a1 uint64) {
	q.mu.Lock()
	q.wpos++
	i := (q.wpos - 1) & q.mask
	ch := q.chunks[i/chunkSlots]
	if ch == nil {
		ch = new([chunkSlots]slot)
		q.chunks[i/chunkSlots] = ch
	}
	s := &ch[i%chunkSlots]
	s.ticket, s.ts, s.meta, s.a0, s.a1 = q.wpos, ts, uint64(c)<<48|uint64(q.id)<<32|uint64(seq), a0, a1
	q.mu.Unlock()
}

// snapshot copies out up to max most-recent events (all when max <= 0),
// oldest first. It holds the lock for one chunk of tickets at a time and
// skips the slots writers reused while it was unlocked.
func (q *Queue) snapshot(max int) []Event {
	q.mu.Lock()
	w := q.wpos
	q.mu.Unlock()
	lo := uint64(1)
	if n := q.mask + 1; w > n {
		lo = w - n + 1
	}
	if max > 0 && w >= lo && w-lo+1 > uint64(max) {
		lo = w - uint64(max) + 1
	}
	var out []Event
	for from := lo; from <= w; from += chunkSlots {
		q.mu.Lock()
		for t := from; t <= w && t < from+chunkSlots; t++ {
			i := (t - 1) & q.mask
			s := &q.chunks[i/chunkSlots][i%chunkSlots]
			if s.ticket != t {
				continue
			}
			out = append(out, Event{
				TS:    s.ts,
				Code:  Code(s.meta >> 48),
				Queue: uint16(s.meta >> 32),
				Seq:   uint32(s.meta),
				Arg0:  s.a0,
				Arg1:  s.a1,
			})
		}
		q.mu.Unlock()
	}
	return out
}

// Config sizes a Recorder. The zero value is ready to use.
type Config struct {
	// Size is the per-queue ring capacity in events, rounded up to a power
	// of two. Default 4096 (160 KB per queue once every chunk is touched).
	Size int
	// Clock is what Now and Record read (nil: wall time since the epoch).
	Clock vclock.Clock
}

const (
	defaultSize = 4096
	// postmortemEvents is how many trailing events per queue a postmortem
	// snapshot keeps.
	postmortemEvents = 512
)

// Recorder owns a set of event queues sharing one epoch, plus the postmortem
// machinery. Drivers create one per instance (the buffer is bounded, so an
// always-on recorder per driver costs a fixed few hundred KB).
type Recorder struct {
	epoch   time.Time
	cfg     Config
	enabled atomic.Bool

	mu     sync.Mutex
	queues []*Queue
	byName map[string]*Queue

	pmMu sync.Mutex
	// dumpDir, when set, makes every postmortem also write a binary dump
	// file (decode with `opendesc flight`).
	dumpDir    string
	pmCount    uint64
	pmFiles    []string
	pmLastSnap *Snapshot
}

// NewRecorder builds an enabled recorder. Zero cfg fields take defaults.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Size <= 0 {
		cfg.Size = defaultSize
	}
	cfg.Size = ceilPow2(cfg.Size)
	r := &Recorder{
		epoch:  time.Now(),
		cfg:    cfg,
		byName: map[string]*Queue{},
	}
	r.enabled.Store(true)
	return r
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Queue returns the named event ring, creating it on first use. Safe for
// concurrent callers; the returned queue is stable for the recorder's life.
func (r *Recorder) Queue(name string) *Queue {
	r.mu.Lock()
	defer r.mu.Unlock()
	if q, ok := r.byName[name]; ok {
		return q
	}
	q := &Queue{
		rec:    r,
		name:   name,
		id:     uint16(len(r.queues)),
		mask:   uint64(r.cfg.Size - 1),
		chunks: make([]*[chunkSlots]slot, (r.cfg.Size+chunkSlots-1)/chunkSlots),
	}
	r.queues = append(r.queues, q)
	r.byName[name] = q
	return q
}

// SetEnabled toggles recording at runtime. Disabled recording costs one
// atomic load per call site.
func (r *Recorder) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether recording is on.
func (r *Recorder) Enabled() bool { return r.enabled.Load() }

// SetDumpDir (re)directs postmortem dump files. Empty disables file output.
func (r *Recorder) SetDumpDir(dir string) {
	r.pmMu.Lock()
	r.dumpDir = dir
	r.pmMu.Unlock()
}

// Snapshot copies every queue's full buffer, oldest events first.
func (r *Recorder) Snapshot() *Snapshot { return r.snapshot(0, "") }

func (r *Recorder) snapshot(maxPerQueue int, reason string) *Snapshot {
	r.mu.Lock()
	queues := make([]*Queue, len(r.queues))
	copy(queues, r.queues)
	r.mu.Unlock()
	snap := &Snapshot{Reason: reason, Epoch: r.epoch}
	for _, q := range queues {
		snap.Queues = append(snap.Queues, QueueEvents{
			ID:     q.id,
			Name:   q.name,
			Events: q.snapshot(maxPerQueue),
		})
	}
	return snap
}
