// Package flight is the hot-path flight recorder (DESIGN.md §22): an
// always-on, lock-free ring of compact binary events that records the life of
// every completion — DMA emit, ring push/pop, validator verdict, accessor
// reads, hardening classifications, switchover phases — and can replay the
// recent past when something goes wrong.
//
// The design borrows from DPDK's rte_trace and the kernel's ftrace ring
// buffer: recording must be wait-free and allocation-free so it can stay
// enabled in production, and the buffer overwrites its oldest events so the
// interesting history (the moments before a watchdog trip) is always there.
//
// Each Queue owns a fixed power-of-two ring of 32-byte events, its storage
// allocated in chunks as writers first reach them. A writer claims a slot
// with a single atomic ticket increment, marks it claimed, stores the four
// payload words, and releases it — five plain atomic stores, no CAS loop, no
// lock. Readers never block writers: a snapshot validates
// each slot's ticket before and after copying the payload and simply skips
// slots that were concurrently rewritten (seqlock-style torn-read
// protection). The one pathological case — a writer preempted mid-record
// while the rest of the system laps the entire ring — is handled by a
// claim-time CAS that drops the lapping event instead of corrupting the
// stalled writer's slot; such drops are counted, never silent.
//
// Build with -tags flight_off to compile recording out entirely: Record,
// RecordT and Now become empty functions and the hot-path tax is zero.
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
	EvDMAEmit  // completion serialized and DMAed; arg0 = record bytes, arg1 = path index
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
// latencies). At ~60-85ns per recorded event, tracing every stage of every
// completion costs several hundred ns/pkt — over the recorder's 5% hot-path
// budget. Sampling the routine traffic keeps a representative slice of
// healthy lifecycles in the ring while anomalies (stalls, violations,
// hardening classifications, watchdog and switchover events) are always
// recorded. A sampled packet costs its queue four clock reads and the poll
// that delivers it one; other packets, and other polls, read no clock.
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

// slot is the in-memory storage for one event: the seqlock state word plus
// the four payload words, all atomics so concurrent snapshot reads are
// race-detector clean. state holds ticket<<1, with bit 0 set while the
// writer is between claim and release.
type slot struct {
	state atomic.Uint64
	ts    atomic.Uint64
	meta  atomic.Uint64 // code(16) | queue(16) | seq(32)
	a0    atomic.Uint64
	a1    atomic.Uint64
}

// Queue is one event ring, conventionally one per device queue or per
// goroutine so the common case is a single writer (multiple writers are safe,
// see the claim protocol above). The zero Queue pointer is valid and records
// nothing, so instrumented layers can keep an always-nil field at zero cost.
type Queue struct {
	rec     *Recorder
	name    string
	id      uint16
	mask    uint64
	wpos    atomic.Uint64 // next ticket - 1; tickets are 1-based
	dropped atomic.Uint64 // events discarded by the lap-protection CAS
	// chunks holds the ring's slots, chunkSlots (10 KB) at a time, each
	// installed by the first writer to reach it: a queue pays for the part of
	// its ring it has touched (a fresh device's smoke burst records a few
	// dozen events; a steady one touches every chunk within its first lap).
	chunks []atomic.Pointer[[chunkSlots]slot]
}

const chunkSlots = 256

// slot returns ring slot i for writing, materialising its chunk: racing
// first writers each build one and the CAS keeps the first.
func (q *Queue) slot(i uint64) *slot {
	p := &q.chunks[i/chunkSlots]
	c := p.Load()
	if c == nil {
		c = new([chunkSlots]slot)
		if !p.CompareAndSwap(nil, c) {
			c = p.Load()
		}
	}
	return &c[i%chunkSlots]
}

// Name returns the queue's registration name.
func (q *Queue) Name() string { return q.name }

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

// record claims a ticket, validates slot ownership, and publishes the event.
// The claim CAS only succeeds while the slot holds a released (even) state
// from an earlier lap; if a stalled writer from a previous lap is still
// mid-record, or a faster writer from a later lap got there first, the event
// is dropped (counted) instead of racing them. The retry loop runs at most
// twice: any state change that defeats the CAS also satisfies a drop
// condition, so recording stays wait-free.
func (q *Queue) record(ts uint64, c Code, seq uint32, a0, a1 uint64) {
	t := q.wpos.Add(1) // 1-based ticket
	s := q.slot((t - 1) & q.mask)
	for {
		cur := s.state.Load()
		if cur&1 != 0 || cur >= t<<1 {
			q.dropped.Add(1)
			return
		}
		if s.state.CompareAndSwap(cur, t<<1|1) {
			break
		}
	}
	s.ts.Store(ts)
	s.meta.Store(uint64(c)<<48 | uint64(q.id)<<32 | uint64(seq))
	s.a0.Store(a0)
	s.a1.Store(a1)
	s.state.Store(t << 1)
}

// snapshot copies out up to max most-recent events (all when max <= 0),
// oldest first, skipping slots that are mid-write, were rewritten while being
// copied, or sit in a chunk no writer has installed yet.
func (q *Queue) snapshot(max int) []Event {
	w := q.wpos.Load()
	lo := uint64(1)
	if n := q.mask + 1; w > n {
		lo = w - n + 1
	}
	if max > 0 && w >= lo && w-lo+1 > uint64(max) {
		lo = w - uint64(max) + 1
	}
	var out []Event
	for t := lo; t <= w; t++ {
		i := (t - 1) & q.mask
		c := q.chunks[i/chunkSlots].Load()
		if c == nil {
			continue
		}
		s := &c[i%chunkSlots]
		want := t << 1
		if s.state.Load() != want {
			continue
		}
		ev := Event{
			TS:   s.ts.Load(),
			Arg0: s.a0.Load(),
			Arg1: s.a1.Load(),
		}
		meta := s.meta.Load()
		if s.state.Load() != want { // rewritten under us: discard the torn copy
			continue
		}
		ev.Code = Code(meta >> 48)
		ev.Queue = uint16(meta >> 32)
		ev.Seq = uint32(meta)
		out = append(out, ev)
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
	pmReason   string
	pmText     string
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
		chunks: make([]atomic.Pointer[[chunkSlots]slot], (r.cfg.Size+chunkSlots-1)/chunkSlots),
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

// Epoch returns the wall-clock instant event timestamps are relative to.
func (r *Recorder) Epoch() time.Time { return r.epoch }

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
