// Package rxpath is the one receive path under every driver in the
// repository: the facade drivers (pinned, hardened, evolving), each core of
// the multi-tenant plane and the fleet host all receive through a Queue.
// What differs between them is what a packet is read under — its Lane — and
// whether the hardening policy (harden.go) is armed on the queue. Every queue
// stamps accepted packets by one rule: on the flight sampling grid, from its
// owner's clock or else the flight recorder's (push) — the one sampling
// decision, which every later event and clock read of a poll rides on. A queue
// takes no lock; its owner serializes it (DESIGN.md, "The receive path").
package rxpath

import (
	"fmt"

	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/nicsim"
	"opendesc/internal/obs"
	"opendesc/internal/obs/flight"
	"opendesc/internal/retry"
	"opendesc/internal/ring"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/vclock"
)

// Lane is what a packet is read under, linked by Queue.Link against the
// queue's device. A pinned driver has one forever, an evolving driver one per
// generation, a tenant plane one per tenant per shard per generation, a fleet
// host one per layout.
type Lane struct {
	RT *codegen.Runtime
	// Reads counts each Meta.Get for an evolving driver's re-solve: one
	// counter per entry of RT's reader table, nil where nothing tracks it;
	// other lanes have none.
	Reads []*obs.Counter
	// Validator and Soft are set on a hardened queue. Elsewhere Soft is built
	// on first use, for a packet a drain found no record for.
	Validator *codegen.Validator
	Soft      *codegen.Runtime
	// Owner is client state riding with the lane (the fleet host's oracle
	// set); the queue never looks at it.
	Owner any
	// burst is, by reader index, the memo of each semantic RT serves in
	// software through its burst form (softnic.Row.Burst); a reader without
	// one has a memo with no form. Nil where no reader has one, and on a
	// queue that counts its shim calls (Instrument).
	burst []memo
}

// Entry is one accepted packet awaiting delivery.
type Entry struct {
	Pkt []byte
	// TS is the Rx stamp: the queue's clock read at Rx when Seq is on the
	// flight sampling grid, zero otherwise. Latency is derived from it.
	TS uint64
	// Seq numbers accepted packets 1-based, like the device's DMA-emit
	// sequence, so queue and device events correlate.
	Seq uint32
	// Tag selects the lane the packet is read under when it is consumed
	// (the tenant index on a plane; zero elsewhere).
	Tag uint32
	// Soft marks a packet served from the lane's software runtime: refused
	// or lost by a faulty device, or accepted in degraded mode.
	Soft bool
}

// parked is an entry a Drain consumed: the record is copied out of the ring
// (nil: served in software) and the lane fixed, so the packet is still read
// under the layout it was DMAed with.
type parked struct {
	Entry
	rec  []byte
	lane *Lane
}

// Delivery is the delivery in progress, as the engine, plane and host see it
// (Of); the facade's handlers read it through Meta.
type Delivery struct {
	*Entry
	// Rec is the completion record, valid until the handler returns; nil
	// when the packet is served in software.
	Rec []byte
	// RT is what the packet is read through: Lane.RT over Rec, or Lane.Soft.
	RT   *codegen.Runtime
	Lane *Lane

	fq *flight.Queue
	// ts, non-zero for stamped packets, makes each Get emit a flight event
	// (hardware load vs shim call) reusing the Poll timestamp.
	ts uint64
	// queue is the receiving device's queue id.
	queue uint16
}

// Meta reads per-packet metadata inside a delivery handler. It is a one-word
// view of the delivery in progress — the queue points it at each packet in
// turn — so, like the completion record it reads, it is only meaningful
// until the handler returns.
type Meta struct{ d *Delivery }

// Of exposes the delivery behind a Meta to the engine, plane and host.
func Of(m Meta) *Delivery { return m.d }

// Get returns the value of a semantic for the current packet: a constant
// -time descriptor read when the selected layout carries it, the SoftNIC
// shim otherwise — through its burst form where the lane links one. ok is
// false for semantics outside the compiled intent.
func (m Meta) Get(sem string) (uint64, bool) {
	d := m.d
	r, i := d.RT.Lookup(semantics.Name(sem))
	if r == nil {
		return 0, false
	}
	if reads := d.Lane.Reads; reads != nil {
		if c := reads[i]; c != nil {
			c.Inc()
		}
	}
	if !r.Linked() {
		return 0, false
	}
	if d.ts != 0 {
		code := flight.EvReadSoft
		if r.Hardware {
			code = flight.EvReadHW
		}
		d.fq.RecordT(d.ts, code, d.Seq, r.Name8, 0)
	}
	if !r.Hardware {
		if b := d.Lane.burst; b != nil && b[i].form != nil {
			return b[i].read(d), true
		}
	}
	return r.Read(d.Rec, d.Pkt), true
}

// memo is one burst form of a lane and its last call: a software read of
// the form's semantic computes the values of the delivery's packet and of the
// pending packets after it under the same tag, up to softnic.BurstMax, and
// keeps them for their reads. Each form has its own memo, so two forms read
// on one delivery do not evict each other. A value is known by sequence
// number and packet (the same slice), so a wrapped sequence number cannot hit.
type memo struct {
	q    *Queue
	form func(frames [][]byte, out []uint64)
	n    int
	seq  [softnic.BurstMax]uint32
	pkt  [softnic.BurstMax][]byte
	val  [softnic.BurstMax]uint64
}

// read serves d's read through the form, from the last call if it covered
// the packet. Pending entries are numbered consecutively, so a packet's
// distance in sequence numbers from the first of a run is its index in it.
// A parked packet is not pending: it is its call's only frame.
func (m *memo) read(d *Delivery) uint64 {
	if k := uint(d.Seq - m.seq[0]); k < uint(m.n) && m.seq[k] == d.Seq && samePacket(m.pkt[k], d.Pkt) {
		return m.val[k]
	}
	m.n = 1
	m.seq[0], m.pkt[0] = d.Seq, d.Pkt
	if pending := m.q.pending; len(pending) > 0 {
		if k := uint(d.Seq - pending[0].Seq); k < uint(len(pending)) && &pending[k] == d.Entry {
			for _, e := range pending[k+1 : min(uint(len(pending)), k+uint(len(m.pkt)))] {
				if e.Tag != d.Tag {
					break
				}
				m.seq[m.n], m.pkt[m.n] = e.Seq, e.Pkt
				m.n++
			}
		}
	}
	m.form(m.pkt[:m.n], m.val[:m.n])
	return m.val[0]
}

// samePacket reports whether a and b are the same slice of one frame.
func samePacket(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Hardware reports whether the semantic is served directly from the
// completion record (vs a software shim).
func (m Meta) Hardware(sem string) bool {
	r := m.d.RT.Reader(semantics.Name(sem))
	return r != nil && r.Hardware
}

// Want is the golden-metadata oracle's expectation for the delivery in
// progress: the value a read of sem must return — softnic.Expect for the
// packet on the receiving device, under the width of the hardware field that
// serves it. ok is false when sem is outside the lane or there is nothing to
// expect (the device clock).
func Want(m Meta, sem string) (uint64, bool) {
	d := m.d
	r := d.RT.Reader(semantics.Name(sem))
	if r == nil {
		return 0, false
	}
	width := 64
	if r.Hardware {
		width = r.WidthBits
	}
	return softnic.Expect(r.Semantic, d.Pkt, d.queue, width)
}

// FIFO is the exactly-once oracle: the packets a harness saw accepted, in
// arrival order. A delivery must be the head — the same slice, not equal
// bytes — so a duplicate, a reordering or a spurious delivery fails Pop.
type FIFO [][]byte

// Push records an accepted packet.
func (f *FIFO) Push(pkt []byte) { *f = append(*f, pkt) }

// Pop consumes the head if pkt is it.
func (f *FIFO) Pop(pkt []byte) bool {
	if len(*f) == 0 || len(pkt) == 0 || &(*f)[0][0] != &pkt[0] {
		return false
	}
	*f = (*f)[1:]
	return true
}

// DeliverFunc receives one delivered packet and its metadata view.
type DeliverFunc func(pkt []byte, m Meta)

// Queue is the receive path of one device queue.
type Queue struct {
	dev *nicsim.Device
	// cfg is what the device was last successfully programmed with: what a
	// failed Reprogram rolls back to and a watchdog restore re-applies.
	cfg     []core.Constraint
	lanes   []*Lane  // by Entry.Tag
	pending []Entry  // accepted, awaiting their completion
	parked  []parked // consumed by a Drain, delivered first by the next Poll
	view    Delivery
	hard    *hardening
	// soft is the reference table of the queue's device (softnic.Table of
	// its queue id), what every lane linked here computes the semantics its
	// layout lacks with; shims is the same table instrumented on an evolving
	// queue (Instrument), nil elsewhere — the all-software runtimes stay on
	// soft.
	soft, shims map[semantics.Name]codegen.SoftFunc

	// fq is the "q0" ring of the queue's always-armed flight recorder, shared
	// with the device so DMA, ring, validator and delivery events interleave
	// on one timeline; nil on a clocked queue, which stamps with clock.
	fq    *flight.Queue
	clock vclock.Clock
	seq   uint32
	// stamped counts the queued entries, pending and parked, with an Rx stamp.
	// now is the poll's (or drain's) timestamp: the flight clock read on entry
	// when stamped is non-zero — the t0 latencies are derived from — else on
	// the first anomaly (eventTS), else never read and zero.
	stamped int
	now     uint64
	// Per-stage latencies derived from matched flight timestamps: DMA-emit →
	// Poll pickup → handler return.
	dmaToPoll     *obs.Histogram
	pollToDeliver *obs.Histogram
}

// New programs dev with cfg and returns its queue. With a nil clock the
// queue owns a flight recorder and stamps accepted packets on its sampling
// grid; with a clock it stamps the same packets on the client's timeline
// (Entry.TS) and records nothing — deriving latency is then the client's.
func New(dev *nicsim.Device, cfg []core.Constraint, clock vclock.Clock) (*Queue, error) {
	if err := Apply(dev, cfg, nil); err != nil {
		return nil, err
	}
	q := &Queue{dev: dev, cfg: cfg, clock: clock, dmaToPoll: obs.NewHistogram(), pollToDeliver: obs.NewHistogram()}
	q.view.queue = dev.Config().QueueID
	q.soft = softnic.Table(q.view.queue)
	if clock == nil {
		q.fq = flight.NewRecorder(flight.Config{}).Queue("q0")
		q.view.fq = q.fq
		dev.AttachFlight(q.fq)
	}
	return q, nil
}

// Dev exposes the simulated device (counters, registers, fault injection).
func (q *Queue) Dev() *nicsim.Device { return q.dev }

// Flight returns the queue's flight recorder (nil on a clocked queue).
func (q *Queue) Flight() *flight.Recorder { return q.fq.Recorder() }

// FlightQueue returns the recorder's "q0" event ring.
func (q *Queue) FlightQueue() *flight.Queue { return q.fq }

// Instrument makes the lanes linked from now on count their shim calls and
// time into st (the measured w(s) an evolving driver re-solves with): one
// scalar shim call per read, with no burst forms.
func (q *Queue) Instrument(st *softnic.ShimStats) { q.shims = st.Instrument(q.soft) }

// Link returns the lane res is read under on this queue: accessors over the
// completion record and, for what the layout lacks, the shims of this
// queue's device — queue_id reads the device's queue — with their burst
// forms. On a hardened queue the lane also gets its validator and
// all-software runtime; synthesizing the validator is what can fail.
func (q *Queue) Link(res *core.Result) (*Lane, error) {
	shims := q.shims
	if shims == nil {
		shims = q.soft
	}
	l := &Lane{RT: codegen.NewRuntime(res, shims)}
	for i, r := range l.RT.Readers {
		if row := softnic.Lookup(r.Semantic); q.shims == nil && !r.Hardware && row != nil && row.Burst() != nil {
			if l.burst == nil {
				l.burst = make([]memo, len(l.RT.Readers))
			}
			l.burst[i] = memo{q: q, form: row.Burst()}
		}
	}
	return l, q.arm(l)
}

// Lane returns the lane packets tagged tag are currently read under.
func (q *Queue) Lane(tag int) *Lane { return q.lanes[tag] }

// SetLane swaps in the lane for tag. Packets still pending are read under
// the new lane, so a layout change drains first; parked packets keep theirs.
func (q *Queue) SetLane(tag int, l *Lane) {
	for len(q.lanes) <= tag {
		q.lanes = append(q.lanes, nil)
	}
	q.lanes[tag] = l
}

// Live reports how many accepted packets await their completion; Pending
// adds the parked ones — everything accepted and not yet delivered.
func (q *Queue) Live() int    { return len(q.pending) }
func (q *Queue) Pending() int { return len(q.pending) + len(q.parked) }

// Rx offers one packet to the device (the simulated wire) and queues it for
// delivery under tag's lane. It returns false when the completion ring is
// full; a hardened queue accepts everything else (harden.go).
func (q *Queue) Rx(pkt []byte, tag uint32) bool {
	if h := q.hard; h != nil {
		return h.rx(q, pkt, tag)
	}
	if !q.dev.RxPacket(pkt) {
		return false
	}
	q.push(pkt, tag, false)
	return true
}

// push queues an accepted packet, stamped if it is on the sampling grid. The
// zero stamp propagates "not sampled" through every event, latency derivation
// and clock read downstream, so 15 of 16 packets pay a single mask test.
func (q *Queue) push(pkt []byte, tag uint32, soft bool) {
	q.seq++
	var ts uint64
	if flight.Sampled(q.seq) {
		if q.clock != nil {
			ts = q.clock.Now()
		} else {
			ts = q.fq.Now()
		}
		if ts != 0 {
			q.stamped++
		}
	}
	q.pending = append(q.pending, Entry{Pkt: pkt, TS: ts, Seq: q.seq, Tag: tag, Soft: soft})
}

// begin opens a poll or drain, reading the clock only if a stamped packet
// is queued to use the reading.
func (q *Queue) begin() {
	q.now = 0
	if q.stamped > 0 {
		q.now = q.fq.Now()
	}
}

// eventTS is the timestamp of an anomaly event: the poll's, read now if the
// poll has not needed it yet.
func (q *Queue) eventTS() uint64 {
	if q.now == 0 {
		q.now = q.fq.Now()
	}
	return q.now
}

// show points the view at entry e, read under l over rec (nil: in software —
// whoever decided that has made sure l.Soft exists), and returns what e's
// routine events are stamped with: the poll's timestamp if e is stamped,
// else 0. It stays small enough to inline into the loops.
func (q *Queue) show(e *Entry, rec []byte, l *Lane) uint64 {
	v := &q.view
	v.Entry, v.Rec, v.Lane, v.RT = e, rec, l, l.RT
	if rec == nil {
		v.RT = l.Soft
	}
	v.ts = 0
	if e.TS != 0 {
		v.ts = q.now
	}
	return v.ts
}

// noteDelivered closes a stamped packet's lifecycle: it derives the per-stage
// latencies from the packet's three instants — e.TS stamped at Rx, q.now
// when the current Poll began, the handler's return — and emits the deliver
// event carrying both intervals, so trace viewers can render DMA→deliver as
// a span. Only stamped packets get here, which keeps the recorder inside its
// hot-path budget; a clocked queue or a recorder turned off has no q.now.
func (q *Queue) noteDelivered(e *Entry) {
	q.stamped--
	if q.now == 0 {
		return
	}
	t0, t1 := q.now, q.fq.Now()
	q.dmaToPoll.Observe(t0 - e.TS)
	q.pollToDeliver.Observe(t1 - t0)
	q.fq.RecordT(t1, flight.EvDeliver, e.Seq, t0-e.TS, t1-e.TS)
}

// Poll delivers up to limit packets (negative: unbounded) to fn in arrival
// order — parked ones first, under the lane they were parked with, then
// every pending packet whose completion is in the ring — and returns how
// many. On a hardened queue it is also the watchdog's tick.
func (q *Queue) Poll(limit int, fn DeliverFunc) int {
	h := q.hard
	if h != nil && h.degraded.Load() {
		h.tickRecovery(q)
	}
	q.begin()
	n := 0
	for n < len(q.parked) && n != limit {
		p := &q.parked[n]
		q.show(&p.Entry, p.rec, p.lane)
		fn(p.Pkt, Meta{&q.view})
		if h != nil && p.rec == nil {
			h.softDelivered.Inc()
		}
		if p.TS != 0 {
			q.noteDelivered(&p.Entry)
		}
		n++
	}
	if n > 0 {
		q.parked = q.parked[:copy(q.parked, q.parked[n:])]
		if limit > 0 {
			limit -= n
		}
	}
	return n + q.consume(limit, fn, false)
}

// Drain consumes every pending packet under its current lane and parks it
// for the next Poll, so nothing in flight crosses a reconfiguration. It is
// the poll loop with "park" as the deliver action: a record is judged as a
// poll would judge it, and a packet the ring holds no record for was lost by
// the device. It returns how many were parked with their record and without.
func (q *Queue) Drain() (drained, soft int) {
	before := len(q.parked)
	q.begin()
	n := q.consume(-1, q.park, true)
	for _, p := range q.parked[before:] {
		if p.rec == nil {
			soft++
		}
	}
	return n - soft, soft
}

func (q *Queue) park(_ []byte, m Meta) {
	p := parked{Entry: *m.d.Entry, lane: m.d.Lane}
	if m.d.Rec != nil {
		p.rec = append([]byte(nil), m.d.Rec...)
	}
	q.parked = append(q.parked, p)
}

// consume is the receive loop: one ring transaction in which pending
// packets meet their completion records in order. With no policy armed and
// nothing draining it is At → deliver → Release; otherwise judge decides
// each step. A stamped packet's pop is recorded at the poll's timestamp and,
// unless draining (a parked packet is delivered by the next Poll), its
// lifecycle closed.
func (q *Queue) consume(limit int, fn DeliverFunc, draining bool) int {
	h := q.hard
	judged := h != nil || draining
	cur := q.dev.CmptRing.Cursor()
	n := 0 // q.pending[:n] is consumed
	for n < len(q.pending) && n != limit {
		p := &q.pending[n]
		l := q.lanes[p.Tag]
		var rec []byte
		if judged {
			var v verdict
			if rec, v = q.judge(&cur, n, l); v == again {
				continue
			} else if v == stuck {
				break
			}
		} else if rec = cur.At(); rec == nil {
			break
		}
		ts := q.show(p, rec, l)
		fn(p.Pkt, Meta{&q.view})
		if rec != nil {
			cur.Release(ts)
		}
		if h != nil {
			h.noteConsumed(p.Pkt, rec == nil && !draining)
		}
		if p.TS != 0 && !draining {
			q.noteDelivered(p)
		}
		n++
	}
	q.pending = q.pending[:copy(q.pending, q.pending[n:])]
	// Records with no queued packet left are spurious (duplicates that
	// outlived their packet); drain and count them.
	for h != nil && len(q.pending) == 0 && cur.Avail() > 0 {
		h.spurious.Inc()
		q.fq.RecordT(q.eventTS(), flight.EvSpurious, 0, h.spurious.Load(), 0)
		cur.Release(0)
	}
	cur.Close()
	return n
}

// verdict is what judge tells the loop to do next.
type verdict int

const (
	deliver verdict = iota // hand the head over, from the returned record or (nil) from software
	again                  // the ring or the queue moved; look at the head again
	stuck                  // the head cannot be consumed (resync disabled)
)

// judge decides what happens to pending packet n, whose lane is l, on a
// hardened or draining queue. The device is synchronous (a completion for
// every accepted packet is DMAed before RxPacket returns), which gives the
// one resync rule: a hardware-pending head with an empty ring lost its
// completion and is served in software.
func (q *Queue) judge(cur *ring.Cursor, n int, l *Lane) ([]byte, verdict) {
	h, p := q.hard, &q.pending[n]
	if p.Soft {
		return nil, deliver
	}
	if cur.Avail() == 0 {
		if h != nil {
			if h.opts.DisableResync {
				// The deliberately re-opened pre-resync bug: nothing
				// re-delivers the packet — it stays pending forever (the
				// liveness violation the chaos oracles must catch).
				return nil, stuck
			}
			h.noteLost(q, p, 0)
		}
		if l.Soft == nil {
			l.Soft = codegen.NewSoftRuntime(l.RT.Result, q.soft)
		}
		return nil, deliver
	}
	rec := cur.At()
	if h == nil {
		return rec, deliver
	}
	// Verdicts: a stamped packet's, and every violation.
	viol := l.Validator.Check(rec, p.Pkt)
	if viol == nil {
		if p.TS != 0 {
			q.fq.RecordT(q.now, flight.EvVerdict, p.Seq, 0, uint64(len(rec)))
		}
		return rec, deliver
	}
	now := q.eventTS()
	q.fq.RecordT(now, flight.EvVerdict, p.Seq, uint64(viol.Kind)+1, uint64(len(rec)))
	h.rejects[viol.Kind].Inc()
	// Classify the rejected record before blaming corruption.
	if h.isStale(l.Validator, rec) {
		// A replayed/duplicated completion of an earlier packet: discard it
		// and retry the head against the next record.
		h.staleDrops.Inc()
		q.fq.RecordT(now, flight.EvStale, p.Seq, uint64(viol.Kind)+1, 0)
		cur.Release(0)
		return nil, again
	}
	if skip := h.resyncMatch(l.Validator, q.pending[n:], rec); skip > 0 {
		// The record belongs to a packet further down the queue: the
		// completions of the packets ahead of it were lost. Those go to
		// software; the record stays for the packet it matches.
		for i := n; i < n+skip; i++ {
			h.noteLost(q, &q.pending[i], uint64(skip))
		}
		return nil, again
	}
	// Unclassifiable: a corrupted record. Quarantine it (never expose its
	// bits) and serve the packet from software.
	h.quarantined.Inc()
	q.fq.RecordT(now, flight.EvQuarantine, p.Seq, uint64(viol.Kind)+1, 0)
	if h.quarantined.Load() == 1 {
		// Postmortem on the first quarantine only: fault-heavy runs can
		// quarantine thousands of records, and one snapshot of the first is
		// what a debugging session needs.
		q.Flight().Postmortem("quarantine")
	}
	cur.Release(0)
	return nil, deliver
}

// Apply programs dev with the shared bounded-retry discipline
// (retry.Attempts): a faulty control channel may NAK a register-write
// burst, and ApplyConfig fails atomically, so retrying is always safe. onNAK,
// when non-nil, sees every failed attempt.
func Apply(dev *nicsim.Device, cfg []core.Constraint, onNAK func(int, error)) error {
	return retry.Policy{OnError: onNAK}.Do(func() error { return dev.ApplyConfig(cfg) })
}

// Reprogram is the switchover transaction on the queue's device: push cfg
// over the control channel, verify the device now resolves wantPath, and on
// any failure re-apply the configuration it had (with the same retries — a
// rollback must survive the very faults that triggered it; re-applying also
// restores the context should a failed apply have half-programmed it). The
// caller has quiesced and drained the queue.
func (q *Queue) Reprogram(cfg []core.Constraint, wantPath int, onNAK func(int, error)) error {
	err := Apply(q.dev, cfg, onNAK)
	if err == nil {
		var ap *core.Path
		if ap, err = q.dev.ActivePath(); err == nil && ap.ID != wantPath {
			err = fmt.Errorf("device resolved path %d, want %d", ap.ID, wantPath)
		}
	}
	if err == nil {
		q.cfg = cfg
		return nil
	}
	if rerr := Apply(q.dev, q.cfg, onNAK); rerr != nil {
		err = fmt.Errorf("%w (rollback reapply also failed: %v)", err, rerr)
	}
	return err
}

// RegisterMetrics exposes the queue on an obs registry: device and ring
// counters, the per-stage latency histograms, the hardening counters when
// armed and the fault injector's when one is attached.
func (q *Queue) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	q.dev.RegisterMetrics(reg, labels...)
	reg.AttachHistogram("opendesc_flight_dma_to_poll_ns", "DMA emit to Poll pickup latency (flight recorder)", q.dmaToPoll, labels...)
	reg.AttachHistogram("opendesc_flight_poll_to_deliver_ns", "Poll pickup to handler return latency (flight recorder)", q.pollToDeliver, labels...)
	if q.hard != nil {
		q.hard.registerMetrics(reg, labels...)
	}
	if inj := q.dev.Faults(); inj != nil {
		inj.RegisterMetrics(reg, labels...)
	}
}
