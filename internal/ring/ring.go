// Package ring implements the shared-memory descriptor queues over which a
// host and a (simulated) NIC exchange fixed-size records — the "structured
// memory regions shared via DMA" of the paper. A Ring is a single-producer,
// single-consumer circular buffer of fixed-size entries backed by one flat
// byte slice, with head/tail indices mirroring hardware ring semantics
// (including wrap-around and full/empty distinction via index arithmetic).
package ring

import (
	"fmt"
	"sync/atomic"

	"opendesc/internal/obs/flight"
)

// Ring is a SPSC circular queue of fixed-size byte records.
type Ring struct {
	mem       []byte
	entrySize int
	capacity  uint32 // number of entries, power of two
	mask      uint32

	// fq, when attached, receives push/pop/stall/wrap flight-recorder
	// events. Nil by default: an unattached ring records nothing.
	fq *flight.Queue

	// head is the consumer index, tail the producer index; both increase
	// monotonically and are reduced modulo capacity on access. Atomic so a
	// simulated device goroutine and a host goroutine can share the ring.
	head atomic.Uint32
	tail atomic.Uint32

	// Ethtool-style ring counters. Producer-owned and consumer-owned
	// counters sit on separate cache lines (via the pad) so the SPSC halves
	// do not false-share; all are atomic so a stats scraper may read them
	// concurrently with the datapath.
	produced    atomic.Uint64
	fullStalls  atomic.Uint64
	oversized   atomic.Uint64
	highWater   atomic.Uint32 // occupancy high-water mark (entries)
	_           [36]byte
	consumed    atomic.Uint64
	emptyStalls atomic.Uint64
}

// Stats is a snapshot of a ring's counters.
type Stats struct {
	// Produced / Consumed count successfully published / released entries.
	Produced uint64
	Consumed uint64
	// FullStalls counts rejected produce attempts (ring full) and
	// EmptyStalls failed consume attempts (ring empty) — the back-pressure
	// signals a driver would watch.
	FullStalls  uint64
	EmptyStalls uint64
	// Oversized counts Push attempts rejected because the record exceeded
	// the entry size (a malformed completion must not crash the device loop).
	Oversized uint64
	// Occupancy is the instantaneous fill level and HighWater the largest
	// occupancy ever reached.
	Occupancy int
	HighWater int
}

// Stats returns a snapshot of the ring counters. Safe to call concurrently
// with the producer and consumer.
func (r *Ring) Stats() Stats {
	return Stats{
		Produced:    r.produced.Load(),
		Consumed:    r.consumed.Load(),
		FullStalls:  r.fullStalls.Load(),
		EmptyStalls: r.emptyStalls.Load(),
		Oversized:   r.oversized.Load(),
		Occupancy:   r.Len(),
		HighWater:   int(r.highWater.Load()),
	}
}

// Occupancy returns the number of filled entries (alias of Len, named for
// the inspection API).
func (r *Ring) Occupancy() int { return r.Len() }

// noteProduced updates the producer-side counters after a publish at the
// given occupancy. Only the producer calls this, so a load+store suffices
// for the high-water mark.
func (r *Ring) noteProduced(occ uint32) {
	r.produced.Add(1)
	if occ > r.highWater.Load() {
		r.highWater.Store(occ)
	}
}

// New creates a ring with the given entry size and capacity (rounded up to a
// power of two, minimum 2).
func New(entrySize, capacity int) (*Ring, error) {
	if entrySize <= 0 {
		return nil, fmt.Errorf("ring: entry size %d must be positive", entrySize)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("ring: capacity %d must be positive", capacity)
	}
	c := uint32(2)
	for int(c) < capacity {
		c <<= 1
	}
	return &Ring{
		mem:       make([]byte, int(c)*entrySize),
		entrySize: entrySize,
		capacity:  c,
		mask:      c - 1,
	}, nil
}

// MustNew panics on invalid parameters.
func MustNew(entrySize, capacity int) *Ring {
	r, err := New(entrySize, capacity)
	if err != nil {
		panic(err)
	}
	return r
}

// AttachFlight points the ring's flight-recorder events at q. Attach before
// the datapath starts; a nil queue (the default) keeps the ring silent.
func (r *Ring) AttachFlight(q *flight.Queue) { r.fq = q }

// EntrySize returns the record size in bytes.
func (r *Ring) EntrySize() int { return r.entrySize }

// Capacity returns the number of entry slots.
func (r *Ring) Capacity() int { return int(r.capacity) }

// Len returns the number of filled entries.
func (r *Ring) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// Free returns the number of empty slots.
func (r *Ring) Free() int { return int(r.capacity) - r.Len() }

// slot returns the backing bytes of an absolute index.
func (r *Ring) slot(idx uint32) []byte {
	off := int(idx&r.mask) * r.entrySize
	return r.mem[off : off+r.entrySize]
}

// HasRoom reports whether the next Produce would find a free entry. A full
// ring is counted as a stall and recorded as EvRingFull here, so a producer
// that asks first and does no work for a refused record leaves the same trail.
func (r *Ring) HasRoom() bool {
	tail := r.tail.Load()
	if tail-r.head.Load() < r.capacity {
		return true
	}
	r.fullStalls.Add(1)
	r.fq.Record(flight.EvRingFull, tail, uint64(r.capacity), 0)
	return false
}

// Produce reserves the next entry, passes its backing slice to fill (which
// writes the record in place — the DMA write), and publishes it. It returns
// false when the ring is full.
func (r *Ring) Produce(fill func(entry []byte)) bool {
	if !r.HasRoom() {
		return false
	}
	tail, head := r.tail.Load(), r.head.Load()
	fill(r.slot(tail))
	r.tail.Store(tail + 1)
	r.noteProduced(tail + 1 - head)
	if r.fq != nil {
		// Pushes are routine per-completion traffic: sampled, on the record's
		// 1-based count like the packet sequence everywhere else. Wraps are
		// rare (one per lap) and always recorded.
		if flight.Sampled(tail + 1) {
			r.fq.Record(flight.EvRingPush, tail, uint64(tail+1-head), 0)
		}
		if (tail+1)&r.mask == 0 {
			r.fq.Record(flight.EvRingWrap, tail, uint64((tail+1)/r.capacity), 0)
		}
	}
	return true
}

// Push copies rec into the next entry; shorter records are zero-padded. It
// returns false when the ring is full or when rec exceeds the entry size —
// an oversized record is a malformed completion, counted in Stats.Oversized
// and rejected instead of crashing the device loop.
func (r *Ring) Push(rec []byte) bool {
	if len(rec) > r.entrySize {
		r.oversized.Add(1)
		return false
	}
	return r.Produce(func(e []byte) {
		clear(e[copy(e, rec):])
	})
}

// noteEmpty counts a consume attempt on an empty ring. Empty polls are
// routine in a spin-polling driver: the event is sampled on the stall count
// so a busy-wait loop can't evict the flight history that matters.
func (r *Ring) noteEmpty(head uint32) {
	if n := r.emptyStalls.Add(1); flight.Sampled(uint32(n)) {
		r.fq.Record(flight.EvRingEmpty, head, 0, 0)
	}
}

// Consume passes the oldest entry to use and releases it; returns false when
// the ring is empty. The slice passed to use is only valid during the call.
func (r *Ring) Consume(use func(entry []byte)) bool {
	head := r.head.Load()
	tail := r.tail.Load()
	if head == tail {
		r.noteEmpty(head)
		return false
	}
	use(r.slot(head))
	r.head.Store(head + 1)
	r.consumed.Add(1)
	if flight.Sampled(head + 1) {
		r.fq.Record(flight.EvRingPop, head, uint64(tail-head-1), 0)
	}
	return true
}

// Peek returns the oldest entry without releasing it (nil when empty). The
// returned slice stays valid until the entry is consumed or overwritten.
func (r *Ring) Peek() []byte {
	head := r.head.Load()
	if head == r.tail.Load() {
		return nil
	}
	return r.slot(head)
}

// Pop releases the oldest entry after a Peek; it reports whether an entry was
// released.
func (r *Ring) Pop() bool {
	c := r.Cursor()
	if c.At() == nil {
		return false
	}
	c.Release(0)
	c.Close()
	return true
}

// Cursor is one consumer transaction over the ring — a driver's RX burst.
// Ring.Cursor reads head and tail once; At and Release walk the entries
// filled at that moment without touching shared state, and Close publishes
// the new head and the consumed count in one store and one add. The caller
// bounds the burst (it releases no more entries than it has packets for)
// and owns the sampling decision: Release records the EvRingPop a Consume
// would have (arg0 = occupancy after) for the entries it passes a timestamp
// for. Do not Reset the ring or mix in Consume/Pop while a cursor is open.
type Cursor struct {
	r          *Ring
	head, tail uint32
	start      uint32 // head as published when the transaction opened
}

// Cursor opens a consumer transaction over the entries filled right now.
func (r *Ring) Cursor() Cursor {
	head := r.head.Load()
	return Cursor{r: r, head: head, tail: r.tail.Load(), start: head}
}

// Avail returns how many entries of the transaction are not yet released.
func (c *Cursor) Avail() int { return int(c.tail - c.head) }

// At returns the oldest unreleased entry, valid until Close. With none left
// it returns nil and counts an empty stall, like a failed Consume; a caller
// that must not count one checks Avail first.
func (c *Cursor) At() []byte {
	if c.head == c.tail {
		c.r.noteEmpty(c.head)
		return nil
	}
	return c.r.slot(c.head)
}

// Release marks the entry At returned as consumed, recording its pop at ts
// (0: the entry's packet is off the sampling grid, no event).
func (c *Cursor) Release(ts uint64) {
	if ts != 0 {
		c.r.fq.RecordT(ts, flight.EvRingPop, c.head, uint64(c.tail-c.head-1), 0)
	}
	c.head++
}

// Close publishes the released entries to the producer and ends the
// transaction.
func (c *Cursor) Close() {
	if n := c.head - c.start; n > 0 {
		c.r.head.Store(c.head)
		c.r.consumed.Add(uint64(n))
	}
}

// Reset empties the ring. Counters are monotonic (ethtool semantics) and
// survive a reset; only the occupancy drops to zero.
func (r *Ring) Reset() {
	r.head.Store(0)
	r.tail.Store(0)
}
