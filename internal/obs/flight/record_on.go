//go:build !flight_off

package flight

import "time"

// Compiled reports whether recording is compiled in (false under the
// flight_off build tag).
const Compiled = true

// Now returns the current event timestamp: nanoseconds since the recorder
// epoch (or the configured clock's reading), or 0 when the queue is nil or
// recording is off. Callers that emit several events for one operation
// should read Now once and use RecordT.
func (q *Queue) Now() uint64 {
	if q == nil || !q.rec.enabled.Load() {
		return 0
	}
	if c := q.rec.cfg.Clock; c != nil {
		return c.Now()
	}
	return uint64(time.Since(q.rec.epoch))
}

// Record appends an event stamped with the current time. Nil queues and
// disabled recorders make it a no-op, so call sites need no guards.
func (q *Queue) Record(c Code, seq uint32, a0, a1 uint64) {
	q.RecordT(q.Now(), c, seq, a0, a1)
}

// RecordT appends an event with a caller-supplied timestamp (from Now),
// saving a clock read when one operation emits several events. A zero ts
// means recording was off when the caller sampled the clock; the event is
// skipped to keep the two paths consistent.
func (q *Queue) RecordT(ts uint64, c Code, seq uint32, a0, a1 uint64) {
	if q == nil || ts == 0 || !q.rec.enabled.Load() {
		return
	}
	q.record(ts, c, seq, a0, a1)
}
