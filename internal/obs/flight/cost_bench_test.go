// Microbenchmarks for the recording primitives themselves: the per-event
// cost here times the event count per packet is the hot-path budget math
// behind SamplePeriod (DESIGN.md, "The flight recorder"). Run with
// -tags flight_off to see the compiled-out floor.
package flight

import "testing"

func BenchmarkRecord(b *testing.B) {
	q := NewRecorder(Config{}).Queue("q0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Record(EvRingPush, uint32(i), 1, 2)
	}
}

func BenchmarkRecordT(b *testing.B) {
	q := NewRecorder(Config{}).Queue("q0")
	ts := q.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.RecordT(ts, EvRingPush, uint32(i), 1, 2)
	}
}

func BenchmarkNow(b *testing.B) {
	q := NewRecorder(Config{}).Queue("q0")
	var s uint64
	for i := 0; i < b.N; i++ {
		s += q.Now()
	}
	_ = s
}
