// Microbenchmarks for the recording primitives themselves. BenchmarkRecordT
// is one event on an uncontended queue (one lock, one unlock, five stores);
// BenchmarkRecord adds the clock read that BenchmarkNow prices alone. The
// per-event cost times the events a sampled packet records is the budget
// math behind SamplePeriod (DESIGN.md, "The flight recorder").
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
