package main

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// clock is the one time source of the harness: nanoseconds since the
// process-local base, monotonic.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// spanKind names a layer boundary the harness records a span at.
type spanKind uint8

const (
	spanBurst   spanKind = iota // root: one inject-then-drain cycle
	spanRx                      // the burst's Driver.Rx / Plane.Rx calls
	spanPoll                    // a Poll / PollCore sweep
	spanHandler                 // one delivery's handler (the Get reads)
	spanWait                    // open loop: due time → Rx start
	spanQueue                   // open loop: Rx return → Poll pickup
	spanCompile                 // grid: one cold CompileP4
	spanOpen                    // grid: one Open
	spanVerify                  // grid: one six-NIC differential verification pass
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"burst", "opendesc.Rx", "opendesc.Poll", "handler", "wait", "queue",
	"opendesc.CompileP4", "opendesc.Open", "diffverify.VerifyModel x6"}

// span is one recorded interval. parent indexes the tracer's span slice
// (-1 for a root); root is the burst number every span of one
// inject-then-drain cycle shares.
type span struct {
	start  int64
	dur    uint32 // nanoseconds; a span never outlasts a window
	parent int32
	root   uint32
	kind   spanKind
}

// tracer keeps spans in memory; nothing is written until the run ends. It
// stops recording at its capacity instead of growing, so a long window costs
// a bounded amount of memory and never an allocation mid-measurement.
type tracer struct {
	spans   []span
	dropped int
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, 0, capacity)} }

// add records a span and returns its index for use as a parent (-1 when the
// tracer is full).
func (t *tracer) add(kind spanKind, parent int32, root uint32, start, end int64) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{start: start, dur: clampNs(end - start), parent: parent, root: root, kind: kind})
	return int32(len(t.spans) - 1)
}

// close sets the end of an already-recorded span (a parent is added before
// its children so they can point at it, and closed after them).
func (t *tracer) close(i int32, end int64) {
	if i >= 0 {
		t.spans[i].dur = clampNs(end - t.spans[i].start)
	}
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover. Children of one parent never overlap here (one goroutine), so
// the covered part is the sum of their durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = int64(s.dur)
	}
	for _, s := range spans {
		if s.parent >= 0 {
			self[s.parent] -= int64(s.dur)
		}
	}
	return self
}

// burstSpans is what the spans of one burst add up to: the self time of its
// Poll spans, and the durations and the count of its handler spans.
type burstSpans struct{ pollSelfNs, handlerNs, handlers int64 }

// spansByBurst sums spans per burst, in the order the bursts ran (the spans
// of one burst are recorded together).
func spansByBurst(spans []span) []burstSpans {
	self := selfTimes(spans)
	var out []burstSpans
	for i, s := range spans {
		if i == 0 || s.root != spans[i-1].root {
			out = append(out, burstSpans{})
		}
		b := &out[len(out)-1]
		switch s.kind {
		case spanPoll:
			b.pollSelfNs += self[i]
		case spanHandler:
			b.handlerNs += int64(s.dur)
			b.handlers++
		}
	}
	return out
}

// maxTraceEvents bounds what one workload contributes to the trace file: a
// viewer needs a few thousand bursts to show the shape, not the million spans
// the budget is computed from.
const maxTraceEvents = 20000

// writeChromeTrace renders spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), the format the repo's flight traces use;
// pid separates workloads. first says whether this is the first workload
// written to w.
func writeChromeTrace(w io.Writer, pid int, name string, spans []span, first bool) error {
	bw := bufio.NewWriter(w)
	sep := ""
	if !first {
		sep = ",\n"
	}
	fmt.Fprintf(bw, "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":%q}}", sep, pid, name)
	for i, s := range spans[:min(len(spans), maxTraceEvents)] {
		fmt.Fprintf(bw, ",\n{\"name\":%q,\"ph\":\"X\",\"pid\":%d,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"burst\":%d}}",
			spanNames[s.kind], pid, float64(s.start)/1e3, float64(s.dur)/1e3, i, s.parent, s.root)
	}
	return bw.Flush()
}

// processStart anchors the harness clock.
var processStart = time.Now()
