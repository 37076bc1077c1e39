package obs

import (
	"fmt"
	"strings"
	"time"
)

// Trace is a lightweight span collector for a single pipeline run (e.g. one
// OpenDesc compilation: frontend → cfg → paths → select → codegen).
// A Trace is used by one goroutine; spans are recorded in start order.
type Trace struct {
	Name  string
	spans []*Span
	t0    time.Time
}

// Span is one timed, annotated pipeline stage.
type Span struct {
	Stage string
	Start time.Time
	Dur   time.Duration
	notes []spanNote
	done  bool
}

type spanNote struct {
	key string
	val string
}

// traceNow is the trace timestamp source. A package variable (not a Trace
// field) so tests can substitute a deterministic clock and assert exact
// durations instead of sleeping and hoping — the obs package is allowed to
// read the wall clock, but its tests must not depend on real time passing.
var traceNow = time.Now

// NewTrace starts a trace.
func NewTrace(name string) *Trace {
	return &Trace{Name: name, t0: traceNow()}
}

// Start opens a span for a stage. Spans may nest textually but are reported
// flat, in start order.
func (t *Trace) Start(stage string) *Span {
	s := &Span{Stage: stage, Start: traceNow()}
	t.spans = append(t.spans, s)
	return s
}

// Annotate attaches a key=value note to the span (values are stringified
// with %v). Returns the span for chaining.
func (s *Span) Annotate(key string, val any) *Span {
	s.notes = append(s.notes, spanNote{key: key, val: fmt.Sprintf("%v", val)})
	return s
}

// End closes the span. Ending twice is a no-op.
func (s *Span) End() {
	if !s.done {
		s.Dur = traceNow().Sub(s.Start)
		s.done = true
	}
}

// Spans returns the recorded spans in start order.
func (t *Trace) Spans() []*Span { return t.spans }

// Span returns the first span for a stage name, or nil.
func (t *Trace) Span(stage string) *Span {
	for _, s := range t.spans {
		if s.Stage == stage {
			return s
		}
	}
	return nil
}

// fmtDur renders a duration compactly. Sub-microsecond durations keep ns
// precision (they used to collapse to "0µs"), and the µs tier rounds to the
// nearest microsecond so values in [999.5µs, 1ms) promote to "1.000ms"
// instead of truncating to "999µs".
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	default:
		us := (d + 500*time.Nanosecond) / time.Microsecond
		switch {
		case us >= 1_000_000: // 999.9995ms+ rounds into the seconds tier
			return fmt.Sprintf("%.3fs", float64(us)/1e6)
		case us >= 1000:
			return fmt.Sprintf("%.3fms", float64(us)/1000)
		default:
			return fmt.Sprintf("%dµs", us)
		}
	}
}

// Report renders the span table: stage, duration, share of total, notes.
// Spans still open at report time are closed virtually — they display their
// elapsed-so-far duration tagged "(open)" rather than a misleading zero.
func (t *Trace) Report() string {
	now := traceNow()
	durs := make([]time.Duration, len(t.spans))
	var total time.Duration
	for i, s := range t.spans {
		durs[i] = s.Dur
		if !s.done {
			durs[i] = now.Sub(s.Start)
		}
		total += durs[i]
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %s: %d stages, total %s\n", t.Name, len(t.spans), fmtDur(total))
	width := len("stage")
	for _, s := range t.spans {
		if len(s.Stage) > width {
			width = len(s.Stage)
		}
	}
	for i, s := range t.spans {
		share := 0.0
		if total > 0 {
			share = 100 * float64(durs[i]) / float64(total)
		}
		fmt.Fprintf(&sb, "  %-*s  %10s  %5.1f%%", width, s.Stage, fmtDur(durs[i]), share)
		if !s.done {
			sb.WriteString("  (open)")
		}
		for _, n := range s.notes {
			fmt.Fprintf(&sb, "  %s=%s", n.key, n.val)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
