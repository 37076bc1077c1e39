package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"opendesc/internal/obs/flight"
)

// SpanSchemaVersion identifies the fleet-trace span file format; `opendesc
// flight` recognises a span file among its inputs by it.
const SpanSchemaVersion = "opendesc-fleettrace/v1"

// Span is one correlated controller-side interval (rollout, per-canary
// trial, bake window) or instant (promote, rollback, quarantine) on the
// shared fleet timeline. StartNs == EndNs renders as an instant.
type Span struct {
	Name    string            `json:"name"`
	Cat     string            `json:"cat,omitempty"` // rollout | trial | bake | verdict | telemetry
	Track   string            `json:"track"`         // timeline row within the controller process
	StartNs uint64            `json:"start_ns"`
	EndNs   uint64            `json:"end_ns"`
	Args    map[string]string `json:"args,omitempty"`
}

// Trace accumulates the controller's span tree. Safe for concurrent use;
// under the chaos discipline it is effectively single-threaded and fully
// deterministic.
type Trace struct {
	mu    sync.Mutex
	spans []Span
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Begin opens a span and returns its handle for End.
func (t *Trace) Begin(name, cat, track string, nowNs uint64, args map[string]string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		Name: name, Cat: cat, Track: track, StartNs: nowNs, EndNs: nowNs, Args: args,
	})
	return len(t.spans) - 1
}

// End closes the span at handle i.
func (t *Trace) End(i int, nowNs uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i >= 0 && i < len(t.spans) && nowNs > t.spans[i].EndNs {
		t.spans[i].EndNs = nowNs
	}
}

// Instant records a zero-duration event.
func (t *Trace) Instant(name, cat, track string, nowNs uint64, args map[string]string) {
	t.Begin(name, cat, track, nowNs, args)
}

// Spans copies the accumulated spans, in creation order.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// spanFile is the on-disk form `opendesc flight` merges with host dumps.
type spanFile struct {
	Schema string `json:"schema"`
	Spans  []Span `json:"spans"`
}

// WriteSpans serializes spans as a schema-versioned JSON document.
func WriteSpans(w io.Writer, spans []Span) error {
	if spans == nil {
		spans = []Span{}
	}
	b, err := json.MarshalIndent(spanFile{Schema: SpanSchemaVersion, Spans: spans}, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadSpans parses a span document written by WriteSpans.
func ReadSpans(r io.Reader) ([]Span, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var f spanFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("malformed span file: %v", err)
	}
	if f.Schema != SpanSchemaVersion {
		return nil, fmt.Errorf("span file schema %q, want %q", f.Schema, SpanSchemaVersion)
	}
	return f.Spans, nil
}

// WriteFleetTrace merges the controller's span tree (process 0, one thread
// per span track) with each host's flight snapshot (process 1..N, one
// thread per queue) into a single Chrome trace_event timeline. All inputs
// must share one clock domain — in simulation they do by construction (one
// virtual clock), which is what makes the merged timeline meaningful.
func WriteFleetTrace(w io.Writer, spans []Span, hosts []flight.NamedSnapshot) error {
	evs := []flight.ChromeEvent{
		{Name: "process_name", Ph: "M", PID: 0, Args: map[string]any{"name": "controller"}},
	}
	trackIDs := map[string]int{}
	trackID := func(track string) int {
		id, ok := trackIDs[track]
		if !ok {
			id = len(trackIDs)
			trackIDs[track] = id
			evs = append(evs, flight.ChromeEvent{
				Name: "thread_name", Ph: "M", PID: 0, TID: id,
				Args: map[string]any{"name": track},
			})
		}
		return id
	}
	for _, sp := range spans {
		args := map[string]any{}
		for k, v := range sp.Args {
			args[k] = v
		}
		if len(args) == 0 {
			args = nil
		}
		tid := trackID(sp.Track)
		if sp.EndNs > sp.StartNs {
			evs = append(evs, flight.ChromeEvent{
				Name: sp.Name, Ph: "X", Dur: float64(sp.EndNs-sp.StartNs) / 1e3,
				TS: float64(sp.StartNs) / 1e3, PID: 0, TID: tid, Args: args,
			})
		} else {
			evs = append(evs, flight.ChromeEvent{
				Name: sp.Name, Ph: "i", TS: float64(sp.StartNs) / 1e3,
				PID: 0, TID: tid, S: "t", Args: args,
			})
		}
	}
	for i, h := range hosts {
		evs = append(evs, h.Snap.TraceEvents(i+1, h.Name)...)
	}
	return flight.WriteTraceEvents(w, evs)
}
