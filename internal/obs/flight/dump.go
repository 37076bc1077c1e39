package flight

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// QueueEvents is one queue's slice of a snapshot, oldest event first.
type QueueEvents struct {
	ID     uint16
	Name   string
	Events []Event
}

// Snapshot is a consistent copy of a recorder's buffers, suitable for
// formatting, Chrome-trace export, or binary serialization.
type Snapshot struct {
	Reason string // why the snapshot was taken ("" for explicit dumps)
	Epoch  time.Time
	Queues []QueueEvents
}

// Events returns the total event count across queues.
func (s *Snapshot) Events() int {
	n := 0
	for _, q := range s.Queues {
		n += len(q.Events)
	}
	return n
}

// fmtArgs renders an event's payload words with per-code labels so dumps
// read as a narrative rather than raw integers.
func fmtArgs(ev Event) string {
	if ev.Code.nameArg() {
		if ev.Code == EvShim {
			return fmt.Sprintf("sem=%s ns=%d", UnpackName(ev.Arg0), ev.Arg1)
		}
		return "sem=" + UnpackName(ev.Arg0)
	}
	switch ev.Code {
	case EvDMAEmit:
		return fmt.Sprintf("bytes=%d path=%d", ev.Arg0, ev.Arg1)
	case EvRingPush, EvRingPop:
		return fmt.Sprintf("occ=%d", ev.Arg0)
	case EvRingFull:
		return fmt.Sprintf("occ=%d (full)", ev.Arg0)
	case EvRingWrap:
		return fmt.Sprintf("laps=%d", ev.Arg0)
	case EvVerdict, EvQuarantine:
		if ev.Arg0 == 0 {
			return "ok"
		}
		return fmt.Sprintf("violation=%d", ev.Arg0-1)
	case EvDeliver:
		return fmt.Sprintf("dma→poll=%dns dma→deliver=%dns", ev.Arg0, ev.Arg1)
	case EvDegrade:
		return fmt.Sprintf("fault_streak=%d", ev.Arg0)
	case EvResetAttempt:
		return fmt.Sprintf("backoff=%d", ev.Arg0)
	case EvRestore:
		return fmt.Sprintf("after_attempts=%d", ev.Arg0)
	case EvDrain:
		return fmt.Sprintf("drained=%d gen=%d", ev.Arg0, ev.Arg1)
	case EvApply:
		return fmt.Sprintf("attempt=%d gen=%d", ev.Arg0, ev.Arg1)
	case EvQuiesce, EvVerify, EvSwap, EvRollback:
		return fmt.Sprintf("gen=%d", ev.Arg1)
	case EvFault:
		return fmt.Sprintf("class=%d", ev.Arg0)
	case EvHangStart:
		return fmt.Sprintf("burst=%d", ev.Arg0)
	case EvHangClear:
		return fmt.Sprintf("refused=%d", ev.Arg0)
	case EvGarbage:
		return fmt.Sprintf("sem=%s gen=%d", UnpackName(ev.Arg0), ev.Arg1)
	case EvOrderViol:
		return fmt.Sprintf("gen=%d", ev.Arg1)
	case EvTelemetry:
		return fmt.Sprintf("bytes=%d", ev.Arg0)
	default:
		if ev.Arg0 == 0 && ev.Arg1 == 0 {
			return ""
		}
		return fmt.Sprintf("arg0=%d arg1=%d", ev.Arg0, ev.Arg1)
	}
}

// Format renders the snapshot as a human-readable table, one section per
// queue: timestamp (µs since epoch), event name, stream sequence, decoded
// arguments.
func (s *Snapshot) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flight snapshot")
	if s.Reason != "" {
		fmt.Fprintf(&b, " (reason: %s)", s.Reason)
	}
	if !s.Epoch.IsZero() {
		fmt.Fprintf(&b, " epoch=%s", s.Epoch.Format(time.RFC3339Nano))
	}
	fmt.Fprintf(&b, " events=%d\n", s.Events())
	for _, q := range s.Queues {
		fmt.Fprintf(&b, "queue %d %q: %d events\n", q.ID, q.Name, len(q.Events))
		for _, ev := range q.Events {
			fmt.Fprintf(&b, "  %14.3fµs  %-13s seq=%-8d %s\n",
				float64(ev.TS)/1e3, ev.Code.String(), ev.Seq, fmtArgs(ev))
		}
	}
	return b.String()
}

// Binary dump format ("ODFLIGHT"): a fixed header, then one section per
// queue with its raw 32-byte little-endian events. Written by postmortems
// (-flight-dump) and decoded offline by `opendesc flight`.
const (
	dumpMagic   = "ODFLIGHT"
	dumpVersion = 1
)

// WriteTo serializes the snapshot in the binary dump format.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	buf.WriteString(dumpMagic)
	le := binary.LittleEndian
	var u16 [2]byte
	var u32 [4]byte
	var u64 [8]byte
	put16 := func(v uint16) { le.PutUint16(u16[:], v); buf.Write(u16[:]) }
	put32 := func(v uint32) { le.PutUint32(u32[:], v); buf.Write(u32[:]) }
	put64 := func(v uint64) { le.PutUint64(u64[:], v); buf.Write(u64[:]) }
	put16(dumpVersion)
	put64(uint64(s.Epoch.UnixNano()))
	put16(uint16(len(s.Reason)))
	buf.WriteString(s.Reason)
	put16(uint16(len(s.Queues)))
	for _, q := range s.Queues {
		put16(q.ID)
		put16(uint16(len(q.Name)))
		buf.WriteString(q.Name)
		put32(uint32(len(q.Events)))
		for _, ev := range q.Events {
			put64(ev.TS)
			put64(uint64(ev.Code)<<48 | uint64(ev.Queue)<<32 | uint64(ev.Seq))
			put64(ev.Arg0)
			put64(ev.Arg1)
		}
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// ReadDump parses a binary dump produced by WriteTo.
func ReadDump(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(dumpMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("flight: reading dump magic: %w", err)
	}
	if string(magic) != dumpMagic {
		return nil, fmt.Errorf("flight: bad magic %q: not a flight dump", magic)
	}
	var u16 [2]byte
	var u32 [4]byte
	var u64 [8]byte
	le := binary.LittleEndian
	get16 := func() (uint16, error) {
		_, err := io.ReadFull(br, u16[:])
		return le.Uint16(u16[:]), err
	}
	get32 := func() (uint32, error) {
		_, err := io.ReadFull(br, u32[:])
		return le.Uint32(u32[:]), err
	}
	get64 := func() (uint64, error) {
		_, err := io.ReadFull(br, u64[:])
		return le.Uint64(u64[:]), err
	}
	ver, err := get16()
	if err != nil {
		return nil, err
	}
	if ver != dumpVersion {
		return nil, fmt.Errorf("flight: dump version %d, this build reads %d", ver, dumpVersion)
	}
	epochNs, err := get64()
	if err != nil {
		return nil, err
	}
	rlen, err := get16()
	if err != nil {
		return nil, err
	}
	reason := make([]byte, rlen)
	if _, err := io.ReadFull(br, reason); err != nil {
		return nil, err
	}
	nq, err := get16()
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{Reason: string(reason), Epoch: time.Unix(0, int64(epochNs))}
	for i := 0; i < int(nq); i++ {
		var qe QueueEvents
		if qe.ID, err = get16(); err != nil {
			return nil, err
		}
		nlen, err := get16()
		if err != nil {
			return nil, err
		}
		name := make([]byte, nlen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, err
		}
		qe.Name = string(name)
		count, err := get32()
		if err != nil {
			return nil, err
		}
		for j := 0; j < int(count); j++ {
			var ev Event
			if ev.TS, err = get64(); err != nil {
				return nil, fmt.Errorf("flight: truncated dump at queue %d event %d: %w", i, j, err)
			}
			meta, err := get64()
			if err != nil {
				return nil, err
			}
			ev.Code = Code(meta >> 48)
			ev.Queue = uint16(meta >> 32)
			ev.Seq = uint32(meta)
			if ev.Arg0, err = get64(); err != nil {
				return nil, err
			}
			if ev.Arg1, err = get64(); err != nil {
				return nil, err
			}
			qe.Events = append(qe.Events, ev)
		}
		snap.Queues = append(snap.Queues, qe)
	}
	return snap, nil
}

// ChromeEvent is one entry of the Chrome trace_event format (the JSON array
// flavor), loadable in chrome://tracing and Perfetto. Exported so fleet
// trace writers can merge controller spans with host flight events into one
// timeline.
type ChromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// TraceEvents renders the snapshot's queues as Chrome trace_event entries
// under the given process id. Each queue becomes a named thread; EvDeliver
// events (which carry the completion latency in their args) become duration
// spans covering DMA→deliver, and everything else becomes instant events.
// A non-empty process labels the pid with a process_name metadata event
// (used by merged multi-host traces; the single-snapshot export omits it).
func (s *Snapshot) TraceEvents(pid int, process string) []ChromeEvent {
	out := []ChromeEvent{}
	if process != "" {
		out = append(out, ChromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": process},
		})
	}
	qs := append([]QueueEvents(nil), s.Queues...)
	sort.Slice(qs, func(i, j int) bool { return qs[i].ID < qs[j].ID })
	for _, q := range qs {
		out = append(out, ChromeEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: int(q.ID),
			Args: map[string]any{"name": q.Name},
		})
		for _, ev := range q.Events {
			switch {
			case ev.Code == EvDeliver && ev.Arg1 > 0:
				start := uint64(0)
				if ev.Arg1 <= ev.TS {
					start = ev.TS - ev.Arg1
				}
				out = append(out, ChromeEvent{
					Name: "completion", Ph: "X",
					TS:  float64(start) / 1e3,
					Dur: float64(ev.Arg1) / 1e3,
					PID: pid, TID: int(q.ID),
					Args: map[string]any{
						"seq":               ev.Seq,
						"dma_to_poll_ns":    ev.Arg0,
						"dma_to_deliver_ns": ev.Arg1,
					},
				})
			default:
				args := map[string]any{"seq": ev.Seq}
				if ev.Code.nameArg() {
					args["sem"] = UnpackName(ev.Arg0)
					if ev.Code == EvShim {
						args["ns"] = ev.Arg1
					}
				} else if ev.Arg0 != 0 || ev.Arg1 != 0 {
					args["arg0"] = ev.Arg0
					args["arg1"] = ev.Arg1
				}
				out = append(out, ChromeEvent{
					Name: ev.Code.String(), Ph: "i",
					TS: float64(ev.TS) / 1e3, PID: pid, TID: int(q.ID),
					S: "t", Args: args,
				})
			}
		}
	}
	return out
}

// WriteChromeTrace renders the snapshot as Chrome trace_event JSON.
func (s *Snapshot) WriteChromeTrace(w io.Writer) error {
	return WriteTraceEvents(w, s.TraceEvents(1, ""))
}

// WriteTraceEvents encodes pre-built trace entries as one Chrome
// trace_event JSON document.
func WriteTraceEvents(w io.Writer, evs []ChromeEvent) error {
	if evs == nil {
		evs = []ChromeEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{DisplayTimeUnit: "ns", TraceEvents: evs})
}

// NamedSnapshot pairs a snapshot with the host (or process) it came from,
// for merged multi-host trace export.
type NamedSnapshot struct {
	Name string
	Snap *Snapshot
}

// WriteMergedChromeTrace renders N snapshots as one time-aligned Chrome
// trace: one process per snapshot (named), one thread per queue. Event
// timestamps are used raw — hosts recorded on a shared (virtual) timeline
// already align, which is the fleet-simulation case this exists for; wall-
// clock dumps from different processes align only as well as their epochs
// do (each process's epoch is reported in its process_sort_index metadata
// absence — inspect `opendesc flight <dump>` text output for epochs).
func WriteMergedChromeTrace(w io.Writer, snaps []NamedSnapshot) error {
	evs := []ChromeEvent{}
	for i, ns := range snaps {
		evs = append(evs, ns.Snap.TraceEvents(i+1, ns.Name)...)
	}
	return WriteTraceEvents(w, evs)
}

// WriteChromeTrace snapshots the full buffer and renders it as Chrome
// trace_event JSON.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	return r.Snapshot().WriteChromeTrace(w)
}

// Postmortem snapshots the last postmortemEvents events per queue, renders
// them, and — when a dump directory is configured — writes a binary dump
// file. It returns the file path ("" when no file was written). Called by
// the hardened driver on watchdog trips and quarantines, and by the fault
// injector on hang recoveries.
func (r *Recorder) Postmortem(reason string) string {
	snap := r.snapshot(postmortemEvents, reason)
	text := snap.Format()
	r.pmMu.Lock()
	r.pmCount++
	n := r.pmCount
	r.pmReason = reason
	r.pmText = text
	r.pmLastSnap = snap
	dir := r.dumpDir
	r.pmMu.Unlock()
	if dir == "" {
		return ""
	}
	// A missing dump directory must not silently swallow postmortems (the
	// one artifact a crash investigation needs), so create it on demand.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	path := filepath.Join(dir, fmt.Sprintf("flight-%03d-%s.odfl", n, sanitizeReason(reason)))
	f, err := os.Create(path)
	if err != nil {
		return ""
	}
	_, werr := snap.WriteTo(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return ""
	}
	r.pmMu.Lock()
	r.pmFiles = append(r.pmFiles, path)
	r.pmMu.Unlock()
	return path
}

func sanitizeReason(s string) string {
	out := []byte(s)
	for i, c := range out {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '-') {
			out[i] = '-'
		}
	}
	if len(out) == 0 {
		return "snapshot"
	}
	return string(out)
}

// Postmortems returns how many postmortem snapshots have been taken.
func (r *Recorder) Postmortems() uint64 {
	r.pmMu.Lock()
	defer r.pmMu.Unlock()
	return r.pmCount
}

// LastPostmortem returns the most recent postmortem's reason and rendered
// text; ok is false when none has been taken.
func (r *Recorder) LastPostmortem() (reason, text string, ok bool) {
	r.pmMu.Lock()
	defer r.pmMu.Unlock()
	return r.pmReason, r.pmText, r.pmCount > 0
}

// LastSnapshot returns the most recent postmortem snapshot (nil if none).
func (r *Recorder) LastSnapshot() *Snapshot {
	r.pmMu.Lock()
	defer r.pmMu.Unlock()
	return r.pmLastSnap
}

// DumpFiles lists the postmortem dump files written so far.
func (r *Recorder) DumpFiles() []string {
	r.pmMu.Lock()
	defer r.pmMu.Unlock()
	return append([]string(nil), r.pmFiles...)
}

// Handler serves the live buffer: text by default, ?format=trace for Chrome
// trace_event JSON, ?format=bin for the binary dump format, ?n=K to limit to
// the last K events per queue. Mount it on the stats mux as /debug/flight.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		max := 0
		if s := req.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				max = v
			}
		}
		snap := r.snapshot(max, "live")
		switch req.URL.Query().Get("format") {
		case "trace":
			w.Header().Set("Content-Type", "application/json")
			snap.WriteChromeTrace(w)
		case "bin":
			w.Header().Set("Content-Type", "application/octet-stream")
			snap.WriteTo(w)
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, snap.Format())
			fmt.Fprintf(w, "postmortems=%d enabled=%v compiled=%v\n",
				r.Postmortems(), r.Enabled(), Compiled)
		}
	})
}
