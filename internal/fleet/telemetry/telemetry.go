// Package telemetry is the fleet observability wire format and rollup
// layer (DESIGN.md S26). Hosts periodically condense their flight-recorder
// ring and per-layout latency histograms into a compact, schema-versioned,
// digest-sealed report; the controller validates every report as untrusted
// input (the same posture as describe documents), cross-checks its counters
// against the controller's own RPC observations, aggregates accepted
// reports into fleet-level rollups, and drives canary bake verdicts from
// the flight evidence — with the offending events cited verbatim in any
// rollback reason.
//
// The report is deliberately lossy in a bounded way: anomaly events
// (oracle violations, ring stalls, rollbacks) are always carried verbatim,
// while routine per-packet traffic is summarized into the existing log2
// histograms. A report therefore has a hard size ceiling regardless of
// traffic volume, and every timestamp in it comes from the host's injected
// (virtual in simulation) clock, so chaos schedules reproduce reports
// byte for byte.
package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"opendesc/internal/obs"
	"opendesc/internal/obs/flight"
)

// SchemaVersion identifies the telemetry report wire format. Consumers
// reject other versions outright — an evolvable interface starts with
// refusing to guess.
const SchemaVersion = "opendesc-telemetry/v1"

const (
	// MaxReportBytes bounds an encoded report before anything is parsed.
	MaxReportBytes = 64 << 10
	// MaxAnomalies bounds the anomaly events carried verbatim; beyond it
	// the report marks itself truncated (the count survives, the tail is
	// dropped oldest-first so the freshest evidence is kept).
	MaxAnomalies = 64
	// MaxSlowest bounds the slowest-delivery exhibit list.
	MaxSlowest = 8
)

// Counters is the host's cumulative datapath counter block, the piece the
// controller can cross-check against its own Health RPC observation: both
// views describe the same events, so any divergence means somebody is
// lying — and the host, not the RPC layer, owns the report.
type Counters struct {
	Accepted        uint64 `json:"accepted"`
	Delivered       uint64 `json:"delivered"`
	Garbage         uint64 `json:"garbage"`
	OrderViolations uint64 `json:"order_violations"`
	LeaseReverts    uint64 `json:"lease_reverts"`
}

// Anomaly is one flight-recorder event carried verbatim in a report:
// timestamp (host virtual clock, ns), stable wire code name, and the raw
// payload words. Kept as a plain struct (not flight.Event) so the wire
// format is self-describing JSON rather than internal enum values.
type Anomaly struct {
	TS   uint64 `json:"ts_ns"`
	Code string `json:"code"`
	Seq  uint32 `json:"seq"`
	Arg0 uint64 `json:"arg0,omitempty"`
	Arg1 uint64 `json:"arg1,omitempty"`
}

// String renders the anomaly the way rollback reasons cite it.
func (a Anomaly) String() string {
	switch a.Code {
	case "garbage":
		return fmt.Sprintf("garbage[seq %d sem %s gen %d @%dns]", a.Seq, flight.UnpackName(a.Arg0), a.Arg1, a.TS)
	case "order_viol":
		return fmt.Sprintf("order_viol[seq %d gen %d @%dns]", a.Seq, a.Arg1, a.TS)
	case "deliver":
		return fmt.Sprintf("deliver[seq %d poll→deliver %dns @%dns]", a.Seq, a.Arg1, a.TS)
	case "ring_full":
		return fmt.Sprintf("ring_full[occ %d @%dns]", a.Arg0, a.TS)
	case "rollback":
		return fmt.Sprintf("rollback[gen %d @%dns]", a.Arg1, a.TS)
	default:
		return fmt.Sprintf("%s[seq %d arg0 %d arg1 %d @%dns]", a.Code, a.Seq, a.Arg0, a.Arg1, a.TS)
	}
}

// Report is one host's periodic telemetry snapshot.
type Report struct {
	Schema string `json:"schema"`
	Host   string `json:"host"`
	NIC    string `json:"nic"` // NIC family (model name)
	// Seq is the host's monotonic report sequence: the controller rejects
	// any report whose Seq does not advance (replay / reordering defense).
	Seq uint64 `json:"seq"`
	// NowNs is the host clock when the report was built.
	NowNs uint64 `json:"now_ns"`
	// Gen/Trial mirror the serving layout at build time.
	Gen      uint64   `json:"gen"`
	Trial    bool     `json:"trial,omitempty"`
	Counters Counters `json:"counters"`
	// Deliver is the serving layout's cumulative poll→deliver service
	// latency histogram (log2 buckets, ns).
	Deliver obs.HistogramSnapshot `json:"deliver_ns"`
	// Anomalies carries anomaly flight events verbatim, oldest first;
	// Truncated counts events dropped to stay under MaxAnomalies.
	Anomalies []Anomaly `json:"anomalies,omitempty"`
	Truncated int       `json:"truncated,omitempty"`
	// Slowest exhibits the worst deliver events by poll→deliver latency —
	// the specific flight events a latency-budget rollback cites.
	Slowest []Anomaly `json:"slowest,omitempty"`
	// Digest seals everything above (sha256 of the canonical encoding with
	// Digest empty). A mismatch means corruption or tampering in transit.
	Digest string `json:"digest"`
}

// digestOf computes the canonical content digest of a report.
func digestOf(r *Report) (string, error) {
	tmp := *r
	tmp.Digest = ""
	b, err := json.Marshal(&tmp)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Encode seals and serializes the report. The size ceiling is enforced at
// the producer too: a host must never build an unshippable report.
func (r *Report) Encode() ([]byte, error) {
	r.Schema = SchemaVersion
	d, err := digestOf(r)
	if err != nil {
		return nil, err
	}
	r.Digest = d
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	if len(b) > MaxReportBytes {
		return nil, fmt.Errorf("telemetry: report is %d bytes, ceiling %d", len(b), MaxReportBytes)
	}
	return b, nil
}

// Validate parses an untrusted report: size ceiling before parsing, schema
// version, digest recomputation, and internal consistency (the histogram
// must reconcile, the anomaly list must respect its own bound). It proves
// integrity and well-formedness only — whether the *content* is honest is
// the controller's counter cross-check.
func Validate(data []byte) (*Report, error) {
	if len(data) > MaxReportBytes {
		return nil, fmt.Errorf("telemetry: report exceeds %d bytes", MaxReportBytes)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("telemetry: malformed report: %v", err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("telemetry: schema %q, want %q", r.Schema, SchemaVersion)
	}
	if r.Host == "" {
		return nil, fmt.Errorf("telemetry: report missing host")
	}
	want, err := digestOf(&r)
	if err != nil {
		return nil, err
	}
	if r.Digest != want {
		return nil, fmt.Errorf("telemetry: digest %.12s… does not match content (%.12s…)", r.Digest, want)
	}
	var n uint64
	for _, b := range r.Deliver.Buckets {
		n += b
	}
	if n != r.Deliver.Count {
		return nil, fmt.Errorf("telemetry: deliver histogram does not reconcile: count %d, buckets sum %d", r.Deliver.Count, n)
	}
	if len(r.Anomalies) > MaxAnomalies {
		return nil, fmt.Errorf("telemetry: %d anomalies exceed the %d ceiling", len(r.Anomalies), MaxAnomalies)
	}
	if len(r.Slowest) > MaxSlowest {
		return nil, fmt.Errorf("telemetry: %d slowest exhibits exceed the %d ceiling", len(r.Slowest), MaxSlowest)
	}
	return &r, nil
}

// anomalyCodes are the flight events a report always carries verbatim:
// the embedded-oracle violations and the control-plane reversions.
var anomalyCodes = map[flight.Code]bool{
	flight.EvGarbage:   true,
	flight.EvOrderViol: true,
	flight.EvRingFull:  true,
	flight.EvRollback:  true,
}

// fromEvent converts a flight event to its wire form.
func fromEvent(ev flight.Event) Anomaly {
	return Anomaly{TS: ev.TS, Code: ev.Code.String(), Seq: ev.Seq, Arg0: ev.Arg0, Arg1: ev.Arg1}
}

// FromFlight extracts a report's event evidence from a flight snapshot:
// every anomaly event with TS > sinceNs (bounded by MaxAnomalies, freshest
// kept, truncation counted) and the MaxSlowest worst deliver events by
// poll→deliver latency in the same window.
func FromFlight(snap *flight.Snapshot, sinceNs uint64) (anomalies, slowest []Anomaly, truncated int) {
	if snap == nil {
		return nil, nil, 0
	}
	var delivers []flight.Event
	for _, q := range snap.Queues {
		for _, ev := range q.Events {
			if ev.TS <= sinceNs {
				continue
			}
			if anomalyCodes[ev.Code] {
				anomalies = append(anomalies, fromEvent(ev))
			} else if ev.Code == flight.EvDeliver {
				delivers = append(delivers, ev)
			}
		}
	}
	sort.SliceStable(anomalies, func(i, j int) bool { return anomalies[i].TS < anomalies[j].TS })
	if n := len(anomalies); n > MaxAnomalies {
		truncated = n - MaxAnomalies
		anomalies = anomalies[n-MaxAnomalies:] // keep the freshest evidence
	}
	// Worst deliveries by poll→deliver latency (Arg1), ties by timestamp
	// then sequence for determinism.
	sort.SliceStable(delivers, func(i, j int) bool {
		if delivers[i].Arg1 != delivers[j].Arg1 {
			return delivers[i].Arg1 > delivers[j].Arg1
		}
		if delivers[i].TS != delivers[j].TS {
			return delivers[i].TS < delivers[j].TS
		}
		return delivers[i].Seq < delivers[j].Seq
	})
	if len(delivers) > MaxSlowest {
		delivers = delivers[:MaxSlowest]
	}
	for _, ev := range delivers {
		slowest = append(slowest, fromEvent(ev))
	}
	return anomalies, slowest, truncated
}
