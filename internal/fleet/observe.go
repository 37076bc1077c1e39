package fleet

// Fleet observability plane (DESIGN.md S26): hosts ship digest-sealed
// telemetry reports over their control links; the controller treats every
// report as untrusted input. A report must survive structural validation,
// the digest check, histogram reconciliation, a monotonic-sequence
// staleness check, and — the only defense a re-sealing forger cannot beat
// — an exact cross-check of its cumulative datapath counters against the
// controller's own Health RPC observation taken in the same sweep step.
// Hosts whose reports diverge are quarantined exactly like lying
// describers. Accepted reports feed the fleet rollup and the evidence
// half of canary bakes.

import (
	"errors"
	"fmt"
	"strconv"

	"opendesc/internal/fleet/telemetry"
	"opendesc/internal/retry"
)

// integrityError marks a telemetry rejection that indicts the host (forged,
// stale, or malformed report) rather than the network. Callers quarantine
// on it; plain transport errors just skip the host for this sweep.
type integrityError struct{ err error }

func (e *integrityError) Error() string { return e.err.Error() }
func (e *integrityError) Unwrap() error { return e.err }

// quarantine removes a member from the healthy set with an operator-visible
// reason and a trace instant on the host's own track.
func (c *Controller) quarantine(m *member, reason string) {
	m.ok, m.reason = false, reason
	c.logf("quarantine %s: %s", m.host.Name, reason)
	c.trace.Instant("quarantine "+m.host.Name, "verdict", m.host.Name, c.clk.Now(),
		map[string]string{"reason": reason})
}

// fetchReport pulls one telemetry report from a member and subjects it to
// the full untrusted-input gauntlet. The Health RPC lands first in the same
// step: under the single-threaded chaos discipline no traffic can run
// between the two calls, so the report's datapath counters must equal the
// RPC observation exactly — any divergence is a forgery, not skew. (Lease
// state and LeaseReverts can legitimately change between the calls — link
// latency advances the clock — so they are not part of the cross-check.)
func (c *Controller) fetchReport(m *member) (*telemetry.Report, error) {
	var h Health
	if err := c.rpc(m, func() error { h = m.host.Health(); return nil }); err != nil {
		return nil, err
	}
	var raw []byte
	err := retry.Policy{
		JitterSeed: c.nextSeed(),
		Sleep:      func(d uint64) { c.clk.Advance(d) },
		OnError:    func(int, error) { c.rpcRetries.Inc() },
	}.Do(func() error {
		return m.link.transfer(telemetryDeadlineNs, func() (int, error) {
			b, terr := m.host.Telemetry()
			if terr != nil {
				return 0, terr
			}
			raw = b
			return len(b), nil
		})
	})
	if err != nil {
		return nil, err
	}
	rep, verr := telemetry.Validate(raw)
	if verr != nil {
		c.telemetryRejects.Inc()
		return nil, &integrityError{verr}
	}
	if rep.Host != m.host.Name {
		c.telemetryRejects.Inc()
		return nil, &integrityError{fmt.Errorf("report claims host %q, link belongs to %q", rep.Host, m.host.Name)}
	}
	if rep.Seq <= m.lastSeq {
		c.telemetryRejects.Inc()
		return nil, &integrityError{fmt.Errorf("stale report seq %d (last accepted %d): replay or rolled-back host", rep.Seq, m.lastSeq)}
	}
	if rep.Counters.Accepted != h.Accepted || rep.Counters.Delivered != h.Delivered ||
		rep.Counters.Garbage != h.Garbage || rep.Counters.OrderViolations != h.OrderViolations {
		c.telemetryRejects.Inc()
		return nil, &integrityError{fmt.Errorf(
			"counters diverge from RPC observations: report accepted=%d delivered=%d garbage=%d order_viol=%d, observed accepted=%d delivered=%d garbage=%d order_viol=%d",
			rep.Counters.Accepted, rep.Counters.Delivered, rep.Counters.Garbage, rep.Counters.OrderViolations,
			h.Accepted, h.Delivered, h.Garbage, h.OrderViolations)}
	}
	return rep, nil
}

// ReportOutcome is one host's verdict from a telemetry sweep.
type ReportOutcome struct {
	Host     string
	Accepted bool
	// Skipped marks an unreachable host: no data, no verdict — it keeps
	// serving and will be swept again. Reason carries the rejection or
	// transport error otherwise.
	Skipped bool
	Reason  string
}

// TelemetrySweep summarizes one fleet-wide collection pass.
type TelemetrySweep struct {
	Outcomes  []ReportOutcome
	Collected int
	Skipped   int
	Rejected  int
}

// CollectTelemetry sweeps every healthy member for a telemetry report,
// absorbing validated+cross-checked reports into the fleet rollup and
// quarantining hosts whose reports fail integrity. Unreachable hosts are
// skipped, not punished — absence of evidence is a network property,
// divergent evidence is a host property.
func (c *Controller) CollectTelemetry() TelemetrySweep {
	var sw TelemetrySweep
	for _, m := range c.members {
		if !m.ok {
			continue
		}
		out := ReportOutcome{Host: m.host.Name}
		rep, err := c.fetchReport(m)
		var ie *integrityError
		switch {
		case err == nil:
			m.lastSeq = rep.Seq
			c.rollup.Absorb(rep)
			c.telemetryReports.Inc()
			out.Accepted = true
			sw.Collected++
		case errors.As(err, &ie):
			out.Reason = ie.err.Error()
			c.quarantine(m, fmt.Sprintf("telemetry: %v", ie.err))
			sw.Rejected++
		default:
			out.Skipped, out.Reason = true, err.Error()
			sw.Skipped++
		}
		sw.Outcomes = append(sw.Outcomes, out)
	}
	c.trace.Instant("telemetry sweep", "telemetry", "telemetry", c.clk.Now(), map[string]string{
		"collected": strconv.Itoa(sw.Collected),
		"skipped":   strconv.Itoa(sw.Skipped),
		"rejected":  strconv.Itoa(sw.Rejected),
	})
	c.logf("telemetry sweep: %d collected, %d skipped, %d rejected; fleet p99 %dns",
		sw.Collected, sw.Skipped, sw.Rejected, c.rollup.FleetP99())
	return sw
}

// Rollup exposes the fleet telemetry aggregates.
func (c *Controller) Rollup() *telemetry.Rollup { return c.rollup }

// Trace exposes the controller's correlated span tree.
func (c *Controller) Trace() *telemetry.Trace { return c.trace }
