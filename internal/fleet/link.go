package fleet

import (
	"errors"
	"fmt"

	"opendesc/internal/vclock"
)

// ErrDeadline is what every control RPC surfaces when its link is down,
// flapping, or slower than the caller's deadline. Retry logic matches on
// it with errors.Is.
var ErrDeadline = errors.New("fleet: rpc deadline exceeded")

// Link is the simulated control channel between the controller and one
// host. It charges latency to the shared (virtual) clock, can be
// partitioned or scripted to fail the next N calls, and — like everything
// in the chaos harness — is driven single-threaded: the scheduler
// interleaves operations, it never overlaps them.
type Link struct {
	clk       vclock.Clock
	latencyNs uint64
	perByteNs uint64

	down     bool
	failNext int

	calls    uint64
	timeouts uint64
	bytes    uint64
}

// NewLink builds a link with the given one-way latency on clk.
func NewLink(clk vclock.Clock, latencyNs uint64) *Link {
	if clk == nil {
		clk = vclock.Wall()
	}
	return &Link{clk: clk, latencyNs: latencyNs}
}

// Partition takes the link down until Heal; calls burn their full deadline
// and fail.
func (l *Link) Partition() { l.down = true }

// Heal restores the link.
func (l *Link) Heal() { l.down = false }

// Partitioned reports the link state.
func (l *Link) Partitioned() bool { return l.down }

// call runs one RPC body under a deadline. A failed call costs the caller
// the whole deadline (the realistic worst case — the controller blocked
// waiting); a successful one costs the link latency.
func (l *Link) call(deadlineNs uint64, fn func() error) error {
	return l.transfer(deadlineNs, func() (int, error) { return 0, fn() })
}

// transfer runs one payload-carrying RPC: fn reports how many bytes the
// reply carried, and the link charges base latency plus the per-byte cost.
// A transfer whose total cost exceeds the deadline expires mid-flight —
// the caller burned its whole deadline and got nothing, exactly like a
// partition — so large telemetry reports cannot ride a deadline tuned for
// small control RPCs unless the deadline accounts for the payload.
func (l *Link) transfer(deadlineNs uint64, fn func() (int, error)) error {
	l.calls++
	if l.down || l.failNext > 0 {
		if l.failNext > 0 {
			l.failNext--
		}
		l.timeouts++
		l.clk.Advance(deadlineNs)
		return ErrDeadline
	}
	n, err := fn()
	if err != nil {
		l.clk.Advance(l.latencyNs)
		return err
	}
	cost := l.latencyNs + uint64(n)*l.perByteNs
	if l.perByteNs > 0 && cost > deadlineNs {
		l.timeouts++
		l.clk.Advance(deadlineNs)
		return fmt.Errorf("%w (transfer of %d bytes needs %dns, deadline %dns)", ErrDeadline, n, cost, deadlineNs)
	}
	l.bytes += uint64(n)
	l.clk.Advance(cost)
	return nil
}

// Stats reports (calls, timeouts) for observability and tests.
func (l *Link) Stats() (calls, timeouts uint64) { return l.calls, l.timeouts }

// Bytes reports payload bytes successfully transferred.
func (l *Link) Bytes() uint64 { return l.bytes }
