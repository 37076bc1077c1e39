// Package retry is the repository's one bounded-retry discipline: a fixed
// attempt budget, exponential backoff with a cap, and optional deterministic
// seeded jitter. Before this package, the same schedule was hand-rolled in three
// places (the evolve switchover apply, the tenant plane apply, and the
// harden watchdog); the fleet control plane (S25) adds a fourth caller, so
// the schedule now lives here once.
//
// Determinism contract: the package never reads the wall clock and never
// sleeps on its own. Delay side effects happen only through the caller's
// Sleep hook, and jitter comes from a splitmix64 stream seeded by the
// caller — same seed, same schedule. This keeps retries legal on the
// repo's hot paths (see the wall-clock lint in internal/chaos) and exactly
// reproducible under the chaos scheduler's virtual time.
package retry

// Attempts is the total call budget of Do, including the first try. It
// matches the legacy hardcoded ×4 ApplyConfig loops this package replaced,
// so adopting the shared policy is not a behavior change (a regression test
// pins this).
const Attempts = 4

const (
	// DefaultBaseDelay/DefaultMaxDelay bound the backoff schedule
	// 1, 2, 4, …, 1024 — the harden watchdog's historical reset schedule,
	// measured in whatever unit the caller's Sleep hook interprets
	// (driver operations for the watchdog, virtual nanoseconds for fleet
	// RPCs).
	DefaultBaseDelay uint64 = 1
	DefaultMaxDelay  uint64 = 1024
)

// Policy describes one bounded-retry schedule. The zero value is the
// repo-wide default: Attempts tries, no delay side effects, no jitter.
type Policy struct {
	// BaseDelay is the backoff after the first failed attempt; each
	// further failure doubles it up to MaxDelay. Defaults are
	// DefaultBaseDelay/DefaultMaxDelay.
	BaseDelay uint64
	MaxDelay  uint64
	// JitterSeed, when non-zero, draws each delay uniformly from
	// [delay/2, delay] out of a splitmix64 stream seeded here. Zero keeps
	// the schedule exact (the legacy loops had no jitter).
	JitterSeed uint64
	// Sleep receives each backoff delay. Nil means delays have no side
	// effect — the op-counted deterministic mode the legacy loops used.
	Sleep func(delay uint64)
	// OnError is invoked after every failed attempt (1-based), matching
	// the legacy loops' per-failure counter increments.
	OnError func(attempt int, err error)
}

func (p Policy) withDefaults() Policy {
	if p.BaseDelay == 0 {
		p.BaseDelay = DefaultBaseDelay
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = p.BaseDelay
	}
	return p
}

// Do calls fn up to Attempts times, backing off between failures, and
// returns nil on the first success or the last error verbatim (no
// wrapping: callers' errors.Is/As chains must keep working exactly as they
// did with the hand-rolled loops).
func (p Policy) Do(fn func() error) error {
	p = p.withDefaults()
	b := p.NewBackoff()
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil {
			return nil
		}
		if p.OnError != nil {
			p.OnError(attempt, err)
		}
		if attempt >= Attempts {
			return err
		}
		d := b.Next()
		if p.Sleep != nil {
			p.Sleep(d)
		}
	}
}

// NewBackoff returns the policy's delay sequence as a stateful generator,
// for callers that own their own attempt loop (the harden watchdog counts
// driver operations between resets rather than calling Do).
func (p Policy) NewBackoff() *Backoff {
	p = p.withDefaults()
	return &Backoff{base: p.BaseDelay, max: p.MaxDelay, rng: p.JitterSeed}
}

// Backoff produces the capped exponential delay sequence base, 2·base,
// 4·base, …, max, max, … — optionally jittered into [d/2, d]. The zero
// value is not ready; use Policy.NewBackoff.
type Backoff struct {
	base, max uint64
	cur       uint64
	rng       uint64 // splitmix64 state; zero = no jitter
}

// Next returns the next delay in the sequence.
func (b *Backoff) Next() uint64 {
	if b.cur == 0 {
		b.cur = b.base
	} else if b.cur < b.max {
		b.cur *= 2
		if b.cur > b.max {
			b.cur = b.max
		}
	}
	d := b.cur
	if b.rng != 0 && d > 1 {
		// Half-jitter: deterministic for a given seed, still spreads a
		// thundering herd of controllers over [d/2, d].
		lo := d / 2
		d = lo + b.next()%(d-lo+1)
	}
	return d
}

// Reset restarts the sequence from the base delay (the jitter stream keeps
// advancing, so restarted schedules do not re-correlate).
func (b *Backoff) Reset() { b.cur = 0 }

// next advances the splitmix64 jitter stream.
func (b *Backoff) next() uint64 {
	b.rng += 0x9e3779b97f4a7c15
	z := b.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
