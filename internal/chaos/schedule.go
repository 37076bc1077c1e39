package chaos

import (
	"fmt"
	"strconv"
	"strings"

	"opendesc/internal/faults"
	"opendesc/internal/workload"
)

// Op is a scheduler event kind.
type Op uint8

const (
	// OpRx offers the next trace packet to a queue's driver.
	OpRx Op = iota
	// OpPoll drains a queue's completion ring through the delivery handler.
	OpPoll
	// OpAdvance moves the shared virtual clock forward by Arg nanoseconds.
	OpAdvance
	// OpFault arms a one-shot scripted fault (Arg is the faults.Class) on a
	// queue's injector; it fires on that queue's next matching operation.
	OpFault
	// OpHang wedges a queue's device for Arg operations.
	OpHang
	// OpMixShift switches a queue's application read-mix to phase Arg.
	OpMixShift
)

// Event is one deterministic scheduler step.
type Event struct {
	Op  Op
	Q   uint8  // target queue (ignored by OpAdvance)
	Arg uint64 // OpAdvance: ns; OpFault: class; OpHang: burst; OpMixShift: phase
}

// String renders the event in the reproducer-spec grammar.
func (e Event) String() string {
	switch e.Op {
	case OpRx:
		return fmt.Sprintf("rx q%d", e.Q)
	case OpPoll:
		return fmt.Sprintf("poll q%d", e.Q)
	case OpAdvance:
		return fmt.Sprintf("advance %d", e.Arg)
	case OpFault:
		return fmt.Sprintf("fault q%d %s", e.Q, faults.Class(e.Arg))
	case OpHang:
		return fmt.Sprintf("hang q%d %d", e.Q, e.Arg)
	case OpMixShift:
		return fmt.Sprintf("mixshift q%d %d", e.Q, e.Arg)
	}
	return fmt.Sprintf("op%d q%d %d", e.Op, e.Q, e.Arg)
}

// Schedule is a finite event sequence plus the PRNG seed that (a) generated
// it and (b) seeds the fault injectors on replay.
type Schedule struct {
	Seed   uint64
	Events []Event
}

// rng is splitmix64 — tiny, fast, and stable across Go releases (math/rand's
// stream is not part of its compatibility promise, and a chaos seed corpus
// must replay bit-for-bit forever).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// scriptableClasses are the fault classes OpFault may arm: every mode runs
// hardened drivers, so every mode takes the full matrix.
var scriptableClasses = []faults.Class{
	faults.Corrupt, faults.Truncate, faults.Replay,
	faults.Duplicate, faults.Drop, faults.NAK,
}

// Generate draws the event schedule for (cfg, seed). Same inputs ⇒ same
// schedule, always: the only entropy source is the splitmix64 stream, and
// every draw happens in a fixed order.
func Generate(cfg Config, seed uint64) Schedule {
	cfg = cfg.withDefaults()
	r := &rng{s: seed}
	s := Schedule{Seed: seed, Events: make([]Event, 0, cfg.Steps)}
	for i := 0; i < cfg.Steps; i++ {
		q := uint8(r.intn(cfg.Queues))
		ev := Event{Q: q}
		switch roll := r.intn(100); {
		case roll < 46:
			ev.Op = OpRx
		case roll < 72:
			ev.Op = OpPoll
		case roll < 82:
			ev.Op = OpAdvance
			ev.Q = 0 // advance is global; a zero queue keeps specs round-trippable
			ev.Arg = uint64(1+r.intn(4096)) * 256
		case roll < 92:
			ev.Op = OpFault
			ev.Arg = uint64(scriptableClasses[r.intn(len(scriptableClasses))])
		case roll < 96:
			ev.Op = OpHang
			ev.Arg = uint64(1 + r.intn(24))
		default:
			ev.Op = OpMixShift
			ev.Arg = uint64(r.intn(mixPhases))
		}
		s.Events = append(s.Events, ev)
	}
	return s
}

// FormatSpec renders a self-contained, replayable reproducer: the scenario
// config, the injector seed, and every event, one per line. ParseSpec
// round-trips it.
func FormatSpec(cfg Config, s Schedule, v *Violation) string {
	cfg = cfg.withDefaults()
	var b strings.Builder
	b.WriteString("# opendesc chaos reproducer\n")
	if v != nil {
		fmt.Fprintf(&b, "# oracle %s fired at step %d (q%d): %s\n", v.Oracle, v.Step, v.Queue, v.Detail)
	}
	fmt.Fprintf(&b, "config %s seed=%d\n", cfg, s.Seed)
	for _, ev := range s.Events {
		fmt.Fprintf(&b, "event %s\n", ev)
	}
	return b.String()
}

// ParseSpec parses a reproducer back into a runnable (Config, Schedule).
func ParseSpec(text string) (Config, Schedule, error) {
	var cfg Config
	var s Schedule
	sawConfig := false
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "config":
			if err := parseSpecConfig(fields[1:], &cfg, &s); err != nil {
				return cfg, s, fmt.Errorf("chaos: spec line %d: %w", ln+1, err)
			}
			sawConfig = true
		case "event":
			ev, err := parseSpecEvent(fields[1:])
			if err != nil {
				return cfg, s, fmt.Errorf("chaos: spec line %d: %w", ln+1, err)
			}
			s.Events = append(s.Events, ev)
		default:
			return cfg, s, fmt.Errorf("chaos: spec line %d: unknown directive %q", ln+1, fields[0])
		}
	}
	if !sawConfig {
		return cfg, s, fmt.Errorf("chaos: spec has no config line")
	}
	return cfg, s, nil
}

func parseSpecConfig(kvs []string, cfg *Config, s *Schedule) error {
	for _, kv := range kvs {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("config item %q is not key=value", kv)
		}
		switch k {
		case "nic":
			cfg.NIC = v
		case "mode":
			m, err := ParseMode(v)
			if err != nil {
				return err
			}
			cfg.Mode = m
		case "queues":
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("queues: %w", err)
			}
			cfg.Queues = n
		case "ring":
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("ring: %w", err)
			}
			cfg.RingEntries = n
		case "sems":
			cfg.Semantics = strings.Split(v, ",")
		case "resync":
			cfg.DisableResync = v == "off"
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return fmt.Errorf("seed: %w", err)
			}
			s.Seed = n
		default:
			return fmt.Errorf("unknown config key %q", k)
		}
	}
	return nil
}

func parseSpecEvent(fields []string) (Event, error) {
	var ev Event
	if len(fields) == 0 {
		return ev, fmt.Errorf("empty event")
	}
	parseQ := func(i int) error {
		if i >= len(fields) || !strings.HasPrefix(fields[i], "q") {
			return fmt.Errorf("event %q: missing queue", strings.Join(fields, " "))
		}
		n, err := strconv.Atoi(fields[i][1:])
		if err != nil {
			return fmt.Errorf("event queue %q: %w", fields[i], err)
		}
		ev.Q = uint8(n)
		return nil
	}
	parseArg := func(i int) error {
		if i >= len(fields) {
			return fmt.Errorf("event %q: missing argument", strings.Join(fields, " "))
		}
		n, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return fmt.Errorf("event argument %q: %w", fields[i], err)
		}
		ev.Arg = n
		return nil
	}
	switch fields[0] {
	case "rx":
		ev.Op = OpRx
		return ev, parseQ(1)
	case "poll":
		ev.Op = OpPoll
		return ev, parseQ(1)
	case "advance":
		ev.Op = OpAdvance
		return ev, parseArg(1)
	case "fault":
		ev.Op = OpFault
		if err := parseQ(1); err != nil {
			return ev, err
		}
		if len(fields) < 3 {
			return ev, fmt.Errorf("fault event: missing class")
		}
		for _, c := range faults.Classes() {
			if c.String() == fields[2] {
				ev.Arg = uint64(c)
				return ev, nil
			}
		}
		return ev, fmt.Errorf("fault event: unknown class %q", fields[2])
	case "hang":
		ev.Op = OpHang
		if err := parseQ(1); err != nil {
			return ev, err
		}
		return ev, parseArg(2)
	case "mixshift":
		ev.Op = OpMixShift
		if err := parseQ(1); err != nil {
			return ev, err
		}
		return ev, parseArg(2)
	}
	return ev, fmt.Errorf("unknown event %q", fields[0])
}

// mixPhases is the length of phaseMixes' schedule.
const mixPhases = 3

// phaseMixes derives the read-mix phases from the intent: all fields, first
// field only (the abrupt 100%-flip), and the empty mix.
func phaseMixes(sems []string) workload.MixSchedule {
	return workload.MustMixSchedule(
		workload.Mix(sems),
		workload.Mix(sems[:1]),
		workload.Mix{},
	)
}
