package chaos

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"opendesc/internal/faults"
	"opendesc/internal/workload"
)

// Op is a scheduler event kind.
type Op uint8

const (
	// OpRx offers the next packet to a lane: a queue's driver, a fleet
	// host, or the tenant plane, which steers it to a core itself.
	OpRx Op = iota
	// OpPoll drains a lane's completions through the delivery handler.
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
	// OpReneg flips tenant Arg's intent to its other phase.
	OpReneg
	// OpLink partitions a fleet host's control link, or heals it if it is
	// partitioned.
	OpLink
	// OpRollout starts a fleet rollout when none is active, or steps the
	// active one.
	OpRollout
	// OpTelemetry sweeps the fleet for telemetry reports.
	OpTelemetry
)

// opSyntax is each op's word in the spec grammar and what follows it: a
// lane ("q<n>"), an argument, both or neither. A fault's argument is its
// class name.
var opSyntax = [...]struct {
	word      string
	lane, arg bool
}{
	OpRx:        {"rx", true, false},
	OpPoll:      {"poll", true, false},
	OpAdvance:   {"advance", false, true},
	OpFault:     {"fault", true, true},
	OpHang:      {"hang", true, true},
	OpMixShift:  {"mixshift", true, true},
	OpReneg:     {"reneg", false, true},
	OpLink:      {"link", true, false},
	OpRollout:   {"rollout", false, false},
	OpTelemetry: {"telemetry", false, false},
}

// cellOps are the event kinds each cell executes.
var cellOps = [...][]Op{
	ModeHarden: {OpRx, OpPoll, OpAdvance, OpFault, OpHang, OpMixShift},
	ModeEvolve: {OpRx, OpPoll, OpAdvance, OpFault, OpHang, OpMixShift},
	ModeTenant: {OpRx, OpPoll, OpAdvance, OpReneg},
	ModeFleet:  {OpRx, OpPoll, OpAdvance, OpLink, OpTelemetry, OpRollout},
}

// Event is one deterministic scheduler step.
type Event struct {
	Op Op
	// Q is the target lane: a driver queue, a plane core or a fleet host.
	// Events that name no lane, and rx in the tenant cell, keep it zero.
	Q   uint8
	Arg uint64 // OpAdvance: ns; OpFault: class; OpHang: burst; OpMixShift: phase; OpReneg: tenant
}

// String renders the event in the reproducer-spec grammar.
func (e Event) String() string {
	if int(e.Op) >= len(opSyntax) {
		return fmt.Sprintf("op%d q%d %d", e.Op, e.Q, e.Arg)
	}
	syn := opSyntax[e.Op]
	s := syn.word
	if syn.lane {
		s += fmt.Sprintf(" q%d", e.Q)
	}
	switch {
	case e.Op == OpFault:
		s += " " + faults.Class(e.Arg).String()
	case syn.arg:
		s += fmt.Sprintf(" %d", e.Arg)
	}
	return s
}

// Schedule is a finite event sequence plus the PRNG seed that (a) generated
// it and (b) seeds the cell's setup on replay.
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

// scriptableClasses are the fault classes OpFault may arm: every queue cell
// runs hardened drivers, so every queue cell takes the full matrix.
var scriptableClasses = []faults.Class{
	faults.Corrupt, faults.Truncate, faults.Replay,
	faults.Duplicate, faults.Drop, faults.NAK,
}

// Generate draws the event schedule for (cfg, seed). Same inputs ⇒ same
// schedule, always: the only entropy source is the splitmix64 stream, every
// draw happens in a fixed order, and no draw depends on run state. Each cell
// draws from its own stream (the seed salted per cell) and its own event
// mix.
func Generate(cfg Config, seed uint64) Schedule {
	cfg = cfg.withDefaults()
	draw, salt := queueEvent, uint64(0)
	switch cfg.Mode {
	case ModeTenant:
		draw, salt = tenantEvent, 0x7e3a9d4b5c216f08
	case ModeFleet:
		draw, salt = fleetEvent, 0x51c3a9b2e7d40f86
	}
	r := &rng{s: seed ^ salt}
	s := Schedule{Seed: seed, Events: make([]Event, 0, cfg.Steps)}
	for range cfg.Steps {
		s.Events = append(s.Events, draw(r, cfg))
	}
	return s
}

// queueEvent draws one queue-cell event.
func queueEvent(r *rng, cfg Config) Event {
	q := uint8(r.intn(cfg.Queues))
	ev := Event{Q: q}
	switch roll := r.intn(100); {
	case roll < 46:
		ev.Op = OpRx
	case roll < 72:
		ev.Op = OpPoll
	case roll < 82:
		ev.Op = OpAdvance
		ev.Q = 0 // advance is global
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
	return ev
}

// validate reports what would make cfg's cell misread s: a field the cell
// does not read, an event it does not run, or a lane or tenant out of range.
// cfg carries its defaults.
func validate(cfg Config, s Schedule) error {
	if cfg.Mode < 0 || int(cfg.Mode) >= len(cellOps) {
		return fmt.Errorf("unknown mode %d", int(cfg.Mode))
	}
	if err := cfg.Check(); err != nil {
		return err
	}
	for i, ev := range s.Events {
		switch {
		case !slices.Contains(cellOps[cfg.Mode], ev.Op):
			return fmt.Errorf("event %d (%s): mode %s runs no such event", i, ev, cfg.Mode)
		case int(ev.Q) >= cfg.Queues:
			return fmt.Errorf("event %d (%s): lane %d out of range (queues=%d)", i, ev, ev.Q, cfg.Queues)
		case ev.Op == OpReneg && ev.Arg >= uint64(cfg.Tenants):
			return fmt.Errorf("event %d (%s): tenant %d out of range (tenants=%d)", i, ev, ev.Arg, cfg.Tenants)
		}
	}
	return nil
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
	if err := validate(cfg.withDefaults(), s); err != nil {
		return cfg, s, fmt.Errorf("chaos: spec: %w", err)
	}
	return cfg, s, nil
}

// parseSpecConfig folds a config line's key=value items into cfg and s. A
// key the cell's setup does not read is an error.
func parseSpecConfig(kvs []string, cfg *Config, s *Schedule) error {
	steps := false
	for _, kv := range kvs {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("config item %q is not key=value", kv)
		}
		atoi := func(n *int) (err error) {
			if *n, err = strconv.Atoi(v); err != nil {
				return fmt.Errorf("%s: %w", k, err)
			}
			return nil
		}
		var err error
		switch k {
		case "nic":
			cfg.NIC = v
		case "mode":
			cfg.Mode, err = ParseMode(v)
		case "queues":
			err = atoi(&cfg.Queues)
		case "ring":
			err = atoi(&cfg.RingEntries)
		case "sems":
			cfg.Semantics = strings.Split(v, ",")
		case "resync":
			cfg.DisableResync = v == "off"
		case "tenants":
			err = atoi(&cfg.Tenants)
		case "steps":
			steps, err = true, atoi(&cfg.Steps)
		case "forged":
			cfg.ForgedTelemetry = v == "on"
		case "mutated":
			cfg.MutatedDescription = v == "on"
		case "seed":
			if s.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
				err = fmt.Errorf("seed: %w", err)
			}
		default:
			return fmt.Errorf("unknown config key %q", k)
		}
		if err != nil {
			return err
		}
	}
	if steps && cfg.Mode != ModeTenant {
		// Only the tenant cell's setup reads the schedule length: it sizes
		// the Zipf trace.
		return fmt.Errorf("mode %s does not read steps", cfg.Mode)
	}
	return nil
}

func parseSpecEvent(fields []string) (Event, error) {
	text := strings.Join(fields, " ")
	for op, syn := range opSyntax {
		if len(fields) == 0 || fields[0] != syn.word {
			continue
		}
		ev, args := Event{Op: Op(op)}, fields[1:]
		if syn.lane {
			if len(args) == 0 || !strings.HasPrefix(args[0], "q") {
				return ev, fmt.Errorf("event %q: missing lane", text)
			}
			n, err := strconv.ParseUint(args[0][1:], 10, 8)
			if err != nil {
				return ev, fmt.Errorf("event lane %q: %w", args[0], err)
			}
			ev.Q, args = uint8(n), args[1:]
		}
		switch {
		case syn.arg && len(args) == 0:
			return ev, fmt.Errorf("event %q: missing argument", text)
		case len(args) > 1 || !syn.arg && len(args) > 0:
			return ev, fmt.Errorf("event %q: trailing %q", text, args[len(args)-1])
		case !syn.arg:
			return ev, nil
		case ev.Op == OpFault:
			for _, c := range faults.Classes() {
				if c.String() == args[0] {
					ev.Arg = uint64(c)
					return ev, nil
				}
			}
			return ev, fmt.Errorf("fault event: unknown class %q", args[0])
		}
		n, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return ev, fmt.Errorf("event argument %q: %w", args[0], err)
		}
		ev.Arg = n
		return ev, nil
	}
	return Event{}, fmt.Errorf("unknown event %q", text)
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
