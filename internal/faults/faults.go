// Package faults is a deterministic, seedable fault-injection layer for the
// simulated NIC. Real devices violate their declared contracts — completion
// records arrive bit-flipped, DMA writes land short, stale records are
// replayed from a previous ring wrap, completions are duplicated or silently
// lost, register writes are NAKed, and firmware wedges outright. The
// injector models each of these classes with an independent per-event
// probability (plus a scheduled hang train with configurable MTBF and burst
// length), drawn from a seeded xorshift generator so every run is exactly
// reproducible. nicsim consults the injector on its DMA/completion and
// control-channel paths; the hardened driver facade must then detect and
// survive whatever the injector emits.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"opendesc/internal/obs"
	"opendesc/internal/obs/flight"
)

// Class enumerates the injected fault classes.
type Class int

const (
	// Corrupt flips 1..BurstBits random bits anywhere in the completion
	// record (a DMA/PCIe payload corruption).
	Corrupt Class = iota
	// Truncate cuts the completion DMA short: only a prefix of the record is
	// written, the tail stays zero (a torn DMA write).
	Truncate
	// Replay delivers a stale completion captured earlier in the run instead
	// of the fresh one (a stale-generation / stale-cacheline read).
	Replay
	// Duplicate publishes the same completion record twice.
	Duplicate
	// Drop accepts the packet but never writes its completion (a lost
	// completion doorbell — the host-visible desync case).
	Drop
	// NAK fails a control-channel register-write burst (ApplyConfig).
	NAK
	// Hang wedges the whole device: RX, TX and control channel all fail
	// until the burst elapses and the host issues a successful reset.
	Hang
)

var classNames = map[Class]string{
	Corrupt: "corrupt", Truncate: "truncate", Replay: "replay",
	Duplicate: "duplicate", Drop: "drop", NAK: "nak", Hang: "hang",
}

func (c Class) String() string { return classNames[c] }

// Classes lists every fault class in display order.
func Classes() []Class {
	return []Class{Corrupt, Truncate, Replay, Duplicate, Drop, NAK, Hang}
}

// Plan is a fault-injection specification. Probabilities are per event
// (completion serialized, register burst written); zero disables the class.
type Plan struct {
	Seed uint64

	CorruptP   float64 // per-completion bit-flip probability
	TruncateP  float64 // per-completion short-DMA probability
	ReplayP    float64 // per-completion stale-replay probability
	DuplicateP float64 // per-completion duplication probability
	DropP      float64 // per-completion loss probability
	NAKP       float64 // per-ApplyConfig register-write NAK probability

	// BurstBits is how many bits a single Corrupt event may flip (1..n,
	// uniform; default 1).
	BurstBits int

	// HangCount device hangs are scheduled, one every HangMTBF device
	// operations; each wedges the device for HangBurst operations, after
	// which the next reset succeeds. Zero HangCount disables hangs.
	HangCount int
	HangMTBF  int
	HangBurst int
}

func (p Plan) withDefaults() Plan {
	if p.BurstBits <= 0 {
		p.BurstBits = 1
	}
	if p.HangCount > 0 {
		if p.HangMTBF <= 0 {
			p.HangMTBF = 4096
		}
		if p.HangBurst <= 0 {
			p.HangBurst = 256
		}
	}
	return p
}

// ParseSpec parses the CLI fault specification, a comma-separated list of
// class=value items, e.g.
//
//	corrupt=1e-3,truncate=1e-4,replay=1e-4,duplicate=1e-4,drop=1e-4,nak=0.5,hang=2@5000,burst=256,bits=2
//
// hang=N@M schedules N hangs with an MTBF of M device operations; burst sets
// the hang length in operations and bits the per-corruption flip burst.
// Unknown keys and out-of-range values are rejected with the 1-based item
// position, so a long machine-generated spec (a shrunk chaos reproducer)
// pinpoints its own bad entry.
func ParseSpec(spec string) (Plan, error) {
	var p Plan
	for pos, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if err := p.parseItem(item); err != nil {
			return Plan{}, fmt.Errorf("faults: spec item %d (%q): %w", pos+1, item, err)
		}
	}
	return p, nil
}

// parseItem folds one key=value spec item into the plan.
func (p *Plan) parseItem(item string) error {
	k, v, ok := strings.Cut(item, "=")
	if !ok {
		return fmt.Errorf("not key=value")
	}
	prob := func() (float64, error) {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f >= 0 && f <= 1) { // the negated form also rejects NaN
			return 0, fmt.Errorf("%s=%q: want a probability in [0,1]", k, v)
		}
		return f, nil
	}
	var err error
	switch k {
	case "corrupt":
		p.CorruptP, err = prob()
	case "truncate":
		p.TruncateP, err = prob()
	case "replay":
		p.ReplayP, err = prob()
	case "duplicate", "dup":
		p.DuplicateP, err = prob()
	case "drop":
		p.DropP, err = prob()
	case "nak":
		p.NAKP, err = prob()
	case "hang":
		n, m, ok := strings.Cut(v, "@")
		if !ok {
			return fmt.Errorf("hang=%q: want count@mtbf", v)
		}
		if p.HangCount, err = strconv.Atoi(n); err == nil {
			p.HangMTBF, err = strconv.Atoi(m)
		}
		if err != nil || p.HangCount < 0 || p.HangMTBF <= 0 {
			return fmt.Errorf("hang=%q: want count@mtbf with mtbf > 0", v)
		}
		return nil
	case "burst":
		if p.HangBurst, err = strconv.Atoi(v); err != nil || p.HangBurst <= 0 {
			return fmt.Errorf("burst=%q: want a positive op count", v)
		}
		return nil
	case "bits":
		if p.BurstBits, err = strconv.Atoi(v); err != nil || p.BurstBits <= 0 {
			return fmt.Errorf("bits=%q: want a positive bit count", v)
		}
		return nil
	default:
		return fmt.Errorf("unknown class %q (have corrupt, truncate, replay, duplicate, drop, nak, hang, burst, bits)", k)
	}
	return err
}

// String renders the plan back into ParseSpec's grammar, so a programmatic
// plan (e.g. a shrunk chaos reproducer) prints as a valid -faults argument.
// Fields at their zero/default value are omitted; ParseSpec(p.String())
// round-trips to an equivalent plan (the seed travels separately, via the
// -seed flag). A no-fault plan renders as the empty spec.
func (p Plan) String() string {
	var parts []string
	add := func(k string, f float64) {
		if f > 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(f, 'g', -1, 64))
		}
	}
	add("corrupt", p.CorruptP)
	add("truncate", p.TruncateP)
	add("replay", p.ReplayP)
	add("duplicate", p.DuplicateP)
	add("drop", p.DropP)
	add("nak", p.NAKP)
	if p.HangCount > 0 {
		mtbf := p.HangMTBF
		if mtbf <= 0 {
			mtbf = 4096 // the withDefaults value, kept explicit in the spec
		}
		parts = append(parts, fmt.Sprintf("hang=%d@%d", p.HangCount, mtbf))
		if p.HangBurst > 0 {
			parts = append(parts, fmt.Sprintf("burst=%d", p.HangBurst))
		}
	}
	if p.BurstBits > 1 {
		parts = append(parts, fmt.Sprintf("bits=%d", p.BurstBits))
	}
	return strings.Join(parts, ",")
}

// replayDepth is how many past completions the injector retains as replay
// candidates (the stale records a misbehaving device might re-deliver).
const replayDepth = 8

// Injector draws fault decisions from a seeded PRNG. The decision methods
// (Tick, Completion, NAKConfig, TryReset) must be called from the device
// datapath goroutine only; the Stats snapshot is safe from any goroutine.
type Injector struct {
	plan Plan
	rng  uint64

	// ops is the device-operation clock; atomic only so a stats scraper can
	// read it while the datapath advances it.
	ops       atomic.Uint64
	hung      bool
	hangLeft  int // operations until the wedge clears enough for a reset
	hangsDone int
	nextHang  uint64

	// history holds copies of recently serialized completions (replay pool).
	history [][]byte
	histPos int

	// forced counts armed one-shot scripted faults per class (ScriptNext):
	// the deterministic injection mode the chaos scheduler and its shrinker
	// drive, where each fault is an explicit schedule event instead of a
	// PRNG draw. Consumed before any probabilistic decision.
	forced [Hang + 1]int

	injected [Hang + 1]obs.Counter
	resetNAK obs.Counter
	resets   obs.Counter

	// fq, when attached, receives an event per injected fault plus hang
	// start/clear markers; a hang recovery also triggers a postmortem
	// snapshot on the owning recorder.
	fq *flight.Queue
}

// AttachFlight wires the injector's flight-recorder events to q (nil
// detaches). nicsim propagates its own queue automatically on InjectFaults.
func (inj *Injector) AttachFlight(q *flight.Queue) { inj.fq = q }

// New builds an injector for a plan. A zero-valued plan injects nothing.
func New(plan Plan) *Injector {
	plan = plan.withDefaults()
	inj := &Injector{plan: plan, rng: plan.Seed}
	if inj.rng == 0 {
		inj.rng = 0x9e3779b97f4a7c15 // xorshift must not start at 0
	}
	if plan.HangCount > 0 {
		inj.nextHang = uint64(plan.HangMTBF)
	}
	return inj
}

// Parse is ParseSpec + New with the given seed.
func Parse(spec string, seed uint64) (*Injector, error) {
	plan, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	plan.Seed = seed
	return New(plan), nil
}

// Plan returns the injector's (defaulted) plan.
func (inj *Injector) Plan() Plan { return inj.plan }

// next is xorshift64*, deterministic from the seed.
func (inj *Injector) next() uint64 {
	x := inj.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	inj.rng = x
	return x * 0x2545F4914F6CDD1D
}

// hit draws a Bernoulli event with probability p.
func (inj *Injector) hit(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(inj.next()>>11)/float64(1<<53) < p
}

// Tick advances the hang clock by one device operation and reports whether
// the device is wedged for this operation. Every device entry point (RX,
// TX, control channel, reset) counts as one operation.
func (inj *Injector) Tick() (hung bool) {
	if inj == nil {
		return false
	}
	ops := inj.ops.Add(1)
	if inj.hung {
		if inj.hangLeft > 0 {
			inj.hangLeft--
		}
		return true
	}
	if inj.plan.HangCount > 0 && inj.hangsDone < inj.plan.HangCount && ops >= inj.nextHang {
		inj.hung = true
		inj.hangLeft = inj.plan.HangBurst
		inj.hangsDone++
		inj.nextHang = ops + uint64(inj.plan.HangMTBF)
		inj.injected[Hang].Inc()
		inj.fq.Record(flight.EvHangStart, uint32(inj.hangsDone), uint64(inj.plan.HangBurst), 0)
		return true
	}
	return false
}

// Hung reports the current wedge state without advancing the clock.
func (inj *Injector) Hung() bool { return inj != nil && inj.hung }

// TryReset models a host-issued device reset: while the hang burst has not
// elapsed the device stays unresponsive and the reset fails; afterwards the
// reset clears the wedge. Resets on a healthy device always succeed.
func (inj *Injector) TryReset() bool {
	if inj == nil {
		return true
	}
	inj.ops.Add(1)
	if inj.hung && inj.hangLeft > 0 {
		inj.resetNAK.Inc()
		return false
	}
	wasHung := inj.hung
	inj.hung = false
	inj.resets.Inc()
	if wasHung {
		// The hang is over: mark it and capture the flight buffer while the
		// wedge window is still in view.
		inj.fq.Record(flight.EvHangClear, uint32(inj.hangsDone), uint64(inj.plan.HangBurst), 0)
		if rec := inj.fq.Recorder(); rec != nil {
			rec.Postmortem("hang-recovery")
		}
	}
	return true
}

// ScriptNext arms one scripted fault of class c: the next applicable event
// (completion for the record classes, register-write burst for NAK) injects
// it deterministically, regardless of the plan's probabilities. Multiple
// arms of the same class queue up. Hang is not a per-event class — use
// ScriptHang. A scripted decision consumes no PRNG draws: the event it fires
// on is skipped entirely, and the probabilistic stream resumes on the next
// event exactly where it left off.
func (inj *Injector) ScriptNext(c Class) {
	if inj == nil || c < Corrupt || c > NAK {
		return
	}
	inj.forced[c]++
}

// ScriptHang wedges the device immediately for burst operations — the
// scheduled-hang primitive of the chaos harness. While a hang is already
// running the burst is extended instead. The wedge clears like a plan hang:
// the burst must elapse (Tick) and a reset must succeed (TryReset).
func (inj *Injector) ScriptHang(burst int) {
	if inj == nil {
		return
	}
	if burst <= 0 {
		burst = 1
	}
	if inj.hung {
		inj.hangLeft += burst
		return
	}
	inj.hung = true
	inj.hangLeft = burst
	inj.injected[Hang].Inc()
	inj.fq.Record(flight.EvHangStart, uint32(inj.hangsDone), uint64(burst), 0)
}

// takeForced consumes one armed scripted fault of class c.
func (inj *Injector) takeForced(c Class) bool {
	if inj.forced[c] > 0 {
		inj.forced[c]--
		return true
	}
	return false
}

// NAKConfig reports whether this control-channel register-write burst is
// NAKed. The burst fails atomically, before any register is written.
func (inj *Injector) NAKConfig() bool {
	if inj == nil {
		return false
	}
	if inj.takeForced(NAK) {
		inj.injected[NAK].Inc()
		return true
	}
	if inj.hit(inj.plan.NAKP) {
		inj.injected[NAK].Inc()
		return true
	}
	return false
}

// Completion passes one freshly serialized completion record through the
// injector. rec is mutated in place for corruption classes; the returned
// slice is what the device should DMA (nil for a dropped completion), and
// extra, when non-nil, is a second record to publish right after (a
// duplicate). The injector snapshots clean records into its replay pool; a
// replayed record is a pool slot, valid until the next call.
func (inj *Injector) Completion(rec []byte) (out, extra []byte) {
	if inj == nil {
		return rec, nil
	}
	switch {
	case inj.takeForced(Drop) || inj.hit(inj.plan.DropP):
		inj.injected[Drop].Inc()
		inj.noteFault(Drop)
		return nil, nil
	case inj.takeForced(Replay) || inj.hit(inj.plan.ReplayP):
		// A scripted replay with an empty history fizzles silently: there is
		// no stale record a device could re-deliver yet.
		if stale := inj.stale(rec); stale != nil {
			inj.injected[Replay].Inc()
			inj.noteFault(Replay)
			return stale, nil
		}
	case inj.takeForced(Duplicate) || inj.hit(inj.plan.DuplicateP):
		inj.injected[Duplicate].Inc()
		inj.noteFault(Duplicate)
		inj.remember(rec)
		return rec, rec
	case inj.takeForced(Truncate) || inj.hit(inj.plan.TruncateP):
		// A torn DMA: keep a strict prefix, zero the tail. Only counted when
		// the mutation is visible (a truncated all-zero tail is a no-op).
		cut := int(inj.next() % uint64(len(rec)))
		changed := false
		for i := cut; i < len(rec); i++ {
			if rec[i] != 0 {
				rec[i] = 0
				changed = true
			}
		}
		if changed {
			inj.injected[Truncate].Inc()
			inj.noteFault(Truncate)
			return rec, nil
		}
	case inj.takeForced(Corrupt) || inj.hit(inj.plan.CorruptP):
		flips := 1
		if inj.plan.BurstBits > 1 {
			flips += int(inj.next() % uint64(inj.plan.BurstBits))
		}
		// Track which bits the burst touches; a bit flipped an even number of
		// times cancels out, and a burst with no net change is not an
		// observable fault (not counted, record stays clean).
		before := append([]byte(nil), rec...)
		for i := 0; i < flips; i++ {
			bit := inj.next() % uint64(len(rec)*8)
			rec[bit/8] ^= 1 << (bit % 8)
		}
		if !bytesEqual(rec, before) {
			inj.injected[Corrupt].Inc()
			inj.noteFault(Corrupt)
			return rec, nil
		}
	}
	inj.remember(rec)
	return rec, nil
}

// noteFault records an injected fault in the flight stream, tagged with the
// device-operation clock so it aligns with the surrounding DMA events.
func (inj *Injector) noteFault(c Class) {
	inj.fq.Record(flight.EvFault, uint32(inj.ops.Load()), uint64(c), 0)
}

// remember snapshots a clean record into the replay pool. Once the pool is
// full the oldest slot's storage is overwritten in place, so the steady
// state copies bytes but allocates nothing.
func (inj *Injector) remember(rec []byte) {
	if len(inj.history) < replayDepth {
		inj.history = append(inj.history, append([]byte(nil), rec...))
		return
	}
	inj.history[inj.histPos] = append(inj.history[inj.histPos][:0], rec...)
	inj.histPos = (inj.histPos + 1) % replayDepth
}

// stale picks a replay candidate that differs from the fresh record (a
// byte-identical replay would be invisible, hence not a fault).
func (inj *Injector) stale(fresh []byte) []byte {
	if len(inj.history) == 0 {
		return nil
	}
	start := int(inj.next() % uint64(len(inj.history)))
	for i := 0; i < len(inj.history); i++ {
		cand := inj.history[(start+i)%len(inj.history)]
		if !bytesEqual(cand, fresh) {
			return cand
		}
	}
	return nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Stats is a snapshot of the injected-fault counters.
type Stats struct {
	// Injected counts effective injections per class (mutations that did not
	// change the record are not counted).
	Injected map[Class]uint64
	// ResetNAKs counts reset attempts refused while the device was wedged;
	// Resets counts resets that took effect.
	ResetNAKs uint64
	Resets    uint64
	// Ops is the device-operation clock.
	Ops uint64
}

// Total sums all injected events.
func (s Stats) Total() uint64 {
	var n uint64
	for _, v := range s.Injected {
		n += v
	}
	return n
}

// String renders "class=n" pairs in display order.
func (s Stats) String() string {
	var parts []string
	for _, c := range Classes() {
		if n := s.Injected[c]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c, n))
		}
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// Stats snapshots the injected counters. Safe to call concurrently with the
// datapath (counters are atomic; the PRNG itself is datapath-owned).
func (inj *Injector) Stats() Stats {
	st := Stats{Injected: make(map[Class]uint64)}
	if inj == nil {
		return st
	}
	for c := Corrupt; c <= Hang; c++ {
		if n := inj.injected[c].Load(); n > 0 {
			st.Injected[c] = n
		}
	}
	st.ResetNAKs = inj.resetNAK.Load()
	st.Resets = inj.resets.Load()
	st.Ops = inj.ops.Load()
	return st
}

// RegisterMetrics exposes the per-class injected counters on an obs
// registry (the device under test should be observable too).
func (inj *Injector) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	for c := Corrupt; c <= Hang; c++ {
		l := append(append([]obs.Label{}, labels...), obs.L("class", c.String()))
		reg.AttachCounter("opendesc_faults_injected_total", "injected faults per class", &inj.injected[c], l...)
	}
	reg.AttachCounter("opendesc_faults_reset_naks_total", "device resets refused while wedged", &inj.resetNAK, labels...)
	reg.AttachCounter("opendesc_faults_resets_total", "device resets that took effect", &inj.resets, labels...)
}
