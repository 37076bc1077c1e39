package rxpath

// This file is the hardening policy of a Queue: a completion validator
// synthesized from each lane's compiled layout, a device watchdog with
// bounded exponential backoff, and a SoftNIC degraded mode. The contract it
// defends: every packet accepted by Rx is delivered by Poll exactly once and
// in order, with metadata values equal to the SoftNIC golden reference —
// even while the device corrupts, truncates, replays, duplicates or drops
// completion records, NAKs register writes, or hangs outright. The policy
// is not a loop of its own: Queue.judge asks it for a verdict per record,
// Queue.Rx hands it the device's refusals.

import (
	"sync/atomic"

	"opendesc/internal/codegen"
	"opendesc/internal/obs"
	"opendesc/internal/obs/flight"
	"opendesc/internal/retry"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/vclock"
)

// HardenOptions tunes the hardened datapath enabled by Queue.Harden.
type HardenOptions struct {
	// Deep enables the per-packet deep-conformance validator tier (recompute
	// packet-derived semantics in software and compare). Off by default: the
	// structural tier alone keeps the fast path within the overhead budget.
	Deep bool
	// DegradeThreshold is how many consecutive device faults (refusals that
	// are not ring backpressure) trip SoftNIC degraded mode (default 8).
	DegradeThreshold int
	// MaxResetBackoff caps the exponential reset backoff, measured in driver
	// operations rather than wall time so recovery is deterministic and
	// testable; default 1024.
	MaxResetBackoff int
	// DisableResync turns the lost-completion resynchronization path off: a
	// packet whose record never arrives stays pending forever instead of being
	// re-delivered in software. This deliberately re-opens the pre-resync
	// liveness bug so the chaos harness can prove its oracles catch it; never
	// set it outside a test.
	DisableResync bool
	// Clock is the timeline degraded-mode residency is measured on (nil
	// selects the process wall clock). The watchdog itself stays op-counted —
	// only the residency stamps read the clock.
	Clock vclock.Clock
}

func (o HardenOptions) withDefaults() HardenOptions {
	if o.DegradeThreshold <= 0 {
		o.DegradeThreshold = 8
	}
	if o.MaxResetBackoff <= 0 {
		o.MaxResetBackoff = 1024
	}
	o.Clock = vclock.Or(o.Clock)
	return o
}

// deliveredDepth is the injector's replay depth: how many recently consumed
// packets are retained for stale/duplicate classification, and how many
// queued packets ahead a rejected completion is matched against when
// resynchronizing after a lost one.
const deliveredDepth = 8

// hardening is the per-queue hardening state. The mutable fields are
// datapath-owned; counters and the degraded flag are atomic so Stats and
// RegisterMetrics may be read concurrently.
type hardening struct {
	opts HardenOptions
	// consts is the device state the queue's device pins, which every lane's
	// validator checks structurally.
	consts map[semantics.Name]uint64

	degraded    atomic.Bool
	faultStreak int
	// resetBo schedules reset attempts (1, 2, 4, … operations, capped at
	// MaxResetBackoff); curBackoff is the schedule value behind untilReset,
	// kept for flight-recorder visibility.
	resetBo    *retry.Backoff
	curBackoff uint64
	untilReset int

	// degradedSince stamps (on the injected clock) when degraded mode was
	// entered; degradedNs accumulates completed residencies. Atomic because
	// Stats folds the open residency in from another goroutine.
	degradedSince atomic.Uint64
	degradedNs    atomic.Uint64
	degradedOps   obs.Counter // driver operations spent in degraded mode

	// delivered is a ring of the most recently consumed packets, used to
	// classify rejected records as stale replays/duplicates.
	delivered    [deliveredDepth][]byte
	deliveredPos int

	quarantined    obs.Counter
	rejects        [codegen.ViolationValue + 1]obs.Counter
	staleDrops     obs.Counter
	resyncDrops    obs.Counter
	spurious       obs.Counter
	softDelivered  obs.Counter
	deviceFaults   obs.Counter
	degradedEnters obs.Counter
	resetAttempts  obs.Counter
	resets         obs.Counter
	configRetries  obs.Counter
	restores       obs.Counter
}

// Harden arms the hardening policy on the queue — completion validation,
// the device watchdog, SoftNIC degraded mode — and every lane it has. It
// must be called before the first Rx.
func (q *Queue) Harden(opts HardenOptions) error {
	opts = opts.withDefaults()
	q.hard = &hardening{
		opts:   opts,
		consts: softnic.Consts(q.view.queue),
		resetBo: retry.Policy{
			BaseDelay: 1,
			MaxDelay:  uint64(opts.MaxResetBackoff),
		}.NewBackoff(),
	}
	for _, l := range q.lanes {
		if l == nil {
			continue
		}
		if err := q.arm(l); err != nil {
			q.hard = nil
			return err
		}
	}
	return nil
}

// arm synthesizes l's validator and software runtime when the queue is
// hardened (a no-op otherwise).
func (q *Queue) arm(l *Lane) error {
	if q.hard == nil {
		return nil
	}
	v, err := codegen.NewValidator(l.RT.Result, codegen.ValidatorOptions{
		Deep:   q.hard.opts.Deep,
		Soft:   q.soft,
		Consts: q.hard.consts,
	})
	if err != nil {
		return err
	}
	l.Validator, l.Soft = v, codegen.NewSoftRuntime(l.RT.Result, q.soft)
	return nil
}

// Hardened reports whether the hardening policy is armed.
func (q *Queue) Hardened() bool { return q.hard != nil }

// Degraded reports whether the queue is in SoftNIC degraded mode. A control
// plane leaves the device alone until the watchdog has restored it.
func (q *Queue) Degraded() bool { return q.hard != nil && q.hard.degraded.Load() }

// rx is the hardened Rx path.
func (h *hardening) rx(q *Queue, pkt []byte, tag uint32) bool {
	soft := true
	switch {
	case h.degraded.Load():
		// Degraded: the device is not trusted with the packet at all; the
		// packet is queued for software delivery while the watchdog works on
		// recovery in the background.
		h.tickRecovery(q)
	case q.dev.RxPacket(pkt):
		soft, h.faultStreak = false, 0
	case q.dev.CmptRing.Free() == 0:
		// Genuine backpressure, not a fault: reject as an unhardened queue
		// would and let the caller re-poll.
		return false
	default:
		// The device refused a packet with ring space available: a device
		// fault (hang or internal error). The packet is delivered in software
		// so the application never sees the loss; enough consecutive faults
		// trip degraded mode.
		h.deviceFaults.Inc()
		if h.faultStreak++; h.faultStreak >= h.opts.DegradeThreshold {
			h.enterDegraded(q)
		}
	}
	q.push(pkt, tag, soft)
	return true
}

func (h *hardening) enterDegraded(q *Queue) {
	if h.degraded.Load() {
		return
	}
	h.degraded.Store(true)
	h.degradedEnters.Inc()
	h.degradedSince.Store(h.opts.Clock.Now())
	h.resetBo.Reset()
	h.curBackoff = h.resetBo.Next() // 1: first reset attempt is immediate
	h.untilReset = int(h.curBackoff)
	// The watchdog tripping is exactly the moment a postmortem is for: the
	// events leading up to the fault streak are still in the ring.
	q.fq.Record(flight.EvDegrade, uint32(h.degradedEnters.Load()), uint64(h.faultStreak), 0)
	q.Flight().Postmortem("watchdog-degrade")
}

// tickRecovery runs once per queue operation while degraded: it advances
// the device's fault clock (the discrete-time stand-in for wall time passing
// while the host backs off) and attempts a reset when the backoff expires.
func (h *hardening) tickRecovery(q *Queue) {
	q.dev.TickClock()
	h.degradedOps.Inc()
	if h.untilReset--; h.untilReset > 0 {
		return
	}
	h.resetAttempts.Inc()
	q.fq.Record(flight.EvResetAttempt, uint32(h.resetAttempts.Load()), h.curBackoff, 0)
	if err := q.dev.Reset(); err != nil {
		h.bumpBackoff()
		return
	}
	h.resets.Inc()
	// The reset emptied the completion ring: whatever completions the queued
	// hardware packets had are gone, so they are re-marked for software
	// delivery.
	for i := range q.pending {
		q.pending[i].Soft = true
	}
	// Restore what the device was last programmed with — on an evolving
	// queue, the active generation's configuration.
	if err := Apply(q.dev, q.cfg, func(int, error) { h.configRetries.Inc() }); err != nil {
		h.bumpBackoff()
		return
	}
	if _, err := q.dev.ActivePath(); err != nil {
		h.bumpBackoff()
		return
	}
	// Atomic restore: from the next Rx on, packets go back to hardware.
	h.degraded.Store(false)
	h.degradedNs.Add(h.opts.Clock.Now() - h.degradedSince.Load())
	h.faultStreak = 0
	h.resetBo.Reset()
	h.restores.Inc()
	q.fq.Record(flight.EvRestore, uint32(h.restores.Load()), h.resetAttempts.Load(), 0)
	// Snapshot the whole degrade→reset→restore arc while it is still in the
	// ring (the recovery postmortem E17 decodes).
	q.Flight().Postmortem("hardware-restore")
}

func (h *hardening) bumpBackoff() {
	h.curBackoff = h.resetBo.Next()
	h.untilReset = int(h.curBackoff)
}

// noteConsumed records a packet the loop consumed (delivered or parked) for
// stale-record classification; soft counts a software delivery.
func (h *hardening) noteConsumed(p []byte, soft bool) {
	h.delivered[h.deliveredPos] = p
	h.deliveredPos = (h.deliveredPos + 1) % deliveredDepth
	if soft {
		h.softDelivered.Inc()
	}
}

// noteLost resynchronizes past a lost completion: the device accepted the
// packet but its record never arrived, so it is served in software.
func (h *hardening) noteLost(q *Queue, p *Entry, skipped uint64) {
	h.resyncDrops.Inc()
	q.fq.RecordT(q.eventTS(), flight.EvResync, p.Seq, skipped, 0)
	p.Soft = true
}

// isStale reports whether rec is the completion of an already-consumed
// packet (a replayed or duplicated record).
func (h *hardening) isStale(v *codegen.Validator, rec []byte) bool {
	for _, p := range h.delivered {
		if p != nil && v.Conforms(rec, p) {
			return true
		}
	}
	return false
}

// resyncMatch looks for the queued packet a rejected record actually
// describes, up to deliveredDepth ahead in the live queue; it returns how
// many queue heads to skip (0 = no match, or resync disabled).
func (h *hardening) resyncMatch(v *codegen.Validator, queue []Entry, rec []byte) int {
	win := min(deliveredDepth, len(queue))
	if h.opts.DisableResync {
		win = 0
	}
	for i := 1; i < win; i++ {
		if !queue[i].Soft && v.Conforms(rec, queue[i].Pkt) {
			return i
		}
	}
	return 0
}

// HardeningStats snapshots the hardened-datapath counters.
type HardeningStats struct {
	// Degraded reports whether the driver is currently in SoftNIC degraded
	// mode (all semantics software-served).
	Degraded bool
	// Quarantined counts completion records rejected as corrupt; their bits
	// were never exposed to the application.
	Quarantined uint64
	// RejectsByClass breaks the validator rejections down by violation kind
	// (pad, discriminant, const, value, short).
	RejectsByClass map[string]uint64
	// StaleDrops counts discarded replayed/duplicated records; ResyncDrops
	// counts packets whose completion was lost and that were re-delivered in
	// software; SpuriousCompletions counts records with no matching packet.
	StaleDrops          uint64
	ResyncDrops         uint64
	SpuriousCompletions uint64
	// SoftDelivered counts packets served from the SoftNIC runtime (for any
	// reason: quarantine, resync, degraded mode).
	SoftDelivered uint64
	// DeviceFaults counts non-backpressure Rx refusals; DegradedEnters how
	// often the fault streak tripped degraded mode.
	DeviceFaults   uint64
	DegradedEnters uint64
	// DegradedOps counts driver operations spent in degraded mode, and
	// DegradedResidencyNs the cumulative time (on the injected clock) —
	// including the currently open residency, so a chaos oracle can bound
	// degraded-mode dwell while the driver is still degraded.
	DegradedOps         uint64
	DegradedResidencyNs uint64
	// ResetAttempts / Resets / ConfigRetries / HardwareRestores trace the
	// watchdog's recovery ladder.
	ResetAttempts    uint64
	Resets           uint64
	ConfigRetries    uint64
	HardwareRestores uint64
}

// Hardening snapshots the hardening counters (zero on a queue without
// Harden). Safe to call concurrently with the datapath.
func (q *Queue) Hardening() HardeningStats {
	h := q.hard
	if h == nil {
		return HardeningStats{}
	}
	st := HardeningStats{
		Degraded:            h.degraded.Load(),
		DegradedOps:         h.degradedOps.Load(),
		DegradedResidencyNs: h.degradedNs.Load(),
		Quarantined:         h.quarantined.Load(),
		RejectsByClass:      make(map[string]uint64),
		StaleDrops:          h.staleDrops.Load(),
		ResyncDrops:         h.resyncDrops.Load(),
		SpuriousCompletions: h.spurious.Load(),
		SoftDelivered:       h.softDelivered.Load(),
		DeviceFaults:        h.deviceFaults.Load(),
		DegradedEnters:      h.degradedEnters.Load(),
		ResetAttempts:       h.resetAttempts.Load(),
		Resets:              h.resets.Load(),
		ConfigRetries:       h.configRetries.Load(),
		HardwareRestores:    h.restores.Load(),
	}
	if st.Degraded {
		// Fold the open residency in so the snapshot reflects dwell-so-far.
		st.DegradedResidencyNs += h.opts.Clock.Now() - h.degradedSince.Load()
	}
	for k := codegen.ViolationShort; k <= codegen.ViolationValue; k++ {
		if n := h.rejects[k].Load(); n > 0 {
			st.RejectsByClass[k.String()] = n
		}
	}
	return st
}

// registerMetrics exposes the hardening counters on an obs registry.
func (h *hardening) registerMetrics(reg *obs.Registry, labels ...obs.Label) {
	reg.AttachCounter("opendesc_driver_quarantined_total", "completion records rejected as corrupt", &h.quarantined, labels...)
	reg.AttachCounter("opendesc_driver_stale_drops_total", "replayed/duplicated completion records discarded", &h.staleDrops, labels...)
	reg.AttachCounter("opendesc_driver_resync_drops_total", "lost completions resynchronized via software delivery", &h.resyncDrops, labels...)
	reg.AttachCounter("opendesc_driver_spurious_completions_total", "completion records with no matching packet", &h.spurious, labels...)
	reg.AttachCounter("opendesc_driver_soft_delivered_total", "packets served from the SoftNIC runtime", &h.softDelivered, labels...)
	reg.AttachCounter("opendesc_driver_device_faults_total", "non-backpressure device refusals", &h.deviceFaults, labels...)
	reg.AttachCounter("opendesc_driver_degraded_enters_total", "transitions into SoftNIC degraded mode", &h.degradedEnters, labels...)
	reg.AttachCounter("opendesc_driver_degraded_ops_total", "driver operations spent in SoftNIC degraded mode", &h.degradedOps, labels...)
	reg.AttachCounter("opendesc_driver_reset_attempts_total", "watchdog reset attempts", &h.resetAttempts, labels...)
	reg.AttachCounter("opendesc_driver_resets_total", "watchdog resets that took effect", &h.resets, labels...)
	reg.AttachCounter("opendesc_driver_config_retries_total", "re-ApplyConfig attempts that failed after reset", &h.configRetries, labels...)
	reg.AttachCounter("opendesc_driver_hardware_restores_total", "recoveries back to hardware mode", &h.restores, labels...)
	for k := codegen.ViolationShort; k <= codegen.ViolationValue; k++ {
		l := append(append([]obs.Label{}, labels...), obs.L("class", k.String()))
		reg.AttachCounter("opendesc_driver_rejects_total", "validator rejections per violation class", &h.rejects[k], l...)
	}
	reg.GaugeFunc("opendesc_driver_degraded", "1 while in SoftNIC degraded mode", func() int64 {
		if h.degraded.Load() {
			return 1
		}
		return 0
	}, labels...)
}
