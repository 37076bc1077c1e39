package opendesc

// This file is the hardened datapath of the driver facade: a completion
// validator synthesized from the compiled layout, a device watchdog with
// bounded exponential backoff, and a SoftNIC degraded mode. The contract it
// defends: every packet accepted by Rx is delivered by Poll exactly once and
// in order, with metadata values equal to the SoftNIC golden reference —
// even while the device corrupts, truncates, replays, duplicates or drops
// completion records, NAKs register writes, or hangs outright.

import (
	"sync/atomic"

	"opendesc/internal/codegen"
	"opendesc/internal/faults"
	"opendesc/internal/nicsim"
	"opendesc/internal/obs"
	"opendesc/internal/obs/flight"
	"opendesc/internal/retry"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/vclock"
)

// HardenOptions tunes the hardened datapath enabled by Driver.Harden.
type HardenOptions struct {
	// Deep enables the per-packet deep-conformance validator tier (recompute
	// packet-derived semantics in software and compare). Off by default: the
	// structural tier alone keeps the fast path within the overhead budget.
	Deep bool
	// DisableValidate turns the completion validator off entirely (A/B
	// baseline for the overhead experiment); watchdog and degraded mode stay.
	DisableValidate bool
	// DegradeThreshold is how many consecutive device faults (refusals that
	// are not ring backpressure) trip SoftNIC degraded mode (default 8).
	DegradeThreshold int
	// ApplyRetries bounds the re-ApplyConfig attempts after a successful
	// reset (the control channel may still NAK); default 4.
	ApplyRetries int
	// MaxResetBackoff caps the exponential reset backoff, measured in driver
	// operations rather than wall time so recovery is deterministic and
	// testable; default 1024.
	MaxResetBackoff int
	// ResyncWindow is how many queued packets ahead a rejected completion is
	// matched against when resynchronizing after a lost completion
	// (default 8, the injector's replay depth).
	ResyncWindow int
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
	if o.ApplyRetries <= 0 {
		o.ApplyRetries = 4
	}
	if o.MaxResetBackoff <= 0 {
		o.MaxResetBackoff = 1024
	}
	if o.ResyncWindow <= 0 {
		o.ResyncWindow = 8
	}
	o.Clock = vclock.Or(o.Clock)
	return o
}

// deliveredDepth is how many recently delivered packets are retained for
// stale/duplicate classification (matches the injector's replay depth).
const deliveredDepth = 8

// hardening is the per-driver hardened-datapath state. The mutable fields
// are datapath-owned (single goroutine); counters and the degraded flag are
// atomic so Hardening()/RegisterMetrics may be read concurrently.
type hardening struct {
	opts      HardenOptions
	validator *codegen.Validator
	softRT    *codegen.Runtime

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
	// Hardening() folds the open residency in from another goroutine.
	degradedSince atomic.Uint64
	degradedNs    atomic.Uint64
	degradedOps   obs.Counter // driver operations spent in degraded mode

	// delivered is a ring of the most recently delivered packets, used to
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

// softConsts are the device-state semantics whose value is pinned by the
// driver's (default) device configuration; the validator checks them as
// constants and degraded mode serves them as constants.
func softConsts(cfg nicsim.Config) map[semantics.Name]uint64 {
	return map[semantics.Name]uint64{
		semantics.QueueID:    uint64(cfg.QueueID),
		semantics.Mark:       cfg.Mark,
		semantics.CryptoCtx:  cfg.CryptoCtx,
		semantics.LROSegs:    1,
		semantics.SegCnt:     1,
		semantics.RXDropHint: 0,
	}
}

// Harden arms the hardened datapath on a pinned driver: completion
// validation, the device watchdog, and SoftNIC degraded mode. It must be
// called before the first Rx. Evolving drivers harden their switchover
// control plane instead (see EvolveOptions).
func (d *Driver) Harden(opts HardenOptions) error {
	if d.engine != nil {
		return errEvolvingHarden
	}
	opts = opts.withDefaults()
	consts := softConsts(d.dev.Config())
	soft := softnic.Funcs()
	for sem, v := range consts {
		if _, ok := soft[sem]; !ok {
			val := v
			soft[sem] = func([]byte) uint64 { return val }
		}
	}
	if _, ok := soft[semantics.Timestamp]; !ok {
		// No host-side clock can reproduce the device timestamp; degraded
		// mode reports 0 (and the validator skips the field).
		soft[semantics.Timestamp] = func([]byte) uint64 { return 0 }
	}
	v, err := codegen.NewValidator(d.Result, codegen.ValidatorOptions{
		Deep:   opts.Deep,
		Soft:   softnic.Funcs(),
		Consts: consts,
	})
	if err != nil {
		return err
	}
	v.AttachFlight(d.fq)
	d.hard = &hardening{
		opts:      opts,
		validator: v,
		softRT:    codegen.NewSoftRuntime(d.Result, soft),
		resetBo: retry.Policy{
			BaseDelay: 1,
			MaxDelay:  uint64(opts.MaxResetBackoff),
		}.NewBackoff(),
	}
	return nil
}

// Hardened reports whether the hardened datapath is armed.
func (d *Driver) Hardened() bool { return d.hard != nil }

// InjectFaults attaches a fault injector to the underlying simulated device
// (nil detaches). Pair with Harden to exercise the recovery machinery.
func (d *Driver) InjectFaults(inj *faults.Injector) {
	if d.engine != nil {
		d.engine.Device().InjectFaults(inj)
		return
	}
	d.dev.InjectFaults(inj)
}

// rx is the hardened Rx path.
func (h *hardening) rx(d *Driver, packet []byte) bool {
	if h.degraded.Load() {
		// Degraded: the device is not trusted with the packet at all; the
		// packet is queued for software delivery while the watchdog works on
		// recovery in the background.
		h.tickRecovery(d)
		d.enqueue(packet, true)
		return true
	}
	if d.dev.RxPacket(packet) {
		d.enqueue(packet, false)
		h.faultStreak = 0
		return true
	}
	if d.dev.CmptRing.Free() == 0 {
		// Genuine backpressure, not a fault: reject as an unhardened driver
		// would and let the caller re-poll.
		return false
	}
	// The device refused a packet with ring space available: a device fault
	// (hang or internal error). The packet is delivered in software so the
	// application never sees the loss; enough consecutive faults trip
	// degraded mode.
	h.deviceFaults.Inc()
	h.faultStreak++
	if h.faultStreak >= h.opts.DegradeThreshold {
		h.enterDegraded(d)
	}
	d.enqueue(packet, true)
	return true
}

func (h *hardening) enterDegraded(d *Driver) {
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
	d.fq.Record(flight.EvDegrade, uint32(h.degradedEnters.Load()), uint64(h.faultStreak), 0)
	d.flight.Postmortem("watchdog-degrade")
}

// tickRecovery runs once per driver operation while degraded: it advances
// the device's fault clock (the discrete-time stand-in for wall time passing
// while the host backs off) and attempts a reset when the backoff expires.
func (h *hardening) tickRecovery(d *Driver) {
	d.dev.TickClock()
	h.degradedOps.Inc()
	if h.untilReset--; h.untilReset > 0 {
		return
	}
	h.resetAttempts.Inc()
	d.fq.Record(flight.EvResetAttempt, uint32(h.resetAttempts.Load()), h.curBackoff, 0)
	if err := d.dev.Reset(); err != nil {
		h.bumpBackoff()
		return
	}
	h.resets.Inc()
	// The reset emptied the completion ring: whatever completions the queued
	// hardware packets had are gone, so they are re-marked for software
	// delivery.
	for i := range d.pending {
		d.pending[i].soft = true
	}
	err := retry.Policy{
		Attempts: h.opts.ApplyRetries,
		OnError:  func(int, error) { h.configRetries.Inc() },
	}.Do(func() error { return d.dev.ApplyConfig(d.Result.Config) })
	if err != nil {
		h.bumpBackoff()
		return
	}
	if _, err := d.dev.ActivePath(); err != nil {
		h.bumpBackoff()
		return
	}
	// Atomic restore: from the next Rx on, packets go back to hardware.
	h.degraded.Store(false)
	h.degradedNs.Add(h.opts.Clock.Now() - h.degradedSince.Load())
	h.faultStreak = 0
	h.resetBo.Reset()
	h.restores.Inc()
	d.fq.Record(flight.EvRestore, uint32(h.restores.Load()), h.resetAttempts.Load(), 0)
	// Snapshot the whole degrade→reset→restore arc while it is still in the
	// ring (the recovery postmortem E17 decodes).
	d.flight.Postmortem("hardware-restore")
}

func (h *hardening) bumpBackoff() {
	h.curBackoff = h.resetBo.Next()
	h.untilReset = int(h.curBackoff)
}

// noteDelivered records a delivered packet for stale-record classification.
func (h *hardening) noteDelivered(p []byte) {
	h.delivered[h.deliveredPos] = p
	h.deliveredPos = (h.deliveredPos + 1) % deliveredDepth
}

// isStale reports whether rec is the completion of an already-delivered
// packet (a replayed or duplicated record).
func (h *hardening) isStale(rec []byte) bool {
	for _, p := range h.delivered {
		if p != nil && h.validator.Conforms(rec, p) {
			return true
		}
	}
	return false
}

// poll is the hardened Poll path. The device is synchronous (a completion
// for every accepted packet is DMAed before RxPacket returns), which gives
// the resynchronization logic a strong invariant: if the ring is empty while
// a hardware-pending packet is queued, that packet's completion was lost.
func (h *hardening) poll(d *Driver, fn func(packet []byte, meta Meta)) int {
	if h.degraded.Load() {
		h.tickRecovery(d)
	}
	t0 := d.fq.Now()
	// One ring transaction for the whole poll: records are looked at and
	// released one decision at a time, the new head is published once.
	cur := d.dev.CmptRing.Cursor()
	n := 0 // d.pending[:n] is delivered
	for n < len(d.pending) {
		head := d.pending[n]
		if head.soft {
			h.deliverSoft(d, head, t0, fn)
			n++
			continue
		}
		if cur.Avail() == 0 {
			if h.opts.DisableResync {
				// The deliberately re-opened pre-resync bug: the packet's
				// record never arrived and nothing re-delivers it — it stays
				// pending forever (the liveness violation the chaos oracles
				// must catch).
				break
			}
			// Lost completion: the device accepted the packet but its record
			// never arrived. Resynchronize by delivering in software.
			h.resyncDrops.Inc()
			d.fq.RecordT(t0, flight.EvResync, head.seq, 0, 0)
			h.deliverSoft(d, head, t0, fn)
			n++
			continue
		}
		rec := cur.At()
		var viol *codegen.Violation
		if !h.opts.DisableValidate {
			viol = h.validator.Check(rec, head.pkt)
		}
		if viol == nil {
			fn(head.pkt, d.meta(d.rt, rec, &head, t0))
			h.noteDelivered(head.pkt)
			cur.Release()
			d.noteDelivered(t0, head.ts, head.seq)
			n++
			continue
		}
		h.rejects[viol.Kind].Inc()
		// Classify the rejected record before blaming corruption.
		if h.isStale(rec) {
			// A replayed/duplicated completion of an earlier packet: discard
			// it and retry the head against the next record.
			h.staleDrops.Inc()
			d.fq.RecordT(t0, flight.EvStale, head.seq, uint64(viol.Kind)+1, 0)
			cur.Release()
			continue
		}
		if skip := h.resyncMatch(d.pending[n:], rec); skip > 0 && !h.opts.DisableResync {
			// The record belongs to a packet further down the queue: the
			// completions of the packets ahead of it were lost. Deliver those
			// in software and retry with the matching packet at the head.
			for _, p := range d.pending[n : n+skip] {
				h.resyncDrops.Inc()
				d.fq.RecordT(t0, flight.EvResync, p.seq, uint64(skip), 0)
				h.deliverSoft(d, p, t0, fn)
			}
			n += skip
			continue
		}
		// Unclassifiable: a corrupted record. Quarantine it (never expose its
		// bits) and serve the packet from software.
		h.quarantined.Inc()
		d.fq.RecordT(t0, flight.EvQuarantine, head.seq, uint64(viol.Kind)+1, 0)
		if h.quarantined.Load() == 1 {
			// Postmortem on the first quarantine only: fault-heavy runs can
			// quarantine thousands of records, and one snapshot of the first
			// is what a debugging session needs.
			d.flight.Postmortem("quarantine")
		}
		cur.Release()
		h.deliverSoft(d, head, t0, fn)
		n++
	}
	d.pending = d.pending[:copy(d.pending, d.pending[n:])]
	// Records with no queued packet left are spurious (duplicates that
	// outlived their packet); drain and count them.
	for len(d.pending) == 0 && cur.Avail() > 0 {
		h.spurious.Inc()
		d.fq.RecordT(t0, flight.EvSpurious, 0, h.spurious.Load(), 0)
		cur.Release()
	}
	cur.Close()
	return n
}

// resyncMatch looks for the queued packet a rejected record actually
// describes, up to ResyncWindow ahead in the live queue; it returns how many
// queue heads to skip (0 = no match).
func (h *hardening) resyncMatch(queue []pendingPkt, rec []byte) int {
	win := h.opts.ResyncWindow
	if win > len(queue) {
		win = len(queue)
	}
	for i := 1; i < win; i++ {
		if !queue[i].soft && h.validator.Conforms(rec, queue[i].pkt) {
			return i
		}
	}
	return 0
}

// deliverSoft serves a packet entirely from the SoftNIC runtime: same
// values as the golden reference, Meta.Hardware false for every field.
func (h *hardening) deliverSoft(d *Driver, p pendingPkt, t0 uint64, fn func([]byte, Meta)) {
	h.softDelivered.Inc()
	fn(p.pkt, d.meta(h.softRT, nil, &p, t0))
	h.noteDelivered(p.pkt)
	d.noteDelivered(t0, p.ts, p.seq)
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

// Hardening snapshots the hardened-datapath counters (zero for drivers
// without Harden). Safe to call concurrently with the datapath.
func (d *Driver) Hardening() HardeningStats {
	h := d.hard
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

// registerMetrics exposes the hardened-datapath counters on an obs registry.
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
