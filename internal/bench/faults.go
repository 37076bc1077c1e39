package bench

import (
	"fmt"

	"opendesc"
	"opendesc/internal/faults"
	"opendesc/internal/rxpath"
	"opendesc/internal/workload"
)

// e16Run is the outcome of one fault-injection drive: delivery accounting,
// golden-value verification and the driver/injector counters.
type e16Run struct {
	accepted  int
	delivered int
	garbage   int // deliveries whose metadata disagreed with the SoftNIC golden values
	hard      opendesc.HardeningStats
	inj       faults.Stats
}

// caught is the number of completion records the hardened driver discarded
// (quarantine, stale, resync or spurious) — the detection side of the matrix.
func (r *e16Run) caught() uint64 {
	return r.hard.Quarantined + r.hard.StaleDrops + r.hard.ResyncDrops + r.hard.SpuriousCompletions
}

// e16Sems is the E16 intent, every semantic read on every delivery.
var e16Sems = []string{"rss", "vlan", "pkt_len"}

// e16Drive pushes n workload packets through a driver (hardened when harden
// is non-nil, the plain pre-hardening facade otherwise) under an optional
// fault plan, verifying exactly-once in-order delivery and golden metadata on
// every packet.
func e16Drive(n int, plan *faults.Plan, harden *opendesc.HardenOptions) (*e16Run, error) {
	intent, err := opendesc.NewIntent("e16", e16Sems...)
	if err != nil {
		return nil, err
	}
	drv, err := opendesc.OpenWith("e1000e", intent, opendesc.OpenOptions{Harden: harden})
	if err != nil {
		return nil, err
	}
	var inj *faults.Injector
	if plan != nil {
		inj = faults.New(*plan)
		drv.InjectFaults(inj)
	}

	spec := workload.DefaultSpec()
	tr, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}

	run := &e16Run{}
	var orderErr error
	var fifo rxpath.FIFO
	h := func(p []byte, meta opendesc.Meta) {
		run.delivered++
		if !fifo.Pop(p) {
			if orderErr == nil {
				orderErr = fmt.Errorf("e16: delivery %d out of order or duplicated", run.delivered)
			}
			return
		}
		for _, sem := range e16Sems {
			v, ok := meta.Get(sem)
			if want, wok := rxpath.Want(meta, sem); !ok || !wok || v != want {
				run.garbage++
				return
			}
		}
	}

	for i := 0; i < n; i++ {
		p := tr.Packets[i%len(tr.Packets)]
		tries := 0
		for !drv.Rx(p) {
			// Backpressure (plain driver ring-full, or hardened pre-degrade
			// refusals with a full ring): drain and retry.
			drv.Poll(h)
			if tries++; tries > 1<<16 {
				return nil, fmt.Errorf("e16: rx stalled at packet %d", i)
			}
		}
		run.accepted++
		fifo.Push(p)
		if i%8 == 7 {
			drv.Poll(h)
		}
	}
	idle := 0
	for i := 0; i < 1<<20 && idle < 4; i++ {
		if drv.Poll(h) == 0 {
			idle++
		} else {
			idle = 0
		}
	}

	if orderErr != nil {
		return nil, orderErr
	}
	if run.delivered != run.accepted {
		return nil, fmt.Errorf("e16: delivered %d of %d accepted packets", run.delivered, run.accepted)
	}
	if harden != nil {
		run.hard = drv.Hardening()
		if run.hard.Degraded {
			return nil, fmt.Errorf("e16: driver still degraded after the drain")
		}
	}
	if inj != nil {
		run.inj = inj.Stats()
	}
	return run, nil
}

// e16Class is one row of the matrix: a fault class driven alone.
type e16Class struct {
	name               string
	pkts               int
	injected, detected uint64
	run                *e16Run
}

// e16Result is the whole matrix: the per-class rows and the combined
// acceptance run.
type e16Result struct {
	classes  []e16Class
	combined e16Class
}

// E16Faults is the fault matrix (EXPERIMENTS.md E16): one hardened-driver run
// per fault class at a 1e-3 rate reporting injected vs detected vs survived,
// and the combined acceptance run (corrupt=1e-3 plus two forced device hangs
// over the full packet budget, which must deliver every packet exactly once
// with zero garbage metadata and recover to hardware mode twice). Every count
// is seeded and repeats exactly. What validation costs is cmd/benchmark's
// codegen.validate_struct_ns / codegen.validate_deep_ns and shim_hardened's
// host_ns_per_pkt.
func E16Faults(packets int) (*Table, error) {
	perClass := packets / 5
	deep := &opendesc.HardenOptions{Deep: true}
	res := &e16Result{}

	classes := []struct {
		name  string
		class faults.Class
		plan  faults.Plan
	}{
		{"corrupt", faults.Corrupt, faults.Plan{Seed: 161, CorruptP: 1e-3, BurstBits: 4}},
		{"truncate", faults.Truncate, faults.Plan{Seed: 162, TruncateP: 1e-3}},
		{"replay", faults.Replay, faults.Plan{Seed: 163, ReplayP: 1e-3}},
		{"duplicate", faults.Duplicate, faults.Plan{Seed: 164, DuplicateP: 1e-3}},
		{"drop", faults.Drop, faults.Plan{Seed: 165, DropP: 1e-3}},
		{"hang", faults.Hang, faults.Plan{Seed: 166, HangCount: 2, HangMTBF: perClass / 3, HangBurst: 64}},
	}
	for _, c := range classes {
		run, err := e16Drive(perClass, &c.plan, deep)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		injected := run.inj.Injected[c.class]
		detected := run.caught()
		if c.class == faults.Hang {
			detected = run.hard.DeviceFaults
		}
		// The validator guarantee: every effective record mutation is caught.
		if (c.class == faults.Corrupt || c.class == faults.Truncate) && detected < injected {
			return nil, fmt.Errorf("%s: detected %d of %d injected mutations", c.name, detected, injected)
		}
		if run.garbage != 0 {
			return nil, fmt.Errorf("%s: %d garbage deliveries, want 0", c.name, run.garbage)
		}
		if c.class == faults.Hang && run.hard.HardwareRestores != uint64(c.plan.HangCount) {
			return nil, fmt.Errorf("hang: %d hardware restores, want %d", run.hard.HardwareRestores, c.plan.HangCount)
		}
		res.classes = append(res.classes, e16Class{c.name, perClass, injected, detected, run})
	}

	// Combined acceptance run: corruption at 1e-3 plus two forced hangs over
	// the full budget.
	combined := faults.Plan{Seed: 616, CorruptP: 1e-3, BurstBits: 4,
		HangCount: 2, HangMTBF: packets / 3, HangBurst: 64}
	comb, err := e16Drive(packets, &combined, deep)
	if err != nil {
		return nil, fmt.Errorf("combined: %w", err)
	}
	if comb.garbage != 0 {
		return nil, fmt.Errorf("combined: %d garbage deliveries, want 0", comb.garbage)
	}
	if comb.caught() < comb.inj.Injected[faults.Corrupt] {
		return nil, fmt.Errorf("combined: caught %d of %d corruptions", comb.caught(), comb.inj.Injected[faults.Corrupt])
	}
	if comb.hard.HardwareRestores != 2 {
		return nil, fmt.Errorf("combined: %d hardware restores, want 2", comb.hard.HardwareRestores)
	}
	res.combined = e16Class{"corrupt+2 hangs", packets,
		comb.inj.Injected[faults.Corrupt] + comb.inj.Injected[faults.Hang],
		comb.caught() + comb.hard.DeviceFaults, comb}

	// Exactly-once sanity on a clean hardened run (recovery must stay idle).
	clean, err := e16Drive(packets, nil, deep)
	if err != nil {
		return nil, fmt.Errorf("clean: %w", err)
	}
	if clean.caught() != 0 || clean.hard.SoftDelivered != 0 {
		return nil, fmt.Errorf("clean hardened run tripped recovery: %+v", clean.hard)
	}

	tab := &Table{
		ID:     "E16",
		Title:  "fault matrix: hardened driver under injection (e1000e, rss+vlan+pkt_len)",
		Header: []string{"fault", "pkts", "injected", "detected", "garbage", "delivered", "restores"},
		Note: "every run must deliver all packets exactly once, in order, with golden metadata (garbage=0);\n" +
			"a clean hardened run of the same length must never trip recovery",
		run: res,
	}
	for _, c := range append(res.classes, res.combined) {
		tab.AddRow(c.name, c.pkts, c.injected, c.detected, c.run.garbage,
			fmt.Sprintf("%d/%d", c.run.delivered, c.run.accepted), c.run.hard.HardwareRestores)
	}
	return tab, nil
}
