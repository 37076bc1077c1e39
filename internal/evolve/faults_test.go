package evolve

import (
	"strings"
	"testing"

	"opendesc/internal/faults"
	"opendesc/internal/rxpath"
	"opendesc/internal/semantics"
)

// TestSwitchoverSurvivesNAKStorm: with every register-write burst NAKed, a
// switchover must fail cleanly — bounded retries, a rollback, and an intact
// datapath — and succeed once the control channel heals.
func TestSwitchoverSurvivesNAKStorm(t *testing.T) {
	e := newTestEngine(t, staticOptions())
	tr := trace(t)
	drive(t, e, tr, 128, semantics.RSS)

	e.q.Dev().InjectFaults(faults.New(faults.Plan{Seed: 13, NAKP: 1}))
	switched, err := e.Renegotiate()
	if switched {
		t.Fatal("switchover must not complete under a NAK storm")
	}
	if err == nil || !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("err = %v, want a rollback", err)
	}
	st := e.Stats()
	if st.Rollbacks != 1 || st.Generation != 0 || st.Switchovers != 0 {
		t.Fatalf("stats = %+v, want 1 rollback at generation 0", st)
	}
	// Both the apply and the rollback reapply must have exhausted their
	// bounded retries (4 + 4).
	if st.ApplyRetries != 8 {
		t.Fatalf("apply retries = %d, want 8", st.ApplyRetries)
	}
	if st.SwitchDrops != 0 {
		t.Fatalf("switch drops = %d, want 0", st.SwitchDrops)
	}
	// NAKs are atomic: the device context was never touched, the old path
	// still serves traffic (injector still attached — data path is
	// unaffected by NAK-only plans).
	if got := drive(t, e, tr, 64, semantics.RSS); got != 64 {
		t.Fatalf("post-rollback delivery = %d, want 64", got)
	}

	// Control channel heals: the next renegotiation must switch.
	e.q.Dev().InjectFaults(nil)
	drive(t, e, tr, 128, semantics.RSS)
	switched, err = e.Renegotiate()
	if err != nil || !switched {
		t.Fatalf("post-heal renegotiate = %v/%v, want a clean switchover", switched, err)
	}
	if st := e.Stats(); st.Generation != 1 || st.SwitchDrops != 0 {
		t.Fatalf("stats after heal = %+v, want generation 1 with 0 drops", st)
	}
}

// TestSwitchoverAbsorbsTransientNAKs: sporadic NAKs within the retry budget
// must not abort a switchover at all.
func TestSwitchoverAbsorbsTransientNAKs(t *testing.T) {
	// The injector is deterministic, so sweep seeds until one NAKs the apply
	// op at least once; the retry budget must then absorb it silently.
	exercised := false
	for seed := uint64(1); seed <= 64; seed++ {
		e := newTestEngine(t, staticOptions())
		tr := trace(t)
		drive(t, e, tr, 128, semantics.RSS)
		e.q.Dev().InjectFaults(faults.New(faults.Plan{Seed: seed, NAKP: 0.5}))
		switched, err := e.Renegotiate()
		st := e.Stats()
		if err != nil || !switched {
			// 4 consecutive NAKs exhausted the budget — a legitimate
			// rollback, covered by the NAK-storm test. Try another seed.
			if st.Rollbacks != 1 {
				t.Fatalf("seed %d: renegotiate = %v/%v without a rollback", seed, switched, err)
			}
			continue
		}
		if st.Rollbacks != 0 || st.Generation != 1 {
			t.Fatalf("seed %d: stats = %+v, want a clean generation-1 switchover", seed, st)
		}
		if st.ApplyRetries > 0 {
			exercised = true
			break
		}
	}
	if !exercised {
		t.Fatal("no seed in [1,64] exercised the transient-NAK retry path")
	}
}

// TestDrainSoftParksLostCompletions: completions lost to a faulty device
// mid-switchover must not become drops — the stranded packets are parked and
// delivered through the old generation's software runtime.
func TestDrainSoftParksLostCompletions(t *testing.T) {
	e := newTestEngine(t, staticOptions())
	tr := trace(t)
	drive(t, e, tr, 128, semantics.RSS)

	// Queue a burst whose completions are partially lost, without polling.
	e.q.Dev().InjectFaults(faults.New(faults.Plan{Seed: 4, DropP: 0.5}))
	queued := 0
	for i := 0; i < 32; i++ {
		if e.Rx(tr.Packets[i%len(tr.Packets)]) {
			queued++
		}
	}
	e.q.Dev().InjectFaults(nil)

	switched, err := e.Renegotiate()
	if err != nil || !switched {
		t.Fatalf("renegotiate = %v/%v, want a switchover", switched, err)
	}
	st := e.Stats()
	if st.SoftParked == 0 {
		t.Fatal("expected lost completions to be soft-parked during the drain")
	}
	if st.SwitchDrops != 0 {
		t.Fatalf("switch drops = %d, want 0 (losses must be parked, not dropped)", st.SwitchDrops)
	}
	if int(st.PacketsDrained+st.SoftParked) != queued {
		t.Fatalf("drained %d + parked %d != queued %d", st.PacketsDrained, st.SoftParked, queued)
	}

	// Every parked packet is delivered on the next Poll; the soft runtime
	// serves reads without a completion record.
	got := 0
	n := e.Poll(func(pkt []byte, m rxpath.Meta) {
		if _, ok := m.Get("rss"); !ok {
			t.Fatal("parked read failed")
		}
		got++
	})
	if n != queued || got != queued {
		t.Fatalf("post-switchover poll delivered %d/%d, want %d", n, got, queued)
	}
}
