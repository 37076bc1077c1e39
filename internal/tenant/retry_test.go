package tenant

import (
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/faults"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
	"opendesc/internal/retry"
	"opendesc/internal/rxpath"
	"opendesc/internal/semantics"
)

// TestApplyWithRetriesAttemptCount pins the retry.Policy adoption to the
// legacy schedule: against a control channel that NAKs every burst,
// rxpath.Apply makes exactly retry.Attempts (4) ApplyConfig
// attempts — the same count the old hardcoded ×4 loop made — and the
// device accepts on the first attempt once the channel heals.
func TestApplyWithRetriesAttemptCount(t *testing.T) {
	m := nic.MustLoad("mlx5")
	intent, err := core.IntentFromSemantics("t", semantics.Default, semantics.RSS)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Compile(intent, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dev := nicsim.MustNew(m, nicsim.Config{})

	dev.InjectFaults(faults.New(faults.Plan{Seed: 7, NAKP: 1}))
	if err := rxpath.Apply(dev, res.Config, nil); err == nil {
		t.Fatal("ApplyConfig under a full NAK storm must fail")
	}
	if naks := dev.Stats().ConfigNAKs; naks != retry.Attempts {
		t.Fatalf("made %d attempts, want exactly %d (the legacy ×4 schedule)",
			naks, retry.Attempts)
	}

	dev.InjectFaults(nil)
	if err := rxpath.Apply(dev, res.Config, nil); err != nil {
		t.Fatalf("healed channel: %v", err)
	}
	if naks := dev.Stats().ConfigNAKs; naks != retry.Attempts {
		t.Fatalf("healed apply added attempts: ConfigNAKs = %d", naks)
	}
}
