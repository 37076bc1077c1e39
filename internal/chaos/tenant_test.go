package chaos

import (
	"bytes"
	"testing"
)

// TestTenantDeterministicTrace: same (cfg, seed) ⇒ byte-identical run log
// and identical outcome counters.
func TestTenantDeterministicTrace(t *testing.T) {
	cfg := Config{Mode: ModeTenant, Tenants: 4, Queues: 2, Steps: 256}
	a := Run(cfg, 7)
	b := Run(cfg, 7)
	if !bytes.Equal(a.Trace, b.Trace) {
		t.Fatal("identical (cfg, seed) produced different traces")
	}
	if a.Accepted != b.Accepted || a.Delivered != b.Delivered || a.Renegs != b.Renegs {
		t.Fatalf("outcomes differ: %+v vs %+v", a, b)
	}
	c := Run(cfg, 8)
	if bytes.Equal(a.Trace, c.Trace) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestTenantIsolationSweep: the tenant-isolation oracle family must hold
// across a seed sweep, and the sweep must actually exercise renegotiations
// (otherwise it proves nothing about isolation).
func TestTenantIsolationSweep(t *testing.T) {
	cfg := Config{Mode: ModeTenant, Tenants: 4, Queues: 2, Steps: 512}
	var renegs, fast, delivered, steals uint64
	for seed := uint64(1); seed <= 12; seed++ {
		res := Run(cfg, seed)
		if res.Violation != nil {
			t.Fatalf("seed %d: %v\ntrace tail:\n%s", seed, res.Violation, tail(res.Trace, 30))
		}
		if res.Accepted != res.Delivered {
			t.Fatalf("seed %d: accepted %d != delivered %d after a clean run",
				seed, res.Accepted, res.Delivered)
		}
		renegs += res.Renegs
		fast += res.FastRenegs
		delivered += res.Delivered
		steals += res.Steals
	}
	if renegs == 0 {
		t.Error("sweep scripted no layout switchovers; isolation untested")
	}
	if fast == 0 {
		t.Error("sweep exercised no fast-path renegotiations")
	}
	if delivered == 0 {
		t.Error("sweep delivered nothing")
	}
	if steals == 0 {
		t.Error("sweep exercised no work stealing")
	}
}

// TestTenantManyTenants: a larger plane (16 tenants, 4 cores) stays clean.
func TestTenantManyTenants(t *testing.T) {
	res := Run(Config{Mode: ModeTenant, Tenants: 16, Queues: 4, Steps: 768}, 3)
	if res.Violation != nil {
		t.Fatalf("%v\ntrace tail:\n%s", res.Violation, tail(res.Trace, 30))
	}
	if res.Accepted != res.Delivered {
		t.Fatalf("accepted %d != delivered %d", res.Accepted, res.Delivered)
	}
}
