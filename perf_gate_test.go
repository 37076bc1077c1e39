package opendesc

import (
	"testing"

	"opendesc/internal/workload"
)

// gateDriver opens a warmed plain driver plus trace for the alloc gate.
func gateDriver(t *testing.T) (*Driver, [][]byte, func([]byte, Meta)) {
	t.Helper()
	intent, err := NewIntent("gate", "rss", "vlan", "pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	drv, err := OpenIntent("e1000e", intent, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(workload.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	sink := new(uint64)
	h := func(p []byte, meta Meta) {
		v1, _ := meta.Get("rss")
		v2, _ := meta.Get("vlan")
		v3, _ := meta.Get("pkt_len")
		*sink += v1 + v2 + v3
	}
	for i := 0; i < 64; i++ {
		for !drv.Rx(tr.Packets[i%len(tr.Packets)]) {
			drv.Poll(h)
		}
	}
	for drv.Poll(h) > 0 {
	}
	return drv, tr.Packets, h
}

// TestDeliverPathAllocGate is the alloc ratchet for the host-side
// poll→validate→read→deliver hot path. The simulated device's Rx side
// allocates one condition-path string per context branch it evaluates, so
// the gate measures the full Rx+Poll cycle and subtracts an Rx-only
// baseline taken against the same driver — the difference is what the host
// datapath itself allocates per delivered packet, and it must stay zero.
// Any change that puts a heap allocation on Poll, Meta.Get, or the deliver
// callback path fails this test.
func TestDeliverPathAllocGate(t *testing.T) {
	const runs = 400 // plus AllocsPerRun's warm-up call, still < the 1024-deep ring
	const tolerance = 0.25

	drv, packets, h := gateDriver(t)
	p := packets[0]

	// Rx-only baseline: the ring is deep enough that no Poll is ever needed.
	rxOnly := testing.AllocsPerRun(runs, func() {
		if !drv.Rx(p) {
			t.Fatal("ring filled during the rx-only baseline")
		}
	})
	for drv.Poll(h) > 0 {
	}

	// Full cycle: one Rx, one Poll delivering that packet through three reads.
	full := testing.AllocsPerRun(runs, func() {
		for !drv.Rx(p) {
			drv.Poll(h)
		}
		drv.Poll(h)
	})

	deliver := full - rxOnly
	t.Logf("rx(device sim)=%.2f full=%.2f → deliver path=%.2f allocs/pkt (tolerance %.2f)",
		rxOnly, full, deliver, tolerance)
	if deliver > tolerance {
		t.Fatalf("deliver path allocates %.2f allocs/pkt (full %.2f − rx-only %.2f); "+
			"the poll→validate→read→deliver path must stay allocation-free", deliver, full, rxOnly)
	}
}
