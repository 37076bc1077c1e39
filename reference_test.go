package opendesc

import (
	"testing"

	"opendesc/internal/faults"
	"opendesc/internal/pkt"
)

// TestParseErrorIsNotCorruption: a frame the parser rejects (IP version 5)
// reads error_flags 0x80 — the parse error — whether the completion carries
// the field or a shim computes it, and a deep-validating driver takes the
// healthy completion that says so for what it is, not for corruption.
func TestParseErrorIsNotCorruption(t *testing.T) {
	frame := pkt.NewBuilder().WithUDP(1000, 2000).WithPayload([]byte("bad version")).Build()
	frame[pkt.EthHeaderLen] ^= 0x10 // version 4 → 5
	intent, err := NewIntent("parse_error", "error_flags")
	if err != nil {
		t.Fatal(err)
	}
	for _, nicName := range NICs() {
		for _, harden := range []*HardenOptions{nil, {Deep: true}} {
			drv, err := OpenWith(nicName, intent, OpenOptions{Harden: harden})
			if err != nil {
				t.Fatal(err)
			}
			if !drv.Rx(frame) {
				t.Fatalf("%s: rx refused", nicName)
			}
			n := drv.Poll(func(_ []byte, m Meta) {
				if v, ok := m.Get("error_flags"); !ok || v != 0x80 {
					t.Errorf("%s hardened=%v: error_flags = %#x/%v (hardware %v), want 0x80",
						nicName, harden != nil, v, ok, m.Hardware("error_flags"))
				}
			})
			if st := drv.Hardening(); n != 1 || st.Quarantined != 0 || st.SoftDelivered != 0 {
				t.Errorf("%s hardened=%v: delivered %d, quarantined %d, soft-delivered %d; want 1, 0, 0",
					nicName, harden != nil, n, st.Quarantined, st.SoftDelivered)
			}
		}
	}
}

// TestQueueIDIsTheDevices: queue_id reads the receiving device's queue on
// every owner of a lane — pinned, hardened, evolving, in degraded mode, and
// on each shard of a serving plane.
func TestQueueIDIsTheDevices(t *testing.T) {
	const queue = 3
	frame := pkt.NewBuilder().WithUDP(1000, 20000).Build()
	intent, err := NewIntent("queue", "rss", "queue_id")
	if err != nil {
		t.Fatal(err)
	}
	for _, nicName := range NICs() {
		for _, c := range []struct {
			name string
			opts OpenOptions
		}{
			{"pinned", OpenOptions{}},
			{"hardened", OpenOptions{Harden: &HardenOptions{Deep: true}}},
			{"evolving", OpenOptions{Evolve: &EvolveOptions{}}},
			{"degraded", OpenOptions{Harden: &HardenOptions{DegradeThreshold: 1}}},
		} {
			c.opts.Device.QueueID = queue
			drv, err := OpenWith(nicName, intent, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.name == "degraded" {
				inj := faults.New(faults.Plan{})
				drv.InjectFaults(inj)
				inj.ScriptHang(64)
			}
			for i := 0; i < 4; i++ {
				if !drv.Rx(frame) {
					t.Fatalf("%s %s: rx refused", nicName, c.name)
				}
			}
			if c.name == "degraded" && !drv.Hardening().Degraded {
				t.Fatalf("%s: a wedged device did not degrade the driver", nicName)
			}
			n := drv.Poll(func(_ []byte, m Meta) {
				if v, ok := m.Get("queue_id"); !ok || v != queue {
					t.Errorf("%s %s: queue_id = %d/%v (hardware %v), want %d", nicName, c.name, v, ok, m.Hardware("queue_id"), queue)
				}
			})
			if n != 4 {
				t.Errorf("%s %s: delivered %d of 4", nicName, c.name, n)
			}
		}
	}

	plane, err := OpenTenants(TenantOptions{NIC: "mlx5", Cores: 2},
		TenantSpec{Name: "t", Semantics: []string{"rss", "queue_id"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		p := pkt.NewBuilder().WithIPv4([4]byte{10, 0, byte(i >> 8), byte(i)}, [4]byte{10, 0, 0, 1}).WithUDP(uint16(1000+i), 20000).Build()
		if !plane.Rx(p) {
			t.Fatalf("plane rx %d refused", i)
		}
	}
	perShard := make([]int, plane.Cores())
	plane.Drain(func(d TenantDelivery) {
		perShard[d.Queue]++
		if v, ok := d.Get("queue_id"); !ok || v != uint64(d.Queue) {
			t.Errorf("shard %d: queue_id = %d/%v, want %d", d.Queue, v, ok, d.Queue)
		}
	})
	for q, n := range perShard {
		if n == 0 {
			t.Errorf("shard %d delivered nothing: the check is vacuous there", q)
		}
	}
}
