package opendesc

import (
	"math"
	"testing"

	"opendesc/internal/codegen"
	"opendesc/internal/faults"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
)

// composeSems is the Fig. 6 tension on e1000e: the checksum path and the RSS
// path cannot both be hardware, so a flipping read mix keeps switching.
var composeSems = []string{"rss", "ip_checksum", "vlan", "pkt_len"}

// composeMixes are the two application read mixes the tests flip between.
var composeMixes = [2][]string{{"rss", "vlan", "pkt_len"}, {"ip_checksum", "vlan", "pkt_len"}}

// openComposed opens a hardened + evolving e1000e driver that renegotiates
// only when the test calls Renegotiate (static shim costs: deterministic).
func openComposed(t *testing.T, h HardenOptions) *Driver {
	t.Helper()
	intent, err := NewIntent("composed", composeSems...)
	if err != nil {
		t.Fatal(err)
	}
	h.Deep = true
	drv, err := OpenWith("e1000e", intent, OpenOptions{
		Evolve: &EvolveOptions{Interval: 1 << 30, MinWindow: 64, MinShimSamples: math.MaxUint64},
		Harden: &h,
	})
	if err != nil {
		t.Fatalf("OpenWith(Evolve+Harden): %v", err)
	}
	if !drv.Hardened() {
		t.Fatal("composed driver is not hardened")
	}
	return drv
}

// composeChecker is the delivery oracle of the composition tests: exactly
// once, in order, every read equal to the SoftNIC golden, and the hardware
// placement of every field equal to the delivering generation's — or all
// software, for a packet the hardening served from the soft runtime.
type composeChecker struct {
	t       *testing.T
	packets [][]byte
	sems    []string // the intent: every semantic whose placement is checked
	golden  map[semantics.Name]codegen.SoftFunc
	next    int
	mix     []string
	// parked lists, oldest first, how many of the next deliveries belong to
	// an older generation (they were in flight when it was switched away
	// from) and which; deliveries after those are read under cur.
	parked []parkedSpan
	cur    *Result
	soft   int
}

type parkedSpan struct {
	n   int
	res *Result
}

func newComposeChecker(t *testing.T, drv *Driver, packets [][]byte) *composeChecker {
	return &composeChecker{t: t, packets: packets, sems: composeSems, cur: drv.Result, mix: composeMixes[0], golden: softnic.Funcs()}
}

func (c *composeChecker) deliver(p []byte, meta Meta) {
	t := c.t
	if c.next >= len(c.packets) || &p[0] != &c.packets[c.next][0] {
		t.Fatalf("delivery %d duplicated or out of order", c.next)
	}
	c.next++
	res := c.cur
	if len(c.parked) > 0 {
		res = c.parked[0].res
		if c.parked[0].n--; c.parked[0].n == 0 {
			c.parked = c.parked[1:]
		}
	}
	hwAny := false
	for _, s := range c.sems {
		hwAny = hwAny || meta.Hardware(s)
	}
	if !hwAny {
		c.soft++
	}
	for _, s := range c.sems {
		if hw := meta.Hardware(s); hwAny && hw != res.HardwareSet().Has(semantics.Name(s)) {
			t.Fatalf("delivery %d: Hardware(%s) = %v, the delivering generation (path %d) has hardware %s",
				c.next-1, s, hw, res.Selected.Path.ID, res.HardwareSet())
		}
	}
	for _, s := range c.mix {
		v, ok := meta.Get(s)
		if want := c.golden[semantics.Name(s)](p); !ok || v != want {
			t.Fatalf("delivery %d: %s = %#x/%v, SoftNIC golden %#x", c.next-1, s, v, ok, want)
		}
	}
}

// renegotiate runs one control-plane tick between an Rx burst and its Poll,
// so a switchover finds packets in flight and must park them.
func (c *composeChecker) renegotiate(drv *Driver) bool {
	c.t.Helper()
	before, st0 := drv.engine.Result(), drv.Evolution()
	switched, err := drv.engine.Renegotiate()
	if err != nil {
		c.t.Fatalf("renegotiate: %v", err)
	}
	if switched {
		st := drv.Evolution()
		if n := int(st.PacketsDrained + st.SoftParked - st0.PacketsDrained - st0.SoftParked); n > 0 {
			c.parked = append(c.parked, parkedSpan{n, before})
		}
		c.cur = drv.engine.Result()
	}
	return switched
}

// drive offers every packet in bursts of 8 with a Poll after each (calling
// polled after it), and every 256 packets renegotiates — between the burst
// and its Poll — and flips the read mix; then it drains, and requires every
// packet delivered.
func (c *composeChecker) drive(drv *Driver, mixes [2][]string, polled func()) {
	const batch, phase = 8, 256
	for i := 0; i < len(c.packets); {
		for j := 0; j < batch; j++ {
			if !drv.Rx(c.packets[i]) {
				c.t.Fatalf("rx %d refused", i)
			}
			i++
		}
		if i%phase == 0 {
			c.renegotiate(drv)
			c.mix = mixes[(i/phase)%2]
		}
		drv.Poll(c.deliver)
		polled()
	}
	for drv.Poll(c.deliver) > 0 {
	}
	if c.next != len(c.packets) || drv.PendingPackets() != 0 {
		c.t.Fatalf("delivered %d of %d, %d pending", c.next, len(c.packets), drv.PendingPackets())
	}
}

// TestHardenedEvolvingExactlyOnce: the composition the title promises. While
// the device corrupts, replays, duplicates and drops completions and the
// read mix flips, a hardened evolving driver delivers every accepted packet
// exactly once, in order, with golden metadata, each read under the
// generation its completion was DMAed in.
func TestHardenedEvolvingExactlyOnce(t *testing.T) {
	drv := openComposed(t, HardenOptions{})
	drv.InjectFaults(faults.New(faults.Plan{Seed: 11, CorruptP: 0.03, ReplayP: 0.03, DuplicateP: 0.03, DropP: 0.03}))
	packets := hardPackets(2048)
	c := newComposeChecker(t, drv, packets)
	c.drive(drv, composeMixes, func() {
		if drv.Result != c.cur {
			t.Fatalf("Driver.Result does not track the active generation after Poll")
		}
	})
	ev, h := drv.Evolution(), drv.Hardening()
	if ev.Switchovers < 3 || ev.SwitchDrops != 0 || ev.Rollbacks != 0 {
		t.Fatalf("want ≥ 3 clean switchovers, got %+v", ev)
	}
	if ev.PacketsDrained+ev.SoftParked == 0 {
		t.Error("no switchover ever found a packet in flight: the drain was not exercised")
	}
	if h.Quarantined == 0 || h.StaleDrops == 0 || h.ResyncDrops == 0 {
		t.Errorf("fault mix did not reach every verdict: %+v", h)
	}
	if uint64(c.soft) != h.SoftDelivered {
		t.Errorf("saw %d all-software deliveries, Hardening counts %d", c.soft, h.SoftDelivered)
	}
}

// TestParkedRecordJudgedUnderItsGeneration: a record corrupted before a
// switchover is judged by the drain, under the validator of the generation
// it was DMAed in — it is quarantined before the new generation exists and
// its packet is served in software.
func TestParkedRecordJudgedUnderItsGeneration(t *testing.T) {
	drv := openComposed(t, HardenOptions{})
	inj := faults.New(faults.Plan{Seed: 5, BurstBits: 8})
	drv.InjectFaults(inj)
	packets := hardPackets(257)
	c := newComposeChecker(t, drv, packets)
	for _, p := range packets[:256] {
		if !drv.Rx(p) {
			t.Fatal("rx refused")
		}
		drv.Poll(c.deliver)
	}
	inj.ScriptNext(faults.Corrupt)
	if !drv.Rx(packets[256]) {
		t.Fatal("rx refused")
	}
	old := drv.q.Lane(0)
	if !c.renegotiate(drv) {
		t.Fatal("the rss-heavy mix should have switched generations")
	}
	h, ev := drv.Hardening(), drv.Evolution()
	if h.Quarantined != 1 || ev.SoftParked != 1 || ev.PacketsDrained != 0 {
		t.Fatalf("the drain should have quarantined the in-flight record: quarantined %d, soft-parked %d, drained %d",
			h.Quarantined, ev.SoftParked, ev.PacketsDrained)
	}
	if drv.q.Lane(0) == old || drv.q.Lane(0).Validator == old.Validator {
		t.Fatal("the new generation did not get its own lane and validator")
	}
	c.mix = composeSems
	if n := drv.Poll(c.deliver); n != 1 || c.soft != 1 {
		t.Fatalf("polled %d packets, %d from software; want the one parked packet, from software", n, c.soft)
	}
	if got := drv.Hardening().Quarantined; got != 1 {
		t.Fatalf("the parked packet was judged again at delivery: quarantined = %d", got)
	}
}

// TestDegradedRestoresActiveGeneration: a hang on generation ≥ 1 degrades
// the driver; renegotiation is inert until the watchdog has restored the
// device, and what it restores is the active generation's configuration.
func TestDegradedRestoresActiveGeneration(t *testing.T) {
	drv := openComposed(t, HardenOptions{DegradeThreshold: 2, MaxResetBackoff: 8})
	inj := faults.New(faults.Plan{Seed: 9})
	drv.InjectFaults(inj)
	packets := hardPackets(1024)
	c := newComposeChecker(t, drv, packets)
	i := 0
	run := func(n int) {
		for end := i + n; i < end; i++ {
			if !drv.Rx(packets[i]) {
				t.Fatalf("rx %d refused", i)
			}
			drv.Poll(c.deliver)
		}
	}
	run(256)
	if !c.renegotiate(drv) || drv.Evolution().Generation != 1 {
		t.Fatal("the rss-heavy mix should have moved the driver to generation 1")
	}
	run(1) // Poll publishes the new generation's Result

	c.mix = composeMixes[1] // a mix that would switch back, were the device healthy
	inj.ScriptHang(24)
	sawDegraded := false
	for drv.Hardening().HardwareRestores == 0 {
		if i == len(packets) {
			t.Fatalf("no hardware restore: %+v", drv.Hardening())
		}
		run(1)
		if drv.Hardening().Degraded {
			sawDegraded = true
			if switched, err := drv.engine.Renegotiate(); switched || err != nil {
				t.Fatalf("Renegotiate while degraded = %v/%v, want inert", switched, err)
			}
		}
	}
	if !sawDegraded || drv.Evolution().Generation != 1 {
		t.Fatalf("degraded seen %v, generation %d; want a degraded spell spent on generation 1", sawDegraded, drv.Evolution().Generation)
	}
	ap, err := drv.q.Dev().ActivePath()
	if err != nil || ap.ID != drv.Result.Selected.Path.ID {
		t.Fatalf("restored device resolves path %v (%v), generation 1 selected path %d", ap, err, drv.Result.Selected.Path.ID)
	}

	run(128)
	if !c.renegotiate(drv) {
		t.Fatal("renegotiation should resume once the device is restored")
	}
	run(64)
	if c.next != i || drv.PendingPackets() != 0 {
		t.Fatalf("delivered %d of %d accepted", c.next, i)
	}
}

// TestEvolvingSwitchoverThroughOneRing: the device is built once, with a ring
// whose stride is its description's largest path, and every generation an
// evolving driver moves through is read out of that ring — on e1000e between
// its two 11-byte layouts, on qdma between the 8-byte and the 64-byte
// completion. Every packet is delivered exactly once, in order, golden,
// under the generation it was DMAed in.
func TestEvolvingSwitchoverThroughOneRing(t *testing.T) {
	for _, c := range []struct {
		nic   string
		sems  []string
		mixes [2][]string
	}{
		{"e1000e", composeSems, composeMixes},
		{"qdma", []string{"payload_hash", "flow_id", "pkt_len"}, [2][]string{{"flow_id", "pkt_len"}, {"payload_hash", "flow_id", "pkt_len"}}},
	} {
		t.Run(c.nic, func(t *testing.T) {
			intent, err := NewIntent("one_ring", c.sems...)
			if err != nil {
				t.Fatal(err)
			}
			drv, err := OpenWith(c.nic, intent, OpenOptions{
				Evolve: &EvolveOptions{Interval: 1 << 30, MinWindow: 64, MinShimSamples: math.MaxUint64},
			})
			if err != nil {
				t.Fatal(err)
			}
			paths, err := drv.q.Dev().Model.Paths()
			if err != nil {
				t.Fatal(err)
			}
			smallest, largest := paths[0].SizeBytes(), paths[0].SizeBytes()
			for _, p := range paths {
				smallest, largest = min(smallest, p.SizeBytes()), max(largest, p.SizeBytes())
			}
			ring := drv.q.Dev().CmptRing
			if ring.EntrySize() != (largest+7)&^7 {
				t.Fatalf("ring stride %d B for a largest path of %d B", ring.EntrySize(), largest)
			}

			ck := newComposeChecker(t, drv, hardPackets(2048))
			ck.sems, ck.mix = c.sems, c.mixes[0]
			sizes, ids := map[int]bool{}, map[int]bool{}
			ck.drive(drv, c.mixes, func() {
				sizes[drv.CompletionBytes()], ids[drv.Result.Selected.Path.ID] = true, true
			})
			if ev := drv.Evolution(); ev.Switchovers < 3 || ev.SwitchDrops != 0 || ev.Rollbacks != 0 || ev.PacketsDrained == 0 {
				t.Fatalf("want ≥ 3 clean switchovers with packets in flight, got %+v", ev)
			}
			if !sizes[smallest] || !sizes[largest] || len(ids) < 2 {
				t.Errorf("visited completion sizes %v (paths %v), want the smallest (%d B) and the largest (%d B)", sizes, ids, smallest, largest)
			}
			if drv.q.Dev().CmptRing != ring {
				t.Error("a switchover replaced the completion ring")
			}
		})
	}
}
