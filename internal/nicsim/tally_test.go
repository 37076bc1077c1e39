package nicsim

import (
	"bufio"
	"maps"
	"strconv"
	"strings"
	"testing"

	"opendesc/internal/faults"
	"opendesc/internal/obs"
	"opendesc/internal/pkt"
	"opendesc/internal/semantics"
)

// perPacket counts as the device once did, packet by packet: one run per
// engine a packet ran (a bit of have) and, for a packet whose record reached
// the ring, one completion on the path its decisions take and the path's
// record size. It is the oracle of the device's counts by route and engine
// set.
type perPacket struct {
	offloads          map[semantics.Name]uint64
	paths             map[int]uint64
	accepted, cmptLen uint64
}

func newPerPacket() *perPacket {
	return &perPacket{offloads: map[semantics.Name]uint64{}, paths: map[int]uint64{}}
}

// rx receives p on d, counts it, and empties the ring.
func (r *perPacket) rx(t testing.TB, d *Device, p []byte) {
	// A packet refused before its decisions runs no engine and leaves have
	// as the last packet left it.
	d.have = fixedSlots
	lost := d.lostCmpts.Load()
	ok := d.RxPacket(p)
	for slot, e := range engines {
		if d.have>>slot&1 != 0 {
			r.offloads[e.Semantic()]++
		}
	}
	if ok {
		r.accepted++
	}
	if ok && d.lostCmpts.Load() == lost {
		// The decisions again, on the values the packet cached: no engine
		// runs twice.
		path, err := d.route(d)
		if err != nil {
			t.Errorf("an accepted packet has no route: %v", err)
			return
		}
		r.paths[d.paths[path].ID]++
		r.cmptLen += uint64(d.routes[path].size)
	}
	for d.CmptRing.Consume(func([]byte) {}) {
	}
}

// check compares the device's derived counts with the reference.
func (r *perPacket) check(t testing.TB, st DeviceStats) {
	t.Helper()
	if !maps.Equal(st.Offloads, r.offloads) {
		t.Errorf("offloads: device %v, per packet %v", st.Offloads, r.offloads)
	}
	if !maps.Equal(st.CompletionsByPath, r.paths) {
		t.Errorf("completions by path: device %v, per packet %v", st.CompletionsByPath, r.paths)
	}
	if st.RxPackets != r.accepted || st.CompletionBytes != r.cmptLen {
		t.Errorf("rx %d, completion bytes %d; per packet %d, %d", st.RxPackets, st.CompletionBytes, r.accepted, r.cmptLen)
	}
}

// newDatadep builds datadep, whose decisions read the packet, so a path's
// engine set changes with it, under drops, duplicates and corruption.
// Replays stay out: they resize records, which the reference does not see.
func newDatadep(t testing.TB) *Device {
	d := MustNew(handWrittenModel(t, "datadep"), Config{RingEntries: 8})
	inj, err := faults.Parse("drop=0.05,dup=0.05,corrupt=0.05", 5)
	if err != nil {
		t.Fatal(err)
	}
	d.InjectFaults(inj)
	return d
}

// datadepTrace is differentialTrace with, after every eighth frame, one
// that fails datadep's `ptype != 0 && port < 1000` at its second operand: an
// untagged TCP frame whose destination port reads 1010 in the 10-bit field.
// A frame with no ptype fails it at the first, without running the port
// engine, so the path that does not emit ptype sees two engine sets.
func datadepTrace(t testing.TB) [][]byte {
	highPort := pkt.NewBuilder().WithTCP(40000, 1010, 0x18).WithPayload([]byte("x")).Build()
	var out [][]byte
	for i, p := range differentialTrace(t) {
		if out = append(out, p); i%8 == 7 {
			out = append(out, highPort)
		}
	}
	return out
}

// runDatadep receives the trace on d through the reference: the first
// quarter unprogrammed (its last decision reads a register never written, so
// every packet is refused after engines ran), then with each value of
// ctx.fmt.
func runDatadep(t testing.TB, d *Device, ref *perPacket, trace [][]byte) {
	for i, p := range trace {
		switch i {
		case len(trace) / 4:
			d.WriteReg("ctx.fmt", 0)
		case len(trace) / 2:
			d.WriteReg("ctx.fmt", 1)
		}
		ref.rx(t, d, p)
	}
}

// TestCountsByRouteMatchPerPacketCounts: on a description whose engine set
// varies within a path, every count the device derives from its routes'
// hits and its tallies is what counting each engine run and each completion
// per packet gives — the tallies of completions apart from their route and
// of packets that completed nowhere included.
func TestCountsByRouteMatchPerPacketCounts(t *testing.T) {
	d, ref := newDatadep(t), newPerPacket()
	runDatadep(t, d, ref, datadepTrace(t))
	ref.check(t, d.Stats())
	var apart, nowhere int
	for _, r := range *d.apart.Load() {
		if r.path < 0 {
			nowhere++
		} else {
			apart++
		}
	}
	if apart == 0 || nowhere == 0 || ref.accepted == 0 {
		t.Errorf("%d completions tallied apart, %d tallies of packets that completed nowhere, %d accepted: the comparison is vacuous",
			apart, nowhere, ref.accepted)
	}
}

// TestDerivedCountsNeverDecrease scrapes Stats and the metrics text from a
// second goroutine while the device receives, and new engine sets, hence new
// tallies, appear mid-run (run under -race; make alloc-gate does). Every
// series must be non-decreasing at every scrape, and the final counts must
// equal the per-packet reference.
func TestDerivedCountsNeverDecrease(t *testing.T) {
	// The mix changes mid-run: the first half of the trace repeats one frame.
	mix := datadepTrace(t)
	trace := make([][]byte, 0, 16*len(mix))
	for range 8 * len(mix) {
		trace = append(trace, mix[0])
	}
	for range 8 {
		trace = append(trace, mix...)
	}
	d, ref, reg := newDatadep(t), newPerPacket(), obs.NewRegistry()
	d.RegisterMetrics(reg, obs.L("queue", "0"))
	done := make(chan struct{})
	go func() {
		defer close(done)
		runDatadep(t, d, ref, trace)
	}()
	last := map[string]uint64{}
	note := func(series string, v uint64) {
		if v < last[series] {
			t.Errorf("%s fell from %d to %d", series, last[series], v)
		}
		last[series] = v
	}
	scrape := func() {
		st := d.Stats()
		note("rx", st.RxPackets)
		note("cmpt_bytes", st.CompletionBytes)
		for id, n := range st.CompletionsByPath {
			note("path"+strconv.Itoa(id), n)
		}
		for sem, n := range st.Offloads {
			note("offload "+string(sem), n)
		}
		var sb strings.Builder
		reg.WritePrometheus(&sb)
		sc := bufio.NewScanner(strings.NewReader(sb.String()))
		for sc.Scan() {
			series, val, ok := strings.Cut(sc.Text(), " ")
			if !ok || strings.HasPrefix(series, "#") || strings.Contains(series, "occupancy") {
				continue
			}
			v, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", sc.Text(), err)
			}
			note(series, v)
		}
	}
	var scrapes int
	for running := true; running; scrapes++ {
		select {
		case <-done:
			running = false
		default:
		}
		scrape()
	}
	ref.check(t, d.Stats())
	series := `opendesc_dev_rx_packets_total{nic="datadep",queue="0"}`
	if last[series] != ref.accepted {
		t.Errorf("%s = %d after the run, want %d", series, last[series], ref.accepted)
	}
	t.Logf("%d scrapes, %d tallies", scrapes, len(*d.apart.Load()))
}
