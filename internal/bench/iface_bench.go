package bench

import (
	"fmt"
	"math"
	"time"

	"opendesc/internal/core"
	"opendesc/internal/iface"
	"opendesc/internal/nic"
	"opendesc/internal/perf"
	"opendesc/internal/pkt"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/workload"
)

// IfaceApps are the two applications of the interface-model comparison:
// payload-touch needs no metadata (Enso's home turf); hash-lb needs the RSS
// hash (where descriptor-less streaming "collapses", §2).
var IfaceApps = []string{"payload-touch", "hash-lb"}

// NewInterfaces constructs the three interface models for the E11 workload.
func NewInterfaces(packets int) ([]iface.Interface, [][]byte, error) {
	m := nic.MustLoad("mlx5")
	intent, err := core.IntentFromSemantics("lb", semantics.Default,
		semantics.RSS, semantics.PktLen)
	if err != nil {
		return nil, nil, err
	}
	res, err := m.Compile(intent, core.CompileOptions{})
	if err != nil {
		return nil, nil, err
	}
	soft := softnic.Funcs()
	spec := workload.DefaultSpec()
	spec.Packets = packets
	spec.VLANFraction = 0
	tr, err := workload.Generate(spec)
	if err != nil {
		return nil, nil, err
	}
	ringed, err := iface.NewRinged(m, res, soft, packets*2)
	if err != nil {
		return nil, nil, err
	}
	batched, err := iface.NewBatched(m, res, soft, 32, packets)
	if err != nil {
		return nil, nil, err
	}
	streamed := iface.NewStreamed(tr.TotalBytes() + 4096)
	return []iface.Interface{ringed, batched, streamed}, tr.Packets, nil
}

// IfaceHandler returns the host-side handler for one of the IfaceApps.
// The returned *uint64 is the sink defeating dead-code elimination.
func IfaceHandler(app string) (iface.Handler, *uint64) {
	sink := new(uint64)
	switch app {
	case "payload-touch":
		return func(p []byte, _ iface.MetaFunc) {
			// Touch the first payload bytes (constant work per packet).
			if len(p) >= pkt.EthHeaderLen+8 {
				for _, b := range p[pkt.EthHeaderLen : pkt.EthHeaderLen+8] {
					*sink += uint64(b)
				}
			}
		}, sink
	case "hash-lb":
		soft := softnic.Funcs()[semantics.RSS]
		return func(p []byte, meta iface.MetaFunc) {
			h, ok := meta(semantics.RSS)
			if !ok {
				h = soft(p) // streaming model: recompute in software
			}
			*sink += h
		}, sink
	}
	panic("unknown iface app " + app)
}

// MeasurePoll times the host-side Poll of an interface model, re-delivering
// the trace outside the timed region. The fastest round is reported
// (minimum-of-rounds is robust to scheduler noise from concurrent work).
func MeasurePoll(ifc iface.Interface, packets [][]byte, h iface.Handler, minDur time.Duration) (float64, error) {
	var total time.Duration
	best := math.Inf(1)
	for total < minDur {
		if err := ifc.Deliver(packets); err != nil {
			return 0, err
		}
		start := time.Now()
		c := ifc.Poll(h)
		d := time.Since(start)
		total += d
		if c != len(packets) {
			return 0, fmt.Errorf("iface %s polled %d of %d", ifc.Name(), c, len(packets))
		}
		if ns := float64(d.Nanoseconds()) / float64(c); ns < best {
			best = ns
		}
	}
	return best, nil
}

// E11Interfaces compares the three candidate driver-datapath interface
// models (§5): per-packet rings, ASNI-style batched frames, and Enso-style
// descriptor-less streaming. The expected shape mirrors the papers cited in
// §2: streaming wins for raw payload processing (ENSO's 6× claim) but pays
// to recompute NIC-computed metadata the application needs (a collapse when
// that is expensive in software; a table-driven Toeplitz is not, EXPERIMENTS
// E11), while the batched model keeps metadata inline at a fraction of the
// ring overhead.
func E11Interfaces(packets int, minDur time.Duration) (*Table, error) {
	if packets <= 0 {
		packets = 512
	}
	if minDur <= 0 {
		minDur = 20 * time.Millisecond
	}
	ifaces, tr, err := NewInterfaces(packets)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "E11",
		Title: "Interface models for a synthesized driver datapath (§5, ns/packet)",
		Note: "ringed: per-packet completion ring; batched: ASNI-style frames\n" +
			"(metadata inline); streamed: Enso-style raw byte stream (no descriptors\n" +
			"— metadata must be recomputed in software).",
		Header: []string{"app", "model", "desc-B/pkt", "ns/pkt"},
		Record: newPerfRecord("e11_iface", "E11",
			"Interface models for a synthesized driver datapath (ns/packet)", packets, minDur),
	}
	for _, ifc := range ifaces {
		t.Record.AddValue("desc_bytes/"+ifc.Name(), "bytes",
			float64(ifc.PerPacketDescriptorBytes()), perf.Info)
	}
	for _, app := range IfaceApps {
		for _, ifc := range ifaces {
			h, sink := IfaceHandler(app)
			ns, err := MeasurePoll(ifc, tr, h, minDur)
			if err != nil {
				return nil, err
			}
			_ = sink
			t.AddRow(app, ifc.Name(), ifc.PerPacketDescriptorBytes(), ns)
			addTiming(t.Record, "poll/"+app+"/"+ifc.Name(), "ns/pkt", ns)
		}
	}
	return t, nil
}
