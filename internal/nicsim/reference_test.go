package nicsim

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"opendesc/internal/bitfield"
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/p4/parser"
	"opendesc/internal/p4/sema"
	"opendesc/internal/pkt"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/workload"
)

// reference is the eager serializer the device used before its value plumbing
// became a slot table: every engine runs for every packet into a map keyed by
// semantic, a string-keyed environment is rebuilt from it (context registers
// first, field values over them), and every emitted field is looked up by
// name. It shares only the CFG walk's step with the device and is kept as the
// oracle the on-demand path is compared against.
type reference struct {
	dev       *Device
	envFields []refField
	pathHits  map[int]uint64
}

type refField struct {
	name  string
	sem   semantics.Name
	width int
}

func newReference(dev *Device) *reference {
	r := &reference{dev: dev, pathHits: make(map[int]uint64)}
	for _, p := range dev.graph.Instance().Params {
		ct, ok := p.Type.(*sema.CompositeType)
		if !ok || strings.Contains(p.Name, "ctx") {
			continue
		}
		r.flatten(p.Name, ct)
	}
	return r
}

func (r *reference) flatten(prefix string, ct *sema.CompositeType) {
	for _, f := range ct.Fields {
		name := prefix + "." + f.Name
		if nested, ok := f.Type.(*sema.CompositeType); ok {
			r.flatten(name, nested)
			continue
		}
		if w := f.Type.BitWidth(); w > 0 && w <= 64 {
			r.envFields = append(r.envFields, refField{name: name, sem: semantics.Name(f.Semantic), width: w})
		}
	}
}

// computeOffloads runs every golden reference engine over the packet.
func (r *reference) computeOffloads(packet []byte, clock uint64) map[semantics.Name]uint64 {
	cfg := r.dev.cfg
	in := new(pkt.Info)
	decodeOK := pkt.Decode(packet, in) == nil
	vals := make(map[semantics.Name]uint64, 32)
	vals[semantics.PktLen] = uint64(len(packet))
	vals[semantics.Timestamp] = clock
	vals[semantics.QueueID] = uint64(cfg.QueueID)
	vals[semantics.Mark] = 0
	vals[semantics.CryptoCtx] = 0
	vals[semantics.LROSegs] = 1
	vals[semantics.SegCnt] = 1
	vals[semantics.RXDropHint] = 0
	// The VLAN tag is read wherever it decoded, even if the parser gave up
	// further in.
	vals[semantics.VLAN] = uint64(softnic.VLANTCI(in))
	if !decodeOK {
		vals[semantics.ErrorFlags] = 0x80 // parse error
		return vals
	}
	vals[semantics.RSS] = uint64(softnic.RSS(in))
	vals[semantics.IPChecksum] = uint64(softnic.IPChecksum(in))
	vals[semantics.L4Checksum] = uint64(softnic.L4Checksum(in))
	vals[semantics.PType] = uint64(softnic.PType(in))
	vals[semantics.FlowID] = uint64(softnic.FlowID(in))
	vals[semantics.IPID] = uint64(in.IPID)
	vals[semantics.KVKey] = softnic.KVKey(in)
	vals[semantics.PayloadHash] = uint64(softnic.PayloadHash(in))
	vals[semantics.TunnelID] = uint64(softnic.TunnelID(in))
	vals[semantics.L4Port] = uint64(in.DstPort)
	if vals[semantics.TunnelID] != 0 {
		vals[semantics.DecapFlag] = 1
	}
	var errFlags uint64
	if in.L3 == pkt.L3IPv4 && in.L3Off >= 0 {
		hdr := in.Data[in.L3Off:]
		ihl := int(hdr[0]&0x0F) * 4
		if ihl >= pkt.IPv4MinLen && in.L3Off+ihl <= len(in.Data) && !pkt.VerifyIPv4Header(hdr[:ihl]) {
			errFlags |= 1
		}
	}
	if (in.L4 == pkt.L4TCP || in.L4 == pkt.L4UDP) && !pkt.VerifyL4(in) {
		errFlags |= 2
	}
	vals[semantics.ErrorFlags] = errFlags
	lvl := uint64(0)
	if in.L3 == pkt.L3IPv4 {
		lvl = 1
	}
	if in.L4 == pkt.L4TCP || in.L4 == pkt.L4UDP {
		lvl = 2
	}
	vals[semantics.ChecksumAny] = lvl
	depth := uint64(1)
	if in.L3 != pkt.L3None {
		depth++
	}
	if in.L4 != pkt.L4None {
		depth++
	}
	vals[semantics.ParserDepth] = depth
	return vals
}

// buildEnv maps every semantic-tagged field of the deparser's composite
// parameters to its computed value, over the context registers.
func (r *reference) buildEnv(vals map[semantics.Name]uint64) sema.MapEnv {
	env := make(sema.MapEnv)
	for k, v := range r.dev.ctx {
		env[k] = v
	}
	for _, f := range r.envFields {
		var v uint64
		if f.sem != "" {
			v = vals[f.sem]
			if f.width < 64 {
				v &= (uint64(1) << f.width) - 1
			}
		}
		env[f.name] = sema.UintValue(v, f.width)
	}
	return env
}

// rx is the reference verdict for one packet received at the given device
// clock: the completion record, or nil when the device must drop the packet.
func (r *reference) rx(packet []byte, clock uint64) []byte {
	env := r.buildEnv(r.computeOffloads(packet, clock))
	dst := make([]byte, maxCompletionBytes)
	g := r.dev.graph
	node, offBits := g.Entry, 0
	for steps := 0; node.Kind != core.NodeExit; steps++ {
		if steps > 10000 {
			return nil
		}
		if node.Kind == core.NodeEmit {
			for _, f := range node.Emit.Fields {
				if offBits+f.WidthBits > len(dst)*8 {
					return nil
				}
				if f.WidthBits <= 64 {
					var v uint64
					if val, ok := env.Lookup(f.Name); ok {
						v = val.Uint
					}
					bitfield.Write(dst, offBits, f.WidthBits, v)
				}
				offBits += f.WidthBits
			}
		}
		next, err := step(node, env, g.Info())
		if err != nil {
			return nil
		}
		node = next
	}
	if p, err := r.dev.ActivePath(); err == nil {
		r.pathHits[p.ID]++
	}
	return dst[:(offBits+7)/8]
}

// handWritten are descriptions the bundled NICs do not exercise: a branch on
// per-packet metadata (which the frontend records as a constraint on the field
// name, so ApplyConfig writes a register the field value must keep shadowing),
// a switch on per-packet metadata, a condition the frontend cannot decompose
// over a field narrower than its semantic (compared after truncation), a
// semantic no engine computes, and emits of context registers.
var handWritten = map[string]string{
	"datadep": `
struct dd_ctx_t { bit<2> fmt; }
struct dd_meta_t {
    @semantic("pkt_len")   bit<16> len;
    @semantic("vlan")      bit<16> tci;
    @semantic("rss")       bit<32> hash;
    @semantic("l4_dst_port") bit<10> port;
    @semantic("ptype")     bit<8>  ptype;
    @semantic("tunnel_id") bit<32> vni;
    @semantic("decap")     bit<1>  decap;
    bit<5> rsvd;
    @semantic("no_such_offload") bit<8> alien;
}
@bind("CTX_T", "dd_ctx_t")
@bind("META_T", "dd_meta_t")
control CmptDeparser<CTX_T, META_T>(cmpt_out cmpt_out, in CTX_T ctx, in META_T pipe_meta) {
    apply {
        cmpt_out.emit(pipe_meta.len);
        if (pipe_meta.tci == 0) {
            cmpt_out.emit(pipe_meta.hash);
        } else {
            cmpt_out.emit(pipe_meta.tci);
            cmpt_out.emit(pipe_meta.port);
        }
        switch (pipe_meta.decap) {
            1: { cmpt_out.emit(pipe_meta.vni); }
        }
        if (pipe_meta.ptype != 0 && pipe_meta.port < 1000) {
            cmpt_out.emit(pipe_meta.ptype);
        }
        if (ctx.fmt == 1) {
            cmpt_out.emit(pipe_meta.alien);
        }
        cmpt_out.emit(pipe_meta.decap);
        cmpt_out.emit(pipe_meta.rsvd);
    }
}
`,
	"ctxemit": `
struct ce_ctx_t { bit<8> qtag; bit<4> fmt; bit<4> rsvd; }
struct ce_meta_t {
    @semantic("pkt_len") bit<16> len;
    @semantic("kv_key")  bit<64> key;
}
@bind("CTX_T", "ce_ctx_t")
@bind("META_T", "ce_meta_t")
control CmptDeparser<CTX_T, META_T>(cmpt_out cmpt_out, in CTX_T ctx, in META_T pipe_meta) {
    apply {
        cmpt_out.emit(ctx.qtag);
        cmpt_out.emit(pipe_meta.len);
        if (ctx.fmt == 3) {
            cmpt_out.emit(pipe_meta.key);
            cmpt_out.emit(ctx);
        }
    }
}
`,
}

func handWrittenModel(t *testing.T, name string) *nic.Model {
	t.Helper()
	m, err := modelFromSource(name, handWritten[name])
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// modelFromSource builds an unregistered model from a P4 description.
func modelFromSource(name, src string) (*nic.Model, error) {
	prog, err := parser.Parse(name+".p4", src)
	if err != nil {
		return nil, err
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, err
	}
	return &nic.Model{Name: name, Source: src, Info: info}, nil
}

// differentialTrace mixes everything the engines branch on — VLAN, KV
// requests, tunnels, TCP and UDP, bad checksums — with frames the parser
// gives up on.
func differentialTrace(t *testing.T) [][]byte {
	t.Helper()
	var out [][]byte
	for seed, spec := range []workload.Spec{
		{Packets: 96, Flows: 17, PayloadBytes: 48, TCPFraction: 0.5, VLANFraction: 0.4, BadCsumFraction: 0.2},
		{Packets: 64, Flows: 5, PayloadBytes: 32, TCPFraction: 0.3, VLANFraction: 0.3, KVFraction: 0.6, TunnelFraction: 0.4},
	} {
		spec.Seed = int64(seed) + 11
		tr, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr.Packets...)
	}
	full := out[0]
	arp := append([]byte(nil), full...)
	arp[12], arp[13] = 0x08, 0x06
	out = append(out,
		full[:10],                      // shorter than an Ethernet header
		full[:20],                      // IPv4 header cut short
		full[:len(full)-30],            // L4 payload cut short
		arp,                            // not IP
		[]byte{},                       // nothing at all
		bytes.Repeat([]byte{0xFF}, 60), // noise
	)
	return out
}

// TestOnDemandMatchesEagerReference receives one trace on every completion
// path of every bundled NIC and of the hand-written descriptions, and
// requires the device and the eager reference to agree on everything the host
// can observe: verdict, record length, record bytes, per-path completions.
func TestOnDemandMatchesEagerReference(t *testing.T) {
	trace := differentialTrace(t)
	models := nic.All()
	for name := range handWritten {
		models = append(models, handWrittenModel(t, name))
	}
	bundledPaths := 0
	for _, m := range models {
		paths, err := m.Paths()
		if err != nil {
			t.Fatal(err)
		}
		if _, hand := handWritten[m.Name]; !hand {
			bundledPaths += len(paths)
		}
		for _, path := range paths {
			t.Run(fmt.Sprintf("%s/path%d", m.Name, path.ID), func(t *testing.T) {
				if differential(t, m, path.Constraints, trace) == 0 {
					t.Error("a programmed device accepted nothing: the comparison is vacuous")
				}
			})
		}
		// No register programmed: every NIC but e1000 refuses each packet
		// at its first context branch, and both sides must say so.
		t.Run(m.Name+"/unprogrammed", func(t *testing.T) { differential(t, m, nil, trace) })
	}
	if bundledPaths != 18 {
		t.Errorf("covered %d bundled completion paths, want 18", bundledPaths)
	}
}

// differential receives the trace on a device programmed from cons and on
// the reference, and returns how many packets both accepted.
func differential(t *testing.T, m *nic.Model, cons []core.Constraint, trace [][]byte) uint64 {
	dev := MustNew(m, Config{QueueID: 3, RingEntries: 8})
	if err := dev.ApplyConfig(cons); err != nil {
		t.Fatal(err)
	}
	// A register no constraint names, so emitted context fields carry
	// something other than zero.
	dev.WriteReg("ctx.qtag", 0x1A5) // wider than the 8-bit field
	ref := newReference(dev)
	for i, p := range trace {
		want := ref.rx(p, dev.clock+timestampStep)
		dmaBefore := dev.cmptBytes.Load()
		ok := dev.RxPacket(p)
		if ok != (want != nil) {
			t.Fatalf("packet %d: device accepted=%v, reference accepted=%v", i, ok, want != nil)
		}
		if !ok {
			continue
		}
		// The ring entry is the record zero-padded to the entry size; the
		// record's own length is what the DMA counter advanced by.
		n := int(dev.cmptBytes.Load() - dmaBefore)
		dev.CmptRing.Consume(func(e []byte) {
			if n != len(want) || !bytes.Equal(e, append(want, make([]byte, len(e)-len(want))...)) {
				t.Fatalf("packet %d:\n device    %d B %x\n reference %d B %x", i, n, e[:n], len(want), want)
			}
		})
	}
	st := dev.Stats()
	if !reflect.DeepEqual(st.CompletionsByPath, ref.pathHits) {
		t.Errorf("completions by path: device %v, reference %v", st.CompletionsByPath, ref.pathHits)
	}
	if st.RxPackets+st.Drops != uint64(len(trace)) {
		t.Errorf("accepted %d + dropped %d of %d packets", st.RxPackets, st.Drops, len(trace))
	}
	return st.RxPackets
}
