package nicsim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/faults"
	"opendesc/internal/nic"
	"opendesc/internal/p4/ast"
	"opendesc/internal/p4/interp"
	"opendesc/internal/p4/sema"
	"opendesc/internal/pkt"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/workload"
)

// reference is the eager serializer the device used before its value plumbing
// became a slot table: every engine runs for every packet into a map keyed by
// semantic, a string-keyed environment is rebuilt from it (context registers
// first, field values over them), and the P4 interpreter runs the deparser's
// apply block over it. It shares no code with the device — not the CFG, not
// its decision tree, not its register slots: it keeps its own record of the
// register writes (write, configure) — and is kept as the oracle the
// on-demand path is compared against. It credits each record to the
// enumerated path that describes it (taken).
type reference struct {
	dev       *Device
	dp        *interp.Deparser
	ctx       *sema.BoundParam // the context parameter
	regs      sema.MapEnv      // the registers written, by dotted name
	envFields []refField
	pathHits  map[int]uint64
}

type refField struct {
	name  string
	sem   semantics.Name
	width int
}

func newReference(t *testing.T, dev *Device) *reference {
	dp, err := interp.NewDeparser(dev.graph.Info(), dev.graph.Instance())
	if err != nil {
		t.Fatal(err)
	}
	r := &reference{dev: dev, dp: dp, regs: make(sema.MapEnv), pathHits: make(map[int]uint64)}
	inst := dev.graph.Instance()
	for i, p := range inst.Control.Params {
		if nt, ok := p.Type.(*ast.NamedType); ok && nt.Name == inst.Control.TypeParams[0].Name {
			r.ctx = inst.Params[i]
		}
	}
	for _, p := range inst.Params {
		if ct, ok := p.Type.(*sema.CompositeType); ok && p != r.ctx {
			r.flatten(p.Name, ct)
		}
	}
	return r
}

// write records a register write as sema declares the register: the value
// masked to the field's width, a bool as a truth value. A name that is no
// field of the context parameter is not recorded.
func (r *reference) write(name string, v uint64) {
	reg, ok := strings.CutPrefix(name, r.ctx.Name+".")
	f := r.ctx.Type.(*sema.CompositeType).Field(reg)
	if !ok || f == nil || f.Type.BitWidth() <= 0 || f.Type.BitWidth() > 64 {
		return
	}
	if _, isBool := f.Type.(*sema.BoolType); isBool {
		r.regs[name] = sema.BoolValue(v&1 != 0)
		return
	}
	r.regs[name] = sema.UintValue(v&(^uint64(0)>>(64-f.Type.BitWidth())), f.Type.BitWidth())
}

// configure records the register writes ApplyConfig makes for cons.
func (r *reference) configure(t *testing.T, cons []core.Constraint) {
	vals, err := core.ConfigAssignment(cons)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range vals {
		r.write(name, v)
	}
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

// computeOffloads runs every golden reference engine over the packet. It
// computes what it can of the values itself — the parse-error and checksum
// flags, the levels, the depth, the tunnel flags, the device constants — and
// calls softnic only for the hash and key kernels; softnic's rows are what
// it checks.
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
		// The inner frame follows the 8-byte VXLAN header: 1 when it decodes
		// and any inner IPv4 header verifies, else 2.
		vals[semantics.InnerCsum] = 2
		var inner pkt.Info
		if p := in.Payload(); len(p) >= 8+pkt.EthHeaderLen && pkt.Decode(p[8:], &inner) == nil {
			vals[semantics.InnerCsum] = 1
			if inner.L3 == pkt.L3IPv4 && inner.L3Off >= 0 {
				hdr := inner.Data[inner.L3Off:]
				if ihl := int(hdr[0]&0x0F) * 4; ihl < pkt.IPv4MinLen || inner.L3Off+ihl > len(inner.Data) || !pkt.VerifyIPv4Header(hdr[:ihl]) {
					vals[semantics.InnerCsum] = 2
				}
			}
		}
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

// TestReferenceComputesEveryRow: on a tunnelled frame the eager reference
// computes a value for every row of softnic's table, so a row the device
// gains is a row the reference checks.
func TestReferenceComputesEveryRow(t *testing.T) {
	tr, err := workload.Generate(workload.Spec{Packets: 1, Flows: 1, PayloadBytes: 32, TunnelFraction: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := &reference{dev: MustNew(nic.MustLoad("e1000"), Config{})}
	vals := ref.computeOffloads(tr.Packets[0], 1)
	for _, row := range softnic.Rows() {
		if _, ok := vals[row.Semantic()]; !ok {
			t.Errorf("the reference computes no %s", row.Semantic())
		}
	}
	if vals[semantics.InnerCsum] != 1 {
		t.Errorf("inner_csum of a well-formed tunnelled frame = %d, want 1", vals[semantics.InnerCsum])
	}
}

// buildEnv maps every semantic-tagged field of the deparser's composite
// parameters to its computed value, over the context registers.
func (r *reference) buildEnv(vals map[semantics.Name]uint64) sema.MapEnv {
	env := make(sema.MapEnv)
	for k, v := range r.regs {
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
// clock: the completion record and the path that describes it, or nil when
// the device must drop the packet.
func (r *reference) rx(packet []byte, clock uint64) ([]byte, *core.Path) {
	var rec interp.Record
	env := r.buildEnv(r.computeOffloads(packet, clock))
	if err := r.dp.RunInto(&rec, env); err != nil || rec.Bits > maxCompletionBytes*8 {
		return nil, nil
	}
	return rec.Image, r.taken(&rec, env)
}

// taken is the first enumerated path whose layout is the record's fields, in
// order, and whose constraints hold in env: the path the packet took, even
// where the deparser branches on the packet rather than on a register.
func (r *reference) taken(rec *interp.Record, env sema.MapEnv) *core.Path {
	for _, p := range r.dev.paths {
		if len(p.Fields) != len(rec.Fields) {
			continue
		}
		ok := true
		for i, f := range p.Fields {
			ok = ok && f.Name == rec.Fields[i].Name && f.WidthBits == rec.Fields[i].WidthBits
		}
		for _, c := range p.Constraints {
			v, set := env[c.Var]
			ok = ok && set && v.Equal(c.Val) == c.Equal
		}
		if ok {
			return p
		}
	}
	return nil
}

// handWritten holds the descriptions under testdata, by file name without
// ".p4": what the bundled NICs do not exercise — decisions on per-packet
// metadata, a semantic no engine computes, context registers in the record,
// bool registers, the tunnel engines. diffverify's tests and CI's
// diff-smoke job verify the same files.
var handWritten = func() map[string]string {
	files, err := filepath.Glob(filepath.Join("testdata", "*.p4"))
	if err != nil || len(files) == 0 {
		panic(fmt.Sprintf("no hand-written descriptions under testdata: %v", err))
	}
	out := make(map[string]string, len(files))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			panic(err)
		}
		out[strings.TrimSuffix(filepath.Base(f), ".p4")] = string(src)
	}
	return out
}()

func handWrittenModel(t testing.TB, name string) *nic.Model {
	t.Helper()
	m, err := nic.Parse(name+".p4", handWritten[name])
	if err != nil {
		t.Fatal(err)
	}
	return m
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
// path of every bundled NIC and of the hand-written descriptions, once clean
// and once under a seeded fault plan that corrupts, truncates, replays,
// duplicates and drops completions, and requires the device and the eager
// reference to agree on everything the host can observe: verdict, record
// length, record bytes, per-path completions.
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
			for _, spec := range []string{"", faultSpec} {
				name := fmt.Sprintf("%s/path%d", m.Name, path.ID)
				if spec != "" {
					name += "/faults"
				}
				t.Run(name, func(t *testing.T) {
					if differential(t, m, path.Constraints, trace, spec) == 0 {
						t.Error("a programmed device accepted nothing: the comparison is vacuous")
					}
				})
			}
		}
		// No register programmed: every NIC but e1000 refuses each packet
		// at its first context branch, and both sides must say so.
		t.Run(m.Name+"/unprogrammed", func(t *testing.T) { differential(t, m, nil, trace, "") })
	}
	if bundledPaths != 18 {
		t.Errorf("covered %d bundled completion paths, want 18", bundledPaths)
	}
}

// faultSpec is the seeded plan the faulty comparisons run under.
const faultSpec = "corrupt=0.1,bits=3,truncate=0.05,replay=0.05,dup=0.05,drop=0.05"

// differential receives the trace on a device programmed from cons and on
// the reference, and returns how many packets both accepted. Under a fault
// spec the device gets a seeded injector, and the reference's records pass
// through a second injector of the same seed, consulted in the device's
// order: a tick per packet, then the completion.
func differential(t *testing.T, m *nic.Model, cons []core.Constraint, trace [][]byte, spec string) uint64 {
	dev := MustNew(m, Config{QueueID: 3, RingEntries: 8})
	ref := newReference(t, dev)
	if err := dev.ApplyConfig(cons); err != nil {
		t.Fatal(err)
	}
	ref.configure(t, cons)
	// A register no constraint names, so emitted context fields carry
	// something other than zero.
	dev.WriteReg("ctx.qtag", 0x1A5) // wider than the 8-bit field
	ref.write("ctx.qtag", 0x1A5)
	var inj *faults.Injector
	if spec != "" {
		var err error
		if inj, err = faults.Parse(spec, 7); err != nil {
			t.Fatal(err)
		}
		devInj, _ := faults.Parse(spec, 7)
		dev.InjectFaults(devInj)
	}
	for i, p := range trace {
		var want [][]byte // the records the device must publish, in order
		accepted := !inj.Tick()
		if accepted {
			rec, path := ref.rx(p, dev.clock+timestampStep)
			if accepted = rec != nil; accepted {
				rec, extra := inj.Completion(rec)
				for _, r := range [][]byte{rec, extra} {
					if r != nil {
						want = append(want, append([]byte(nil), r...))
					}
				}
				if rec != nil && path != nil {
					ref.pathHits[path.ID]++
				}
			}
		}
		dmaBefore := dev.cmptBytes.Load()
		if ok := dev.RxPacket(p); ok != accepted {
			t.Fatalf("packet %d: device accepted=%v, reference accepted=%v", i, ok, accepted)
		}
		// A ring entry is the record zero-padded to the entry size; the
		// record's own length is what the DMA counter advanced by.
		if n := int(dev.cmptBytes.Load() - dmaBefore); len(want) > 0 && n != len(want[0]) {
			t.Fatalf("packet %d: device DMAed %d B, reference %d B", i, n, len(want[0]))
		}
		var got [][]byte
		for dev.CmptRing.Len() > 0 {
			dev.CmptRing.Consume(func(e []byte) { got = append(got, append([]byte(nil), e...)) })
		}
		if len(got) != len(want) {
			t.Fatalf("packet %d: device published %d records, reference %d", i, len(got), len(want))
		}
		for j, w := range want {
			if g := got[j]; !bytes.Equal(g, append(w, make([]byte, len(g)-len(w))...)) {
				t.Fatalf("packet %d record %d:\n device    %x\n reference %x", i, j, g, w)
			}
		}
	}
	st := dev.Stats()
	if !reflect.DeepEqual(st.CompletionsByPath, ref.pathHits) {
		t.Errorf("completions by path: device %v, reference %v", st.CompletionsByPath, ref.pathHits)
	}
	if st.RxPackets+st.Drops != uint64(len(trace)) {
		t.Errorf("accepted %d + dropped %d of %d packets", st.RxPackets, st.Drops, len(trace))
	}
	if spec != "" && dev.Faults().Stats().Total() == 0 {
		t.Error("no fault was injected: the faulty comparison is vacuous")
	}
	return st.RxPackets
}
