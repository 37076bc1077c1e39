package interp

import (
	"reflect"
	"strings"
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/p4/parser"
	"opendesc/internal/p4/sema"
	"opendesc/internal/pkt"
	"opendesc/internal/workload"
)

// pnaPacketParser is a PNA-style packet parser covering the protocols of the
// workload generator: Ethernet, single 802.1Q tag, IPv4/IPv6, TCP/UDP.
const pnaPacketParser = `
header ethernet_t {
    bit<48> dst;
    bit<48> src;
    bit<16> ether_type;
}
header vlan_t {
    bit<16> tci;
    bit<16> ether_type;
}
header ipv4_t {
    bit<8>  version_ihl;
    bit<8>  dscp;
    bit<16> total_len;
    bit<16> identification;
    bit<16> flags_frag;
    bit<8>  ttl;
    bit<8>  protocol;
    bit<16> hdr_checksum;
    bit<32> src_addr;
    bit<32> dst_addr;
}
header ipv6_t {
    bit<32>  ver_tc_flow;
    bit<16>  payload_len;
    bit<8>   next_hdr;
    bit<8>   hop_limit;
    bit<64>  src_hi;
    bit<64>  src_lo;
    bit<64>  dst_hi;
    bit<64>  dst_lo;
}
header tcp_t {
    bit<16> src_port;
    bit<16> dst_port;
    bit<32> seq;
    bit<32> ack;
    bit<8>  data_off_rsvd;
    bit<8>  flags;
    bit<16> window;
    bit<16> checksum;
    bit<16> urgent;
}
header udp_t {
    bit<16> src_port;
    bit<16> dst_port;
    bit<16> length;
    bit<16> checksum;
}
struct headers_t {
    ethernet_t ethernet;
    vlan_t     vlan;
    ipv4_t     ipv4;
    ipv6_t     ipv6;
    tcp_t      tcp;
    udp_t      udp;
}
struct null_ctx_t { bit<1> rsvd; }

@bind("CTX", "null_ctx_t")
@bind("H", "headers_t")
parser PacketParser<CTX, H>(
    packet_in pin,
    in CTX ctx,
    out H hdr)
{
    state start {
        pin.extract(hdr.ethernet);
        transition select(hdr.ethernet.ether_type) {
            0x8100: parse_vlan;
            0x88A8: parse_vlan;
            0x0800: parse_ipv4;
            0x86DD: parse_ipv6;
            default: accept;
        }
    }
    state parse_vlan {
        pin.extract(hdr.vlan);
        transition select(hdr.vlan.ether_type) {
            0x0800: parse_ipv4;
            0x86DD: parse_ipv6;
            default: accept;
        }
    }
    state parse_ipv4 {
        pin.extract(hdr.ipv4);
        transition select(hdr.ipv4.protocol) {
            6:  parse_tcp;
            17: parse_udp;
            default: accept;
        }
    }
    state parse_ipv6 {
        pin.extract(hdr.ipv6);
        transition select(hdr.ipv6.next_hdr) {
            6:  parse_tcp;
            17: parse_udp;
            default: accept;
        }
    }
    state parse_tcp {
        pin.extract(hdr.tcp);
        transition accept;
    }
    state parse_udp {
        pin.extract(hdr.udp);
        transition accept;
    }
}
`

func packetParser(t *testing.T) *Parser {
	t.Helper()
	prog, err := parser.Parse("pna.p4", pnaPacketParser)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := info.BindParser(prog.Parser("PacketParser"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(info, inst, "")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPacketParserMatchesGoDecoder cross-validates the P4 interpreter
// against the hand-written decoder over a full synthetic trace: both must
// agree on layers, addresses, ports and VLAN tags for every packet.
func TestPacketParserMatchesGoDecoder(t *testing.T) {
	p := packetParser(t)
	spec := workload.Spec{
		Packets: 300, Flows: 24, PayloadBytes: 48,
		TCPFraction: 0.5, VLANFraction: 0.4, TunnelFraction: 0.1,
		KVFraction: 0.1, Seed: 5,
	}
	tr := workload.MustGenerate(spec)
	var in pkt.Info
	for i, data := range tr.Packets {
		if err := pkt.Decode(data, &in); err != nil {
			t.Fatalf("pkt %d: go decode: %v", i, err)
		}
		res, err := p.Run(data, nil)
		if err != nil {
			t.Fatalf("pkt %d: interp: %v", i, err)
		}
		if !res.Accepted {
			t.Fatalf("pkt %d rejected: states %v", i, res.States)
		}
		if res.ValidHeaders["hdr.vlan"] != (in.VLANCount > 0) {
			t.Fatalf("pkt %d: vlan presence disagrees", i)
		}
		if in.VLANCount > 0 && res.Values["hdr.vlan.tci"] != uint64(in.OuterTCI()) {
			t.Fatalf("pkt %d: tci %#x vs %#x", i, res.Values["hdr.vlan.tci"], in.OuterTCI())
		}
		switch in.L3 {
		case pkt.L3IPv4:
			if !res.ValidHeaders["hdr.ipv4"] {
				t.Fatalf("pkt %d: ipv4 not parsed", i)
			}
			wantSrc := uint64(in.SrcIP[0])<<24 | uint64(in.SrcIP[1])<<16 | uint64(in.SrcIP[2])<<8 | uint64(in.SrcIP[3])
			if res.Values["hdr.ipv4.src_addr"] != wantSrc {
				t.Fatalf("pkt %d: src %#x vs %#x", i, res.Values["hdr.ipv4.src_addr"], wantSrc)
			}
			if res.Values["hdr.ipv4.identification"] != uint64(in.IPID) {
				t.Fatalf("pkt %d: ipid", i)
			}
		}
		switch in.L4 {
		case pkt.L4TCP:
			if res.Values["hdr.tcp.dst_port"] != uint64(in.DstPort) {
				t.Fatalf("pkt %d: tcp port", i)
			}
			if res.Values["hdr.tcp.flags"] != uint64(in.TCPFlags) {
				t.Fatalf("pkt %d: tcp flags", i)
			}
		case pkt.L4UDP:
			if res.Values["hdr.udp.dst_port"] != uint64(in.DstPort) {
				t.Fatalf("pkt %d: udp port", i)
			}
		}
	}
}

// TestRunIntoReusesResult: one Result carried across a mixed trace reads
// exactly what a fresh Run reads for every packet — nothing of a VLAN/TCP
// packet's headers, values or states survives into the untagged UDP packet
// after it — and once its maps have grown a run allocates nothing.
func TestRunIntoReusesResult(t *testing.T) {
	p := packetParser(t)
	tr := workload.MustGenerate(workload.Spec{
		Packets: 200, Flows: 16, PayloadBytes: 32,
		TCPFraction: 0.5, VLANFraction: 0.5, TunnelFraction: 0.1, Seed: 9,
	})
	var reused Result
	for i, data := range tr.Packets {
		if err := p.RunInto(&reused, data, nil); err != nil {
			t.Fatalf("pkt %d: %v", i, err)
		}
		fresh, err := p.Run(data, nil)
		if err != nil {
			t.Fatalf("pkt %d: %v", i, err)
		}
		if !reflect.DeepEqual(&reused, fresh) {
			t.Fatalf("pkt %d: reused result %+v, fresh %+v", i, reused, *fresh)
		}
	}
	// A truncated stream leaves the fields extracted so far, as Run does.
	short := tr.Packets[0][:20]
	fresh, ferr := p.Run(short, nil)
	if rerr := p.RunInto(&reused, short, nil); rerr == nil || ferr == nil || rerr.Error() != ferr.Error() {
		t.Fatalf("truncated stream: RunInto %v, Run %v", rerr, ferr)
	}
	if !reflect.DeepEqual(&reused, fresh) {
		t.Errorf("truncated stream: reused result %+v, fresh %+v", reused, *fresh)
	}
}

// TestRunIntoStraightLineAllocatesNothing: extract targets are bound at New,
// so a parser without select transitions (whose keys sema.Eval names per
// evaluation) runs into a warm Result without allocating.
func TestRunIntoStraightLineAllocatesNothing(t *testing.T) {
	prog, err := parser.Parse("flat.p4", `
header in_t { bit<4> a; bit<12> b; }
header rec_t { bit<8> kind; in_t inner; bit<64> wide; bit<96> skipped; }
parser P(desc_in din, out rec_t r) {
    state start { din.extract(r); transition accept; }
}`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := info.BindParser(prog.Parser("P"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(info, inst, "")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 23)
	data[0], data[1], data[2] = 0x7f, 0xab, 0xcd
	var res Result
	allocs := testing.AllocsPerRun(200, func() {
		if err := p.RunInto(&res, data, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("RunInto allocates %.2f per run with a warm Result, want 0", allocs)
	}
	want := map[string]uint64{"r.kind": 0x7f, "r.inner.a": 0xa, "r.inner.b": 0xbcd, "r.wide": 0}
	if !res.Accepted || res.BitsConsumed != 184 || !reflect.DeepEqual(res.Values, want) ||
		!reflect.DeepEqual(res.ValidHeaders, map[string]bool{"r": true, "r.inner": true}) {
		t.Errorf("result %+v", res)
	}
}

func TestPacketParserNonIPAccepts(t *testing.T) {
	p := packetParser(t)
	arp := pkt.NewBuilder().Build()
	arp[12], arp[13] = 0x08, 0x06
	res, err := p.Run(arp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || res.ValidHeaders["hdr.ipv4"] {
		t.Errorf("arp handling: accepted=%v headers=%v", res.Accepted, res.ValidHeaders)
	}
}

func TestTruncatedStreamErrors(t *testing.T) {
	p := packetParser(t)
	full := pkt.NewBuilder().WithTCP(1, 2, 0).Build()
	if _, err := p.Run(full[:20], nil); err == nil {
		t.Error("truncated packet should error mid-extract")
	}
}

// TestDescParserInterpMatchesStaticLayout runs every bundled NIC's
// DescParser dynamically over descriptors built from its enumerated TX
// formats: every field the static analysis places must be extracted at the
// same value, and the run must consume exactly the format's bits.
func TestDescParserInterpMatchesStaticLayout(t *testing.T) {
	for _, m := range nic.All() {
		inst, err := m.Info.BindParser(m.Info.Prog.Parser(core.DescParser))
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		p, err := New(m.Info, inst, "")
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		formats, err := core.TxFormats(m.Info)
		if err != nil || len(formats) == 0 {
			t.Fatalf("%s: %d TX formats, err %v", m.Name, len(formats), err)
		}
		for _, l := range formats {
			// Build a descriptor with recognizable values per the static layout.
			desc := make([]byte, l.SizeBytes())
			want := map[string]uint64{}
			seed := uint64(0xA1)
			for _, f := range l.Fields {
				if f.WidthBits > 64 {
					continue
				}
				v := seed
				if f.WidthBits < 64 {
					v &= (1 << f.WidthBits) - 1
				}
				writeBits(desc, f.OffsetBits, f.WidthBits, v)
				want[f.Name] = v
				seed = seed*31 + 7
			}
			// Context selects this layout.
			ctx := sema.MapEnv{}
			for _, c := range l.Constraints {
				if c.Equal {
					ctx[c.Var] = c.Val
				}
			}
			res, err := p.Run(desc, ctx)
			if err != nil {
				t.Fatalf("%s format %dB: %v", m.Name, l.SizeBytes(), err)
			}
			if !res.Accepted {
				t.Fatalf("%s format %dB rejected: %v", m.Name, l.SizeBytes(), res.States)
			}
			for name, v := range want {
				if res.Values[name] != v {
					t.Errorf("%s format %dB: %s = %#x, want %#x", m.Name, l.SizeBytes(), name, res.Values[name], v)
				}
			}
			if res.BitsConsumed != l.SizeBits() {
				t.Errorf("%s format %dB: consumed %d bits, static %d", m.Name, l.SizeBytes(), res.BitsConsumed, l.SizeBits())
			}
		}
	}
}

func writeBits(b []byte, off, w int, v uint64) {
	// Big-endian write matching bitfield.Write semantics.
	for i := 0; i < w; i++ {
		bit := byte(v>>uint(w-1-i)) & 1
		pos := off + i
		mask := byte(1) << (7 - pos%8)
		if bit == 1 {
			b[pos/8] |= mask
		} else {
			b[pos/8] &^= mask
		}
	}
}

func TestStepGuard(t *testing.T) {
	prog, err := parser.Parse("loop.p4", `
header h_t { bit<8> v; }
struct d_t { h_t h; }
struct c_t { bit<1> r; }
@bind("D","d_t") @bind("C","c_t")
parser P<C, D>(desc_in din, in C ctx, out D d) {
    state start { transition spin; }
    state spin  { transition spin2; }
    state spin2 { transition spin; }
}`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := info.BindParser(prog.Parser("P"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(info, inst, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(make([]byte, 8), nil); err == nil {
		t.Error("zero-extract loop must hit the step guard")
	}
}

func TestSelectOnExtractedField(t *testing.T) {
	// TLV-style parsing: the select key is a just-extracted field.
	prog, err := parser.Parse("tlv.p4", `
header tag_t { bit<8> kind; }
header a_t { bit<16> x; }
header b_t { bit<32> y; }
struct d_t { tag_t tag; a_t a; b_t b; }
struct c_t { bit<1> r; }
@bind("D","d_t") @bind("C","c_t")
parser P<C, D>(desc_in din, in C ctx, out D d) {
    state start {
        din.extract(d.tag);
        transition select(d.tag.kind) {
            1: pa;
            2: pb;
            default: reject;
        }
    }
    state pa { din.extract(d.a); transition accept; }
    state pb { din.extract(d.b); transition accept; }
}`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := info.BindParser(prog.Parser("P"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(info, inst, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run([]byte{0x01, 0xAB, 0xCD}, nil)
	if err != nil || !res.Accepted {
		t.Fatalf("kind=1: %v %v", res, err)
	}
	if res.Values["d.a.x"] != 0xABCD {
		t.Errorf("a.x = %#x", res.Values["d.a.x"])
	}
	res, err = p.Run([]byte{0x02, 0xDE, 0xAD, 0xBE, 0xEF}, nil)
	if err != nil || !res.Accepted || res.Values["d.b.y"] != 0xDEADBEEF {
		t.Fatalf("kind=2: %v %v", res, err)
	}
	res, err = p.Run([]byte{0x09}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Error("unknown kind should reject")
	}
	// qdma-style context selects still work via the ctx env.
	if _, err := p.Run(nil, nil); err == nil {
		t.Error("empty stream must error on first extract")
	}
}

// deparserOf binds the description's completion deparser for NewDeparser.
func deparserOf(t *testing.T, info *sema.Info) (*Deparser, error) {
	t.Helper()
	name, err := core.FindDeparser(info)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := info.BindControl(info.Prog.Control(name))
	if err != nil {
		t.Fatal(err)
	}
	return NewDeparser(info, inst)
}

// TestDeparserMatchesStaticLayout runs every bundled NIC's completion
// deparser under each enumerated path's context assignment: the interpreter
// must emit exactly the path's static layout — names, semantics, offsets,
// widths, total bits — though it shares no code with the CFG the layout was
// enumerated from. Refusals: a condition over a register the environment
// does not hold fails the run; an unsupported statement and an emit not
// rooted at a parameter fail the bind.
func TestDeparserMatchesStaticLayout(t *testing.T) {
	for _, m := range nic.All() {
		d, err := deparserOf(t, m.Info)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		paths, err := m.Paths()
		if err != nil {
			t.Fatal(err)
		}
		var rec Record
		for _, p := range paths {
			assign, err := core.ConfigAssignment(p.Constraints)
			if err != nil {
				t.Fatal(err)
			}
			env := sema.MapEnv{}
			for name, v := range assign {
				env[name] = sema.UintValue(v, 64)
			}
			if err := d.RunInto(&rec, env); err != nil {
				t.Fatalf("%s path %d: %v", m.Name, p.ID, err)
			}
			want := make([]Field, len(p.Fields))
			for i, f := range p.Fields {
				want[i] = Field{Name: f.Name, Semantic: string(f.Semantic), OffsetBits: f.OffsetBits, WidthBits: f.WidthBits}
			}
			if !reflect.DeepEqual(rec.Fields, want) {
				t.Errorf("%s path %d: interpreted layout\n %v\nstatic\n %v", m.Name, p.ID, rec.Fields, want)
			}
			if rec.Bits != p.SizeBits() || len(rec.Image) != p.SizeBytes() {
				t.Errorf("%s path %d: %d bits in %d bytes, static %d in %d", m.Name, p.ID, rec.Bits, len(rec.Image), p.SizeBits(), p.SizeBytes())
			}
		}
	}

	d, err := deparserOf(t, nic.MustLoad("e1000e").Info)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunInto(new(Record), sema.MapEnv{}); err == nil || !strings.Contains(err.Error(), "ctx.use_rss") {
		t.Errorf("condition over an unset register: err = %v", err)
	}
	for _, c := range []struct{ stmt, want string }{
		{"m.a = 1;", "unsupported statement *ast.AssignStmt"},
		{"co.emit(other.a);", "emit root other.a is not a parameter"},
	} {
		src := `struct m_t { bit<8> a; }
control CmptDeparser(cmpt_out co, in m_t m) { apply { co.emit(m); ` + c.stmt + ` } }`
		prog, err := parser.Parse("refuse.p4", src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := sema.Check(prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := deparserOf(t, info); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.stmt, err, c.want)
		}
	}
}
