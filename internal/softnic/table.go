package softnic

import (
	"opendesc/internal/codegen"
	"opendesc/internal/pkt"
	"opendesc/internal/semantics"
)

// The reference table is the one place a semantic's value is written: the
// simulated device's offload engines (nicsim, through Rows), the shims every
// lane links (Table, through rxpath), the validator's constants (Consts) and
// every oracle (Expect) read it. A packet semantic's row states once what a
// frame pkt.Decode rejects reads: error_flags the parse error (0x80), vlan the
// outer tag wherever it decoded (so its shim stays a peek), pkt_len the
// length, every other packet semantic 0.

// Row is one semantic's reference value.
type Row struct {
	// name is the row's semantic.
	name semantics.Name
	// eval is the value over the frame pkt.Decode left in in (decoded:
	// whether it accepted the frame) on a device receiving on queue. Nil for
	// the device clock, which no host predicts.
	eval func(in *pkt.Info, decoded bool, queue uint16) uint64
	// decodes marks a packet semantic: eval reads the frame.
	decodes bool
	// pinned marks device state no software emulates: a host knows its value
	// (a validator checks it, degraded mode serves it), but Funcs offers no
	// shim and its cost stays infinite.
	pinned bool
	// shim is the row as a shim, built once: decode + kernel, or a peek that
	// reads the same value off the raw frame. Nil where it depends on the
	// device (queue_id).
	shim codegen.SoftFunc
	// burst is the row over a burst of frames (Burst); nil for most rows.
	burst func(frames [][]byte, out []uint64)
}

// packet is a packet semantic reading 0 on a frame pkt.Decode rejects.
func packet(kernel func(*pkt.Info) uint64) *Row { return rejecting(kernel, 0) }

// rejecting is a packet semantic reading rejected on a frame pkt.Decode
// rejects. It is inlined where kernel is a known function, so eval and the
// shim call the kernel directly and the shim's pkt.Info stays on the stack.
func rejecting(kernel func(*pkt.Info) uint64, rejected uint64) *Row {
	eval := func(in *pkt.Info, decoded bool, _ uint16) uint64 {
		if !decoded {
			return rejected
		}
		return kernel(in)
	}
	return &Row{eval: eval, decodes: true, shim: func(p []byte) uint64 {
		var in pkt.Info
		return eval(&in, pkt.Decode(p, &in) == nil, 0)
	}}
}

// partial is a packet semantic whose kernel reads what pkt.Decode left of a
// frame it rejects, served by a peek that reads the same off the raw frame.
func partial(kernel func(*pkt.Info) uint64, peek codegen.SoftFunc) *Row {
	return &Row{eval: func(in *pkt.Info, _ bool, _ uint16) uint64 { return kernel(in) }, decodes: true, shim: peek}
}

// withBurst gives r a burst form, the way ToeplitzTable is the tabulated
// form of toeplitzAt: the row stays the definition and the burst form's
// oracle.
func withBurst(r *Row, burst func(frames [][]byte, out []uint64)) *Row {
	r.burst = burst
	return r
}

// device is device state with one value on every device.
func device(k uint64, pinned bool) *Row {
	return &Row{eval: func(*pkt.Info, bool, uint16) uint64 { return k }, pinned: pinned, shim: func([]byte) uint64 { return k }}
}

// rows is the table in its one order: a simulated device numbers its
// offload engines, and lists their counters, by it (Rows). It is an array,
// so its length is the constant NumRows.
var rows = [...]*Row{
	named(semantics.PktLen, partial(func(in *pkt.Info) uint64 { return uint64(len(in.Data)) }, func(p []byte) uint64 { return uint64(len(p)) })),
	// Degraded mode serves the timestamp as 0; every check skips it.
	named(semantics.Timestamp, &Row{pinned: true, shim: func([]byte) uint64 { return 0 }}),
	named(semantics.QueueID, &Row{eval: func(_ *pkt.Info, _ bool, q uint16) uint64 { return uint64(q) }}),
	named(semantics.Mark, device(0, true)),
	named(semantics.CryptoCtx, device(0, true)),
	named(semantics.LROSegs, device(1, true)),
	named(semantics.SegCnt, device(1, false)),
	named(semantics.RXDropHint, device(0, true)),
	named(semantics.ErrorFlags, rejecting(errorFlags, 0x80)),
	named(semantics.RSS, packet(func(in *pkt.Info) uint64 { return uint64(RSS(in)) })),
	named(semantics.IPChecksum, packet(func(in *pkt.Info) uint64 { return uint64(IPChecksum(in)) })),
	named(semantics.L4Checksum, packet(func(in *pkt.Info) uint64 { return uint64(L4Checksum(in)) })),
	// Peeks need no full decode: this is why w(vlan) and w(pkt_len) are among
	// the cheapest costs in the model.
	named(semantics.VLAN, partial(func(in *pkt.Info) uint64 { return uint64(VLANTCI(in)) }, peekVLAN)),
	named(semantics.PType, packet(func(in *pkt.Info) uint64 { return uint64(PType(in)) })),
	named(semantics.FlowID, packet(func(in *pkt.Info) uint64 { return uint64(FlowID(in)) })),
	named(semantics.IPID, packet(func(in *pkt.Info) uint64 { return uint64(in.IPID) })),
	named(semantics.KVKey, withBurst(packet(KVKey), kvKeys)),
	named(semantics.PayloadHash, withBurst(packet(func(in *pkt.Info) uint64 { return uint64(PayloadHash(in)) }), payloadHashes)),
	named(semantics.TunnelID, packet(func(in *pkt.Info) uint64 { return uint64(TunnelID(in)) })),
	named(semantics.L4Port, packet(func(in *pkt.Info) uint64 { return uint64(in.DstPort) })),
	named(semantics.DecapFlag, packet(func(in *pkt.Info) uint64 { return uint64(min(TunnelID(in), 1)) })),
	named(semantics.InnerCsum, packet(func(in *pkt.Info) uint64 { return uint64(innerChecksumStatus(in)) })),
	named(semantics.ChecksumAny, packet(checksumLevel)),
	named(semantics.ParserDepth, packet(parserDepth)),
}

// named gives r its semantic.
func named(name semantics.Name, r *Row) *Row {
	r.name = name
	return r
}

// byName indexes rows by semantic.
var byName = func() map[semantics.Name]*Row {
	m := make(map[semantics.Name]*Row, len(rows))
	for _, r := range rows {
		m[r.name] = r
	}
	return m
}()

// peekVLAN reads the outer TCI where pkt.Decode finds it: on the frame once
// the tag is, whatever follows.
func peekVLAN(p []byte) uint64 {
	if len(p) < pkt.EthHeaderLen+pkt.VLANTagLen {
		return 0
	}
	if et := uint16(p[12])<<8 | uint16(p[13]); et != pkt.EtherTypeVLAN && et != pkt.EtherTypeQinQ {
		return 0
	}
	return uint64(p[14])<<8 | uint64(p[15])
}

func errorFlags(in *pkt.Info) uint64 {
	var f uint64
	if in.L3 == pkt.L3IPv4 && in.L3Off >= 0 {
		hdr := in.Data[in.L3Off:]
		ihl := int(hdr[0]&0x0F) * 4
		if ihl >= pkt.IPv4MinLen && in.L3Off+ihl <= len(in.Data) && !pkt.VerifyIPv4Header(hdr[:ihl]) {
			f |= 1
		}
	}
	if (in.L4 == pkt.L4TCP || in.L4 == pkt.L4UDP) && !pkt.VerifyL4(in) {
		f |= 2
	}
	return f
}

func checksumLevel(in *pkt.Info) uint64 {
	switch {
	case in.L4 == pkt.L4TCP || in.L4 == pkt.L4UDP:
		return 2
	case in.L3 == pkt.L3IPv4:
		return 1
	}
	return 0
}

func parserDepth(in *pkt.Info) uint64 {
	d := uint64(1)
	if in.L3 != pkt.L3None {
		d++
	}
	if in.L4 != pkt.L4None {
		d++
	}
	return d
}

// Lookup returns sem's row, nil when no reference is written for it.
func Lookup(sem semantics.Name) *Row { return byName[sem] }

// Rows is the table in its one order: a simulated device numbers its
// offload engines so, one per row.
func Rows() []*Row { return rows[:] }

// NumRows is the number of rows, a constant a device sizes its engines'
// counters by.
const NumRows = len(rows)

// Semantic names the row's semantic.
func (r *Row) Semantic() semantics.Name { return r.name }

// Packet reports whether the row reads the decoded frame.
func (r *Row) Packet() bool { return r.decodes }

// Eval is the row's value over the frame pkt.Decode left in in (decoded:
// whether it accepted the frame) on a device receiving on queue.
func (r *Row) Eval(in *pkt.Info, decoded bool, queue uint16) uint64 {
	return r.eval(in, decoded, queue)
}

// Burst is the row's burst form, nil when it has none: one call sets out[i]
// to the value the row's shim gives frames[i], for at most BurstMax frames.
func (r *Row) Burst() func(frames [][]byte, out []uint64) { return r.burst }

// Table returns the reference table of a device receiving on queue as shims:
// one closure per semantic that a lane links, with no lookup per call.
// Pinned device state reads its constant, so an all-software runtime serves
// every field.
func Table(queue uint16) map[semantics.Name]codegen.SoftFunc {
	t := make(map[semantics.Name]codegen.SoftFunc, len(rows))
	for _, r := range rows {
		t[r.name] = r.shim
		if r.shim == nil {
			v := r.eval(nil, false, queue)
			t[r.name] = func([]byte) uint64 { return v }
		}
	}
	return t
}

// Funcs returns the default device's shims (queue 0) of the semantics
// software can emulate: the Table without pinned device state. Each decodes
// the raw packet per call, exactly as a software fallback on a
// descriptor-less datapath would.
func Funcs() map[semantics.Name]codegen.SoftFunc {
	t := Table(0)
	for _, r := range rows {
		if r.pinned {
			delete(t, r.name)
		}
	}
	return t
}

// Consts returns the device state of a device receiving on queue — its
// queue id and its constants — which a validator checks structurally.
func Consts(queue uint16) map[semantics.Name]uint64 {
	c := make(map[semantics.Name]uint64)
	for _, r := range rows {
		if !r.decodes && r.eval != nil {
			c[r.name] = r.eval(nil, false, queue)
		}
	}
	return c
}

// Expect is the value a read of sem must return for packet received on
// queue through a field width bits wide: a hardware field narrower than the
// semantic truncates it, a shim reads it whole (64). ok is false when there
// is nothing to expect: no row, or the device clock.
func Expect(sem semantics.Name, packet []byte, queue uint16, width int) (v uint64, ok bool) {
	switch r := byName[sem]; {
	case r == nil || r.eval == nil:
		return 0, false
	case r.decodes:
		v = r.shim(packet)
	default:
		v = r.eval(nil, false, queue)
	}
	if width > 0 && width < 64 {
		v &= 1<<width - 1
	}
	return v, true
}
