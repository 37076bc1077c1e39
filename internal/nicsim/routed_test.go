package nicsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/diffverify"
	"opendesc/internal/nic"
	"opendesc/internal/p4/ast"
	"opendesc/internal/p4/sema"
)

// decisionRegisters returns the names the deparser's decisions read, and
// whether every one of them is a register of d: a description whose
// decisions read a metadata field, or a name it does not declare, has a
// route that no register setting fixes.
func decisionRegisters(d *Device) (names []string, registersOnly bool) {
	info := d.graph.Info()
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		if _, err := info.Eval(e, nil); err == nil {
			return // a constant
		}
		switch e := e.(type) {
		case *ast.Ident:
			names = append(names, e.Name)
		case *ast.MemberExpr:
			if p := e.Path(); p != "" {
				names = append(names, p)
			} else {
				walk(e.X)
			}
		case *ast.ParenExpr:
			walk(e.X)
		case *ast.UnaryExpr:
			walk(e.X)
		case *ast.CastExpr:
			walk(e.X)
		case *ast.BinaryExpr:
			walk(e.X)
			walk(e.Y)
		case *ast.SliceExpr:
			walk(e.X)
		case *ast.TernaryExpr:
			walk(e.Cond)
			walk(e.Then)
			walk(e.Else)
		}
	}
	for _, n := range d.graph.Nodes {
		switch n.Kind {
		case core.NodeBranch:
			walk(n.Cond)
		case core.NodeSwitch:
			walk(n.Tag)
		}
	}
	slices.Sort(names)
	names = slices.Compact(names)
	for _, name := range names {
		if d.register(name) < 0 {
			return names, false
		}
	}
	return names, true
}

// settings lists assignments of registers of the given widths: every one
// when they span at most 12 bits, else a fixed-seed sample of 4096.
func settings(widths []int) [][]uint64 {
	bits := 0
	for _, w := range widths {
		bits += w
	}
	n := 4096
	if bits <= 12 {
		n = 1 << bits
	}
	r := rand.New(rand.NewPCG(1, uint64(bits)))
	out := make([][]uint64, n)
	for i := range out {
		out[i] = make([]uint64, len(widths))
		rest := uint64(i)
		for k, w := range widths {
			mask := ^uint64(0) >> (64 - w)
			if bits <= 12 {
				out[i][k], rest = rest&mask, rest>>w
			} else {
				out[i][k] = r.Uint64() & mask
			}
		}
	}
	return out
}

// registerCorpus is what TestEveryRegisterSettingIsRouted covers: the
// bundled NICs, the hand-written descriptions, qdma with its format register
// narrowed to one bit (two of its cases and its default left with no value),
// and the first mutants of each NIC that diffverify's screen passes, under a
// fixed seed.
func registerCorpus(t *testing.T) []*nic.Model {
	models := nic.All()
	for name := range handWritten {
		models = append(models, handWrittenModel(t, name))
	}
	narrow, err := nic.Parse("qdma[cmpt_size:bit<1>].p4", strings.Replace(nic.MustLoad("qdma").Source, "bit<3> cmpt_size", "bit<1> cmpt_size", 1))
	if err != nil {
		t.Fatal(err)
	}
	models = append(models, narrow)
	for _, m := range nic.All() {
		taken := 0
		for _, v := range diffverify.Sweep(m.Name, m.Source, 3, 12) {
			if v.Outcome != diffverify.OutcomePass || taken == 3 {
				continue
			}
			src, ops, err := diffverify.Mutate(m.Source, v.Seed)
			if err != nil {
				t.Fatal(err)
			}
			mm, err := nic.Parse(fmt.Sprintf("%s~%d[%s].p4", m.Name, v.Seed, ops), src)
			if err != nil {
				t.Fatal(err)
			}
			models = append(models, mm)
			taken++
		}
	}
	return models
}

// TestEveryRegisterSettingIsRouted: on each description of the corpus whose
// decisions read registers only, every setting of those registers (masked
// to their widths) routes a frame to an enumerated path. The device's record
// is byte for byte the interpreter's, has ActivePath's layout, and is as
// long as that path; no frame is Unrouted; and every enumerated path is
// reached, and then selected by ApplyConfig of its constraints: the
// enumerator prunes a route whose equality needs a value wider than its
// register.
func TestEveryRegisterSettingIsRouted(t *testing.T) {
	frame := testPacket()
	checked := 0
	for _, m := range registerCorpus(t) {
		paths, err := m.Paths()
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		dev := MustNew(m, Config{RingEntries: 2})
		names, ok := decisionRegisters(dev)
		if !ok {
			if _, hand := handWritten[m.Name]; !hand {
				t.Errorf("%s: a decision reads %v, not registers only", m.Name, names)
			} else if _, err := dev.ActivePath(); !errors.Is(err, sema.ErrUnknown) {
				t.Errorf("%s: ActivePath = %v, want a decision on the packet unknown", m.Name, err)
			}
			continue
		}
		checked++
		t.Run(m.Name, func(t *testing.T) {
			ref := newReference(t, dev)
			widths := make([]int, len(names))
			for k, name := range names {
				widths[k] = dev.graph.Leaves[dev.register(name)].Width
			}
			reached := make(map[int]bool)
			for _, vals := range settings(widths) {
				for k, name := range names {
					dev.WriteReg(name, vals[k])
					ref.write(name, vals[k])
				}
				ap, err := dev.ActivePath()
				if err != nil {
					t.Fatalf("%v = %v: ActivePath: %v", names, vals, err)
				}
				want, taken := ref.rx(frame, dev.clock+timestampStep)
				before := dev.cmptBytes.Load()
				if !dev.RxPacket(frame) {
					t.Fatalf("%v = %v: the device refused the frame", names, vals)
				}
				var got []byte
				dev.CmptRing.Consume(func(e []byte) { got = append(got, e...) })
				n := int(dev.cmptBytes.Load() - before)
				switch {
				case n != ap.SizeBytes():
					t.Fatalf("%v = %v: DMAed %d B, ActivePath's path %d is %d B", names, vals, n, ap.ID, ap.SizeBytes())
				case !bytes.Equal(got, append(want, make([]byte, len(got)-len(want))...)):
					t.Fatalf("%v = %v:\n device      %x\n interpreter %x", names, vals, got, want)
				case taken == nil || !slices.Equal(taken.Fields, ap.Fields):
					t.Fatalf("%v = %v: the interpreter's record is not path %d's layout", names, vals, ap.ID)
				}
				reached[ap.ID] = true
			}
			if u := dev.Stats().Unrouted; u != 0 {
				t.Errorf("%d frames unrouted", u)
			}
			for _, p := range paths {
				if !reached[p.ID] {
					t.Errorf("path %d (%v) is reached by no register setting", p.ID, p.Constraints)
					continue
				}
				err := dev.ApplyConfig(p.Constraints)
				if ap, err2 := dev.ActivePath(); err != nil || err2 != nil || ap != p {
					t.Errorf("ApplyConfig(path %d): %v; ActivePath = %v, %v", p.ID, err, ap, err2)
				}
			}
		})
	}
	if checked < len(nic.All())+2 {
		t.Errorf("only %d descriptions branch on registers only", checked)
	}
}

// FuzzRegisterWrites programs a device with an arbitrary sequence of
// register writes — values wider than their register, names that are no
// register, resets — and sends one frame. RxPacket accepts it exactly when
// ActivePath names a path, DMAs that path's size, and the record is the
// interpreter's under the same writes. Each write is 9 bytes: a register
// index (0xFF resets the device), then the value, little-endian.
func FuzzRegisterWrites(f *testing.F) {
	models := nic.All()
	for _, name := range []string{"boolctx", "booleq", "ctxemit", "vxlan"} {
		models = append(models, handWrittenModel(f, name))
	}
	f.Add(uint8(3), []byte{0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(2), []byte{0, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(6), []byte{0, 0xA5, 1, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(1), []byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0})
	frame := testPacket()
	f.Fuzz(func(t *testing.T, which uint8, writes []byte) {
		m := models[int(which)%len(models)]
		dev := MustNew(m, Config{})
		ref := newReference(t, dev)
		var regs []string
		for _, l := range dev.graph.Leaves {
			if l.Context {
				regs = append(regs, l.Name)
			}
		}
		for ; len(writes) > 0; writes = writes[min(9, len(writes)):] {
			if writes[0] == 0xFF {
				if err := dev.Reset(); err != nil {
					t.Fatal(err)
				}
				clear(ref.regs)
				continue
			}
			name := "ctx.no_such_register"
			if k := int(writes[0]) % (len(regs) + 1); k < len(regs) {
				name = regs[k]
			}
			var v [8]byte
			copy(v[:], writes[1:min(9, len(writes))])
			dev.WriteReg(name, binary.LittleEndian.Uint64(v[:]))
			ref.write(name, binary.LittleEndian.Uint64(v[:]))
		}
		ap, apErr := dev.ActivePath()
		want, _ := ref.rx(frame, dev.clock+timestampStep)
		before := dev.cmptBytes.Load()
		accepted := dev.RxPacket(frame)
		if accepted != (apErr == nil) || accepted != (want != nil) {
			t.Fatalf("%s: RxPacket accepted %v, ActivePath %v, interpreter emitted %v", m.Name, accepted, apErr, want != nil)
		}
		if !accepted {
			return
		}
		if n := int(dev.cmptBytes.Load() - before); n != ap.SizeBytes() {
			t.Fatalf("%s: DMAed %d B, path %d is %d B", m.Name, n, ap.ID, ap.SizeBytes())
		}
		dev.CmptRing.Consume(func(got []byte) {
			if !bytes.Equal(got, append(want, make([]byte, len(got)-len(want))...)) {
				t.Fatalf("%s:\n device      %x\n interpreter %x", m.Name, got, want)
			}
		})
	})
}
