package interp_test

import (
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/p4/interp"
	"opendesc/internal/p4/sema"
)

// fuzzEnv answers every context lookup with the same fuzz-chosen value, so
// select expressions over per-queue registers see arbitrary states.
type fuzzEnv uint64

func (e fuzzEnv) Lookup(path string) (sema.Value, bool) {
	return sema.UintValue(uint64(e), 64), true
}

// holds reports whether every constraint of a TX format holds under env.
func holds(p *core.Path, env sema.Env) bool {
	for _, c := range p.Constraints {
		v, ok := env.Lookup(c.Var)
		if !ok || v.Equal(c.Val) != c.Equal {
			return false
		}
	}
	return true
}

// FuzzInterp runs the six bundled NIC DescParsers over arbitrary descriptor
// bytes and context register values, and holds the interpreter to the TX
// formats core.TxFormats enumerates: an accepted run is selected by exactly
// one format's constraints and consumes exactly that format's bits; a
// context no format's constraints admit is rejected; and a context one
// format admits, over input at least that format long, is accepted. Errors
// (truncated input, step-bound exhaustion) are rejections.
func FuzzInterp(f *testing.F) {
	models := nic.All()
	for i := range models {
		f.Add(uint8(i), uint64(0), []byte{})
		f.Add(uint8(i), uint64(1), make([]byte, 16))
		f.Add(uint8(i), uint64(2), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
		f.Add(uint8(i), uint64(3), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
			16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31})
	}
	for i := range models {
		// qdma's desc_size values, and one input too short for the largest.
		f.Add(uint8(i), uint64(8), make([]byte, 8))
		f.Add(uint8(i), uint64(16), make([]byte, 32))
		f.Add(uint8(i), uint64(32), make([]byte, 24))
	}
	parsers := make([]*interp.Parser, len(models))
	formats := make([][]*core.Path, len(models))
	for i, m := range models {
		inst, err := m.Info.BindParser(m.Info.Prog.Parser(core.DescParser))
		if err != nil {
			f.Fatalf("%s: %v", m.Name, err)
		}
		if parsers[i], err = interp.New(m.Info, inst, ""); err != nil {
			f.Fatalf("%s: New: %v", m.Name, err)
		}
		if formats[i], err = core.TxFormats(m.Info); err != nil {
			f.Fatalf("%s: %v", m.Name, err)
		}
	}
	f.Fuzz(func(t *testing.T, modelIdx uint8, ctxVal uint64, data []byte) {
		if len(data) > 1<<12 {
			t.Skip()
		}
		i := int(modelIdx) % len(models)
		name, ctx := models[i].Name, fuzzEnv(ctxVal)
		var held []*core.Path
		for _, p := range formats[i] {
			if holds(p, ctx) {
				held = append(held, p)
			}
		}
		res, err := parsers[i].Run(data, ctx)
		accepted := err == nil && res.Accepted
		if err == nil {
			if res.BitsConsumed < 0 || res.BitsConsumed > len(data)*8 {
				t.Fatalf("%s: consumed %d bits of %d available", name, res.BitsConsumed, len(data)*8)
			}
			if len(res.States) == 0 {
				t.Fatalf("%s: successful run visited no states", name)
			}
		}
		switch {
		case accepted && len(held) != 1:
			t.Fatalf("%s: interpreter accepted under ctx %d, but %d formats' constraints hold", name, ctxVal, len(held))
		case accepted && res.BitsConsumed != held[0].SizeBits():
			t.Fatalf("%s: consumed %d bits, format %v is %d", name, res.BitsConsumed, held[0], held[0].SizeBits())
		case !accepted && len(held) == 1 && len(data)*8 >= held[0].SizeBits():
			t.Fatalf("%s: format %v holds under ctx %d over %d bytes, interpreter rejected (err %v)", name, held[0], ctxVal, len(data), err)
		}
	})
}
