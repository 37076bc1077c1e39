package bitfield

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReadByteAligned(t *testing.T) {
	b := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04}
	cases := []struct {
		off, w int
		want   uint64
	}{
		{0, 8, 0xDE},
		{8, 8, 0xAD},
		{0, 16, 0xDEAD},
		{0, 32, 0xDEADBEEF},
		{32, 32, 0x01020304},
		{0, 64, 0xDEADBEEF01020304},
	}
	for _, c := range cases {
		if got := Read(b, c.off, c.w); got != c.want {
			t.Errorf("Read(%d,%d) = %#x, want %#x", c.off, c.w, got, c.want)
		}
		if got := ReadAligned(b, c.off, c.w); got != c.want {
			t.Errorf("ReadAligned(%d,%d) = %#x, want %#x", c.off, c.w, got, c.want)
		}
	}
}

func TestReadUnaligned(t *testing.T) {
	// 0b1011_0110 0b0100_0000
	b := []byte{0xB6, 0x40}
	if got := Read(b, 0, 1); got != 1 {
		t.Errorf("bit 0 = %d", got)
	}
	if got := Read(b, 1, 1); got != 0 {
		t.Errorf("bit 1 = %d", got)
	}
	if got := Read(b, 0, 4); got != 0xB {
		t.Errorf("nibble = %#x", got)
	}
	if got := Read(b, 4, 4); got != 0x6 {
		t.Errorf("low nibble = %#x", got)
	}
	if got := Read(b, 2, 10); got != 0b11_0110_0100 {
		t.Errorf("10-bit span = %#b", got)
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	b := make([]byte, 16)
	Write(b, 3, 13, 0x155F)
	if got := Read(b, 3, 13); got != 0x155F {
		t.Errorf("roundtrip = %#x", got)
	}
	// Neighbouring bits untouched.
	if got := Read(b, 0, 3); got != 0 {
		t.Errorf("prefix dirtied: %#b", got)
	}
	if got := Read(b, 16, 8); got != 0 {
		t.Errorf("suffix dirtied: %#x", got)
	}
}

func TestWriteMasksValue(t *testing.T) {
	b := make([]byte, 2)
	Write(b, 4, 4, 0xFFFF) // only low 4 bits of the value may land
	if got := Read(b, 4, 4); got != 0xF {
		t.Errorf("masked write = %#x", got)
	}
	if got := Read(b, 0, 4); got != 0 {
		t.Errorf("adjacent bits = %#x", got)
	}
}

func TestWritePreservesSurroundings(t *testing.T) {
	b := []byte{0xFF, 0xFF, 0xFF}
	Write(b, 6, 9, 0)
	if got := Read(b, 0, 6); got != 0x3F {
		t.Errorf("prefix = %#x", got)
	}
	if got := Read(b, 6, 9); got != 0 {
		t.Errorf("field = %#x", got)
	}
	if got := Read(b, 15, 9); got != 0x1FF {
		t.Errorf("suffix = %#x", got)
	}
}

func TestPanics(t *testing.T) {
	b := make([]byte, 2)
	for _, f := range []func(){
		func() { Read(b, 0, 0) },
		func() { Read(b, 0, 65) },
		func() { Read(b, 10, 8) },
		func() { Read(b, -1, 4) },
		func() { Write(b, 12, 8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: for any sequence of non-overlapping fields, writing then reading
// recovers every value.
func TestQuickWriteReadMany(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, 64)
		type field struct {
			off, w int
			v      uint64
		}
		var fields []field
		off := 0
		for off < 64*8-64 {
			w := 1 + rng.Intn(64)
			v := rng.Uint64()
			if w < 64 {
				v &= (1 << w) - 1
			}
			fields = append(fields, field{off, w, v})
			off += w
			off += rng.Intn(3) // occasional gaps
		}
		for _, fl := range fields {
			Write(buf, fl.off, fl.w, fl.v)
		}
		for _, fl := range fields {
			if Read(buf, fl.off, fl.w) != fl.v {
				return false
			}
			if ReadAligned(buf, fl.off, fl.w) != fl.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: ReadAligned agrees with Read everywhere.
func TestQuickAlignedAgrees(t *testing.T) {
	f := func(raw []byte, offRaw uint16, wRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		w := int(wRaw%64) + 1
		maxOff := len(raw)*8 - w
		if maxOff < 0 {
			return true
		}
		off := int(offRaw) % (maxOff + 1)
		return Read(raw, off, w) == ReadAligned(raw, off, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkReadUnaligned13(b *testing.B) {
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Read(buf, 5, 13)
	}
	_ = sink
}
