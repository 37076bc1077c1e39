package bitfield

import (
	"bytes"
	"testing"
)

// refRead and refWrite are the per-byte loops Read and Write were before they
// took one 64-bit load: walk the field a byte at a time, taking what is left
// of each byte. They are kept as the oracles (after the range checks, which
// the sweep below tests on their own).
func refRead(b []byte, off, width int) uint64 {
	var v uint64
	remaining := width
	byteIdx := off / 8
	bitIdx := off % 8 // from MSB
	for remaining > 0 {
		avail := 8 - bitIdx
		take := min(avail, remaining)
		chunk := (uint64(b[byteIdx]) >> (avail - take)) & ((1 << take) - 1)
		v = v<<take | chunk
		remaining -= take
		byteIdx++
		bitIdx = 0
	}
	return v
}

func refWrite(b []byte, off, width int, v uint64) {
	if width < 64 {
		v &= (1 << width) - 1
	}
	remaining := width
	byteIdx := off / 8
	bitIdx := off % 8
	for remaining > 0 {
		avail := 8 - bitIdx
		take := min(avail, remaining)
		shift := remaining - take
		chunk := byte((v >> shift) & ((1 << take) - 1))
		mask := byte(((1 << take) - 1) << (avail - take))
		b[byteIdx] = b[byteIdx]&^mask | chunk<<(avail-take)
		remaining -= take
		byteIdx++
		bitIdx = 0
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// TestSweepMatchesReference is exhaustive over geometry: every bit offset ×
// every width 1…64 in buffers shorter than a word, exactly a word, a word
// plus one byte and three words — so every off%8, every position up to and
// inside the last eight bytes, and both nine-byte straddles and in-word
// fields. Over three backgrounds and three values, Write must leave the same
// bytes as the reference (the neighbours are in the comparison), Read must
// return the reference's value, and a field that does not fit must still
// panic and leave the buffer alone.
func TestSweepMatchesReference(t *testing.T) {
	noise := make([]byte, 24)
	for i := range noise {
		noise[i] = byte(i*73 + 41)
	}
	backgrounds := [][]byte{make([]byte, 24), bytes.Repeat([]byte{0xFF}, 24), noise}
	values := []uint64{^uint64(0), 0, 0xA5C3_96E1_5A3C_691E}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 24} {
		for off := 0; off <= n*8; off++ {
			for width := 1; width <= 64; width++ {
				for _, bg := range backgrounds {
					got, want := make([]byte, n), make([]byte, n)
					if off+width > n*8 {
						copy(got, bg)
						if !panics(func() { Read(got, off, width) }) || !panics(func() { Write(got, off, width, ^uint64(0)) }) {
							t.Fatalf("n=%d off=%d width=%d: out of range, no panic", n, off, width)
						}
						if !bytes.Equal(got, bg[:n]) {
							t.Fatalf("n=%d off=%d width=%d: out-of-range Write changed the buffer", n, off, width)
						}
						continue
					}
					for _, v := range values {
						copy(got, bg)
						copy(want, bg)
						Write(got, off, width, v)
						refWrite(want, off, width, v)
						if !bytes.Equal(got, want) {
							t.Fatalf("n=%d off=%d width=%d v=%#x: Write left % x, reference % x", n, off, width, v, got, want)
						}
						if r, ref := Read(got, off, width), refRead(want, off, width); r != ref {
							t.Fatalf("n=%d off=%d width=%d v=%#x: Read %#x, reference %#x", n, off, width, v, r, ref)
						}
					}
				}
			}
		}
	}
	for _, c := range [][2]int{{-1, 8}, {-8, 8}, {0, 0}, {0, -1}, {0, 65}} {
		b := make([]byte, 16)
		if !panics(func() { Read(b, c[0], c[1]) }) || !panics(func() { Write(b, c[0], c[1], 1) }) {
			t.Errorf("off=%d width=%d: no panic", c[0], c[1])
		}
	}
}

// FuzzBitfieldMatchesReference takes the sweep's comparison to arbitrary
// buffer contents and lengths: the geometry is folded into range, so every
// input is a field that fits.
func FuzzBitfieldMatchesReference(f *testing.F) {
	f.Add([]byte{0xB6, 0x40}, uint16(2), uint8(10), uint64(0x2AA))
	f.Add(bytes.Repeat([]byte{0xFF}, 16), uint16(61), uint8(64), uint64(0))               // nine bytes
	f.Add(bytes.Repeat([]byte{0x5A}, 32), uint16(32*8-13), uint8(13), ^uint64(0))         // ends with the buffer
	f.Add([]byte{1, 2, 3}, uint16(5), uint8(17), uint64(0x1FFFF))                         // shorter than a word
	f.Add(bytes.Repeat([]byte{0}, 9), uint16(7), uint8(58), uint64(0x2FF_FFFF_FFFF_FFFF)) // nine of nine
	f.Fuzz(func(t *testing.T, buf []byte, off uint16, width uint8, v uint64) {
		if len(buf) == 0 {
			return
		}
		if len(buf) > 64 {
			buf = buf[:64]
		}
		w := 1 + int(width)%min(64, len(buf)*8)
		o := int(off) % (len(buf)*8 - w + 1)
		got, want := bytes.Clone(buf), bytes.Clone(buf)
		if r, ref := Read(got, o, w), refRead(want, o, w); r != ref {
			t.Fatalf("% x: Read(%d,%d) = %#x, reference %#x", buf, o, w, r, ref)
		}
		Write(got, o, w, v)
		refWrite(want, o, w, v)
		if !bytes.Equal(got, want) {
			t.Fatalf("% x: Write(%d,%d,%#x) left % x, reference % x", buf, o, w, v, got, want)
		}
	})
}

func benchWrite(b *testing.B, off, width int) {
	buf := make([]byte, 32)
	if a := testing.AllocsPerRun(100, func() { Write(buf, off, width, 0x1234_5678_9ABC_DEF0) }); a != 0 {
		b.Fatalf("%v allocs per write, want 0", a)
	}
	b.SetBytes(int64(width+7) / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Write(buf, off, width, uint64(i))
	}
}

func BenchmarkBitfieldWriteAligned(b *testing.B)    { benchWrite(b, 64, 32) }
func BenchmarkBitfieldWriteStraddling(b *testing.B) { benchWrite(b, 61, 13) }

// ReadAligned assembles byte-aligned fields of 8/16/32/64 bits byte by byte,
// as genGoRead's accessors do, and falls back to Read otherwise. It was the
// hardware read before accessors fixed their word when linked; it is kept as
// a second oracle beside refRead.
func ReadAligned(b []byte, off, width int) uint64 {
	if off%8 != 0 {
		return Read(b, off, width)
	}
	i := off / 8
	switch width {
	case 8:
		return uint64(b[i])
	case 16:
		return uint64(b[i])<<8 | uint64(b[i+1])
	case 32:
		return uint64(b[i])<<24 | uint64(b[i+1])<<16 | uint64(b[i+2])<<8 | uint64(b[i+3])
	case 64:
		return uint64(b[i])<<56 | uint64(b[i+1])<<48 | uint64(b[i+2])<<40 | uint64(b[i+3])<<32 |
			uint64(b[i+4])<<24 | uint64(b[i+5])<<16 | uint64(b[i+6])<<8 | uint64(b[i+7])
	}
	return Read(b, off, width)
}
