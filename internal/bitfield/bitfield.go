// Package bitfield reads and writes arbitrarily aligned bit slices inside
// byte buffers, using P4 header serialization order: bit 0 is the most
// significant bit of byte 0, and multi-bit fields are big-endian. Descriptor
// layouts produced by the OpenDesc compiler are addressed this way, and the
// NIC simulator serializes completions with the same routines the generated
// accessors use to read them.
package bitfield

import (
	"encoding/binary"
	"fmt"
)

// window picks the eight bytes that are loaded (and stored) as one big-endian
// word to reach bits [off, off+width) of an n-byte buffer: they start at the
// field's first byte, slid back where needed to end inside the buffer. It
// returns their index and the field's distance from the word's low end; ok
// is false when no such window exists — the buffer is shorter than eight
// bytes, or an unaligned field wider than 56 bits touches a ninth.
func window(n, off, width int) (i, shift int, ok bool) {
	i = off >> 3
	if i+8 > n {
		i = n - 8
	}
	shift = 64 - (off - 8*i) - width
	return i, shift, i >= 0 && shift >= 0
}

// Read extracts width bits starting at bit offset off. Width must be 1..64
// and the slice [off, off+width) must lie inside b; violations panic, as they
// indicate a compiler-generated layout inconsistent with the buffer.
func Read(b []byte, off, width int) uint64 {
	if width <= 0 || width > 64 {
		panic(fmt.Sprintf("bitfield: width %d out of range", width))
	}
	if off < 0 || off+width > len(b)*8 {
		panic(fmt.Sprintf("bitfield: read [%d,%d) outside %d-byte buffer", off, off+width, len(b)))
	}
	mask := ^uint64(0) >> (64 - width)
	if i, shift, ok := window(len(b), off, width); ok {
		return binary.BigEndian.Uint64(b[i:]) >> shift & mask
	}
	if len(b) < 8 {
		var w [8]byte
		copy(w[8-len(b):], b)
		return Read(w[:], off+(8-len(b))*8, width)
	}
	// Nine bytes: the bits up to the first byte boundary, then the rest.
	head := 8 - off&7
	return Read(b, off, head)<<(width-head) | Read(b, off+head, width-head)
}

// Write stores the low width bits of v starting at bit offset off. It is a
// read-modify-write of the whole eight-byte window, so up to eight bytes
// around the field are rewritten with their own values: goroutines must not
// share b, even to write disjoint fields.
func Write(b []byte, off, width int, v uint64) {
	if width <= 0 || width > 64 {
		panic(fmt.Sprintf("bitfield: width %d out of range", width))
	}
	if off < 0 || off+width > len(b)*8 {
		panic(fmt.Sprintf("bitfield: write [%d,%d) outside %d-byte buffer", off, off+width, len(b)))
	}
	mask := ^uint64(0) >> (64 - width)
	if i, shift, ok := window(len(b), off, width); ok {
		w := binary.BigEndian.Uint64(b[i:])
		binary.BigEndian.PutUint64(b[i:], w&^(mask<<shift)|(v&mask)<<shift)
		return
	}
	if len(b) < 8 {
		var w [8]byte
		copy(w[8-len(b):], b)
		Write(w[:], off+(8-len(b))*8, width, v)
		copy(b, w[8-len(b):])
		return
	}
	head := 8 - off&7
	Write(b, off, head, v>>(width-head))
	Write(b, off+head, width-head, v)
}

// ReadAligned is a fast path for byte-aligned fields of 8/16/32/64 bits; it
// falls back to Read otherwise. Generated accessors use this to get
// constant-time single-load reads for the common case.
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
