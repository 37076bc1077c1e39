package pkt

import "math/bits"

// vectorMin is the shortest body Add gives the SSE2 body: below two of its
// 64-byte iterations the word-at-a-time loop is as fast.
const vectorMin = 128

// vectorChunk bounds one sumLE call: each signed 32-bit lane of its
// accumulators gains one pair of biased words, at most 2^16 in magnitude,
// per 64 bytes, so 64 KiB moves a lane by at most 2^26 and none can
// overflow.
const vectorChunk = 64 << 10

// vectorSum is the one's complement sum of b, whose length is a multiple of
// 64, as a 16-bit value in network byte order. The SSE2 body sums b as
// little-endian words, which RFC 1071 §2(B) allows: the sum of byte-swapped
// words is the byte-swapped sum, so the folded sum is swapped once at the end.
func vectorSum(b []byte) uint64 {
	var s uint64
	for len(b) > 0 {
		n := min(len(b), vectorChunk)
		s += sumLE(&b[0], n)
		b = b[n:]
	}
	for s>>16 != 0 {
		s = s>>16 + s&0xFFFF
	}
	return uint64(bits.ReverseBytes16(uint16(s)))
}

// sumLE adds the n bytes at p (n > 0, a multiple of 64, at most vectorChunk)
// as little-endian 16-bit words, without folding.
//
//go:noescape
func sumLE(p *byte, n int) uint64
