package softnic

import (
	"bytes"
	"math"
	"strconv"
	"testing"

	"opendesc/internal/pkt"
)

// fnv1a32 is FNV-1a-32 as a byte loop, the definition every body must meet.
func fnv1a32(p []byte) uint64 {
	h := uint32(2166136261)
	for _, b := range p {
		h = (h ^ uint32(b)) * 16777619
	}
	return uint64(h)
}

// hashBoth hashes spans on the four-lane scheduler alone (the generic body)
// and on the AVX2 pre-pass (run on minLive long spans or more) plus the
// scheduler, and fails unless both meet the byte loop. It reports how many
// spans the pre-pass covered.
func hashBoth(t *testing.T, spans [][]byte, minLive int) (covered int) {
	t.Helper()
	n := len(spans)
	at := make([]int, n)
	start := make([]uint64, n)
	for k := range at {
		at[k], start[k] = k, fnv32.offset
	}
	generic := make([]uint64, n)
	fnv32.lanes(append([][]byte(nil), spans...), start, at, generic)

	in := append([][]byte(nil), spans...)
	h := append([]uint64(nil), start...)
	wide(in, h, minLive)
	for k := range in {
		if len(in[k]) != len(spans[k]) {
			covered++
		}
	}
	vector := make([]uint64, n)
	fnv32.lanes(in, h, at, vector)
	for k, s := range spans {
		want := fnv1a32(s)
		if generic[k] != want || vector[k] != want {
			t.Fatalf("span %d of %d (%d bytes): generic %#x, vector %#x, byte loop %#x", k, n, len(s), generic[k], vector[k], want)
		}
	}
	return covered
}

// TestWideMatchesGeneric: the AVX2 body continued by the four-lane scheduler
// hashes what the scheduler alone does, for 8 to 32 long spans of unequal
// length (256-2048 bytes) with short and empty spans among them; and the
// selection rule leaves a window with fewer than wideLanes long spans to the
// scheduler.
func TestWideMatchesGeneric(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2: the four-lane scheduler is payload_hash's only body")
	}
	seed := uint32(1)
	rnd := func(n int) int {
		seed = seed*1664525 + 1013904223
		return int(seed>>8) % n
	}
	for long := 7; long <= BurstMax; long++ {
		for short := range 3 {
			if long+short > BurstMax {
				continue
			}
			var spans [][]byte
			for range long {
				s := make([]byte, 256+rnd(2048-256+1))
				for i := range s {
					s[i] = byte(rnd(256))
				}
				spans = append(spans, s)
			}
			for k := range short {
				spans = append(spans, bytes.Repeat([]byte{byte(k)}, rnd(wideMin)))
			}
			for k := range spans { // shuffle: the long spans are not a prefix
				j := rnd(k + 1)
				spans[k], spans[j] = spans[j], spans[k]
			}
			if got := hashBoth(t, spans, 8); got != long && long >= 8 {
				t.Fatalf("%d long and %d short spans: the kernel covered %d", long, short, got)
			}
			want := long
			if long < wideLanes {
				want = 0
			}
			if got := hashBoth(t, spans, wideLanes); got != want {
				t.Fatalf("%d long and %d short spans: the pre-pass covered %d, want %d", long, short, got, want)
			}
		}
	}
}

// TestWideBurstSkipsRejectedAndShortFrames: a window whose long payloads
// take the AVX2 body, with frames pkt.Decode rejects, key-value requests and
// empty payloads between them, reads what each row reads frame by frame.
func TestWideBurstSkipsRejectedAndShortFrames(t *testing.T) {
	var frames [][]byte
	for k := range 16 {
		payload := make([]byte, 300+97*k)
		for i := range payload {
			payload[i] = byte(i*k + 5)
		}
		frames = append(frames, pkt.NewBuilder().WithVLAN(uint16(k)).WithTCP(1, 2, 0).WithPayload(payload).Build())
		switch k % 4 {
		case 0:
			frames = append(frames, []byte{1, 2, 3})
		case 1:
			frames = append(frames, pkt.NewBuilder().WithUDP(1, 11211).WithPayload([]byte("get k:"+string(rune('a'+k))+"\r\n")).Build())
		case 2:
			frames = append(frames, pkt.NewBuilder().WithUDP(1, 2).Build())
		}
	}
	if got := wideCovers(frames); got != 16 {
		t.Fatalf("the pre-pass covers %d of the window's payloads, want 16", got)
	}
	checkBurst(t, frames)
}

// wideCovers is how many of frames' payloads the AVX2 pre-pass covers.
func wideCovers(frames [][]byte) int {
	var spans [][]byte
	for _, f := range frames {
		var in pkt.Info
		if pkt.Decode(f, &in) == nil {
			spans = append(spans, in.Payload())
		}
	}
	_, live, _ := wideWindow(spans, wideLanes)
	return live
}

// TestWideSeedTakesTheKernel: FuzzBatchMatchesRow's wide seed is a window
// the AVX2 pre-pass runs on, so the fuzz corpus reaches the vector body.
func TestWideSeedTakesTheKernel(t *testing.T) {
	if got := wideCovers(cutFrames(wideSeed())); got < wideLanes {
		t.Fatalf("the wide seed gives the pre-pass %d long payloads, want at least %d", got, wideLanes)
	}
}

// TestLaneOffsetsFallBackPast2GiB: the kernel's int32 offsets reach 2 GiB
// past the lowest span; a window spread wider falls back to the scheduler.
func TestLaneOffsetsFallBackPast2GiB(t *testing.T) {
	const n = 1024
	var addr [BurstMax]uintptr
	for k := range addr {
		addr[k] = 1<<40 + uintptr(k)*4096
	}
	addr[5] = 1<<40 - 64 // the lowest
	var off [BurstMax]int32
	low, ok := laneOffsets(&addr, n, &off)
	if !ok || low != 5 || off[5] != 0 || off[0] != 64 || off[31] != 31*4096+64 {
		t.Fatalf("laneOffsets: low %d ok %v, off[0] %d off[5] %d off[31] %d", low, ok, off[0], off[5], off[31])
	}
	addr[9] = addr[5] + math.MaxInt32 - n // the last byte read is 2 GiB - 1 past the lowest
	if _, ok := laneOffsets(&addr, n, &off); !ok || off[9] != math.MaxInt32-n {
		t.Fatalf("spread 2 GiB - n: ok %v, off[9] %d", ok, off[9])
	}
	addr[9]++
	if _, ok := laneOffsets(&addr, n, &off); ok {
		t.Fatal("spread 2 GiB - n + 1 does not fall back")
	}
}

// BenchmarkFNVLanes prices FNV-1a-32 over windows of 8, 12, 16 and 32
// payloads of 1 KiB: the four-lane scheduler alone, and the AVX2 kernel
// before it whatever the window's size (wideLanes is where it starts to pay).
func BenchmarkFNVLanes(b *testing.B) {
	for _, live := range []int{8, 12, 16, 32} {
		spans := make([][]byte, live)
		for k := range spans {
			spans[k] = bytes.Repeat([]byte{byte(k)}, 1024)
		}
		at := make([]int, live)
		for k := range at {
			at[k] = k
		}
		h := make([]uint64, live)
		in := make([][]byte, live)
		out := make([]uint64, live)
		run := func(b *testing.B, vector bool) {
			b.SetBytes(int64(live * 1024))
			for b.Loop() {
				copy(in, spans)
				for k := range h {
					h[k] = fnv32.offset
				}
				if vector {
					wide(in, h, 1)
				}
				fnv32.lanes(in, h, at, out)
			}
			sink64 += out[0]
		}
		b.Run("generic/"+strconv.Itoa(live), func(b *testing.B) { run(b, false) })
		if haveAVX2 {
			b.Run("avx2/"+strconv.Itoa(live), func(b *testing.B) { run(b, true) })
		}
	}
}
