package softnic

import (
	"bytes"
	"testing"

	"opendesc/internal/pkt"
	"opendesc/internal/semantics"
	"opendesc/internal/workload"
)

// Toeplitz is the bit-serial hash of a whole input: the oracle for the
// table, itself pinned to the Microsoft RSS verification vectors in
// softnic_test.go.
func Toeplitz(key, input []byte) uint32 {
	var hash uint32
	for i, in := range input {
		hash ^= toeplitzAt(key, i, in)
	}
	return hash
}

// FuzzToeplitzMatchesBitSerial: the tabulated hash and the bit-serial
// function that builds the tables agree for every key and input, including
// keys shorter than a window and inputs longer than the table.
func FuzzToeplitzMatchesBitSerial(f *testing.F) {
	tuple4 := []byte{66, 9, 149, 187, 161, 142, 100, 80, 0x0a, 0xea, 0x06, 0xe6}
	f.Add(DefaultToeplitzKey[:], tuple4)
	f.Add(SymmetricToeplitzKey[:], tuple4)
	f.Add(DefaultToeplitzKey[:], bytes.Repeat([]byte{0xFF}, toeplitzPositions))
	f.Add(DefaultToeplitzKey[:], bytes.Repeat([]byte{0xA5}, toeplitzPositions+1))
	f.Add(SymmetricToeplitzKey[:], bytes.Repeat([]byte{0x5A, 0}, 40)) // past table and key
	f.Add([]byte{1, 2, 3}, tuple4)                                    // no window
	f.Add([]byte{0x80, 0, 0, 1}, tuple4)                              // exactly one window
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, key, input []byte) {
		if len(input) > 256 {
			input = input[:256]
		}
		want := Toeplitz(key, input)
		if got := NewToeplitzTable(key).Hash(input); got != want {
			t.Fatalf("table(%x).Hash(%x) = %#x, bit-serial %#x", key, input, got, want)
		}
	})
}

// TestToeplitzTableCopiesKey: the table is a value of the key at construction.
func TestToeplitzTableCopiesKey(t *testing.T) {
	key := append([]byte(nil), DefaultToeplitzKey[:]...)
	long := bytes.Repeat([]byte{0xC3}, 64)
	tab := NewToeplitzTable(key)
	want := tab.Hash(long)
	clear(key)
	if got := tab.Hash(long); got != want {
		t.Errorf("hash moved with the caller's key slice: %#x → %#x", want, got)
	}
}

func TestKVKeyVerbScan(t *testing.T) {
	digest := func(payload string) uint64 {
		p := pkt.NewBuilder().WithUDP(1, 11211).WithPayload([]byte(payload)).Build()
		return KVKey(decode(t, p))
	}
	key := digest("get user:42\r\n")
	if key == 0 {
		t.Fatal("get key digest is zero")
	}
	for _, c := range []struct {
		payload string
		same    bool // as "get user:42": true, or 0: false
	}{
		{"get user:42", true},   // key runs to the end of the payload
		{"get user:42\n", true}, // bare LF
		{"get user:42\r", true}, // bare CR
		{"set user:42 0 0 5\r\nhello", true},
		{"delete user:42 noreply\r\n", true},
		{" user:42\r\n", true},      // empty verb
		{"get", false},              // no space
		{"get ", false},             // space last
		{"get \r\n", false},         // terminator where the key starts
		{"get  user:42\r\n", false}, // second space where the key starts
		{"\r\n", false},
		{"", false},
		{string(bytes.Repeat([]byte{'x'}, 1024)), false}, // non-KV payload: one scan, no space
	} {
		got := digest(c.payload)
		if c.same && got != key {
			t.Errorf("%q: digest %#x, want that of user:42 (%#x)", c.payload, got, key)
		}
		if !c.same && got != 0 {
			t.Errorf("%q: digest %#x, want 0", c.payload, got)
		}
	}
}

// checkBurst runs payload_hash's burst form over frames, into slots that
// start out stale, and compares every slot with the row's scalar shim.
func checkBurst(t *testing.T, frames [][]byte) {
	t.Helper()
	row := Lookup(semantics.PayloadHash)
	var out [BurstMax]uint64
	for i := range out {
		out[i] = 0xDEAD
	}
	row.Burst()(frames, out[:len(frames)])
	for i, f := range frames {
		if want := row.shim(f); out[i] != want {
			t.Fatalf("slot %d of %d (frame %x): burst %#x, row %#x", i, len(frames), f, out[i], want)
		}
	}
}

// TestBatchMatchesRow: every window of one to BurstMax frames over a mix
// that reaches every branch of the burst form — frames pkt.Decode rejects,
// empty and odd-length payloads, payloads either side of interleaveMin and
// long ones of unequal length — reads what the row reads frame by frame.
func TestBatchMatchesRow(t *testing.T) {
	payload := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i*7 + n)
		}
		return p
	}
	var frames [][]byte
	for k, n := range []int{1024, 0, interleaveMin - 1, interleaveMin, interleaveMin + 1, 1, 1017, 1024, 7, 512, 1023, 100} {
		b := pkt.NewBuilder().WithUDP(1, 2)
		if k%3 == 0 {
			b = pkt.NewBuilder().WithVLAN(5).WithTCP(1, 2, 0)
		}
		frames = append(frames, b.WithPayload(payload(n)).Build())
	}
	frames = append(frames, nil, []byte{1, 2, 3}, make([]byte, 14), frames[0][:20])
	for _, order := range [][][]byte{frames, reversed(frames)} {
		for start := range order {
			for n := 1; n <= BurstMax && start+n <= len(order); n++ {
				checkBurst(t, order[start:start+n])
			}
		}
	}
}

func reversed(s [][]byte) [][]byte {
	r := make([][]byte, len(s))
	for i, x := range s {
		r[len(s)-1-i] = x
	}
	return r
}

// FuzzBatchMatchesRow: the burst form and the row agree on arbitrary bytes,
// cut into one to BurstMax frames; shape's bits make each frame either the
// raw bytes (mostly rejected) or a UDP frame carrying them as its payload.
func FuzzBatchMatchesRow(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0xA5}, 4*1024), uint64(0))
	f.Add(bytes.Repeat([]byte{1, 2, 3}, 300), uint64(0xFFFF))
	f.Add([]byte("get key\r\n"), uint64(7))
	f.Add([]byte{}, uint64(1))
	f.Fuzz(func(t *testing.T, data []byte, shape uint64) {
		if len(data) > 8<<10 {
			data = data[:8<<10]
		}
		n := 1 + int(shape%BurstMax)
		shape /= BurstMax
		frames := make([][]byte, n)
		for i := range frames {
			piece := data[:len(data)/(n-i)]
			data = data[len(piece):]
			if shape&(1<<i) != 0 {
				frames[i] = piece
			} else {
				frames[i] = pkt.NewBuilder().WithUDP(1, 2).WithPayload(piece).Build()
			}
		}
		checkBurst(t, frames)
	})
}

// BenchmarkPayloadHash prices payload_hash per frame on shim_hardened's
// traffic mix (1 KiB payloads, 30% short key-value requests): the row's
// scalar shim, and its burst form over windows of BurstMax frames.
func BenchmarkPayloadHash(b *testing.B) {
	tr, err := workload.Generate(workload.Spec{Packets: 1024, Flows: 64, PayloadBytes: 1024,
		TCPFraction: 0.6, VLANFraction: 0.3, KVFraction: 0.3, TunnelFraction: 0.3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	row := Lookup(semantics.PayloadHash)
	b.Run("shim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink64 += row.shim(tr.Packets[i%len(tr.Packets)])
		}
	})
	b.Run("burst", func(b *testing.B) {
		var out [BurstMax]uint64
		for i := 0; i < b.N; i += BurstMax {
			at := i % len(tr.Packets)
			row.Burst()(tr.Packets[at:at+BurstMax], out[:])
			sink64 += out[0]
		}
	})
}

var (
	sink32 uint32
	sink64 uint64
)

func benchToeplitz(b *testing.B, p []byte) {
	in := new(pkt.Info)
	if err := pkt.Decode(p, in); err != nil {
		b.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { sink32 = RSS(in) }); a != 0 {
		b.Fatalf("%v allocs per hash, want 0", a)
	}
	tuple := int64(12)
	if in.L3 == pkt.L3IPv6 {
		tuple = 36
	}
	b.SetBytes(tuple)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink32 = RSS(in)
	}
}

func BenchmarkToeplitzIPv4(b *testing.B) {
	benchToeplitz(b, pkt.NewBuilder().
		WithIPv4([4]byte{66, 9, 149, 187}, [4]byte{161, 142, 100, 80}).WithTCP(2794, 1766, 0x18).Build())
}

func BenchmarkToeplitzIPv6(b *testing.B) {
	benchToeplitz(b, pkt.NewBuilder().
		WithIPv6([16]byte{0x3f, 0xfe, 0x25, 0x01, 15: 0x5b}, [16]byte{0x3f, 0xfe, 0x25, 0x01, 14: 0x99, 15: 0x11}).
		WithTCP(2794, 1766, 0x18).Build())
}
