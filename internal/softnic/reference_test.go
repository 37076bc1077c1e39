package softnic

import (
	"bytes"
	"slices"
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

// kvKeyReference is KVKey over a payload as a byte loop: the oracle of the
// word-at-a-time key search.
func kvKeyReference(p []byte) uint64 {
	i := bytes.IndexByte(p, ' ')
	if i < 0 {
		return 0
	}
	i++ // the space
	start := i
	for i < len(p) && p[i] != ' ' && p[i] != '\r' && p[i] != '\n' {
		i++
	}
	if i == start {
		return 0
	}
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, b := range p[start:i] {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}

// checkKVKey compares KVKey and kv_key's burst form over the request payload
// with the byte-loop reference.
func checkKVKey(t *testing.T, payload []byte) {
	t.Helper()
	want := kvKeyReference(payload)
	f := pkt.NewBuilder().WithUDP(1, 11211).WithPayload(payload).Build()
	if got := KVKey(decode(t, f)); got != want {
		t.Fatalf("KVKey(%q) = %#x, reference %#x", payload, got, want)
	}
	var out [1]uint64
	kvKeys([][]byte{f}, out[:])
	if out[0] != want {
		t.Fatalf("kvKeys(%q) = %#x, reference %#x", payload, out[0], want)
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
	// The word-at-a-time search: keys of 0–17 bytes put the terminator at
	// each of the eight offsets of a word, in the first, second and third
	// word; the key bytes are near misses of the three terminators (one off,
	// or with the top bit set) and their neighbours in the borrow chain.
	for n := 0; n <= 17; n++ {
		for _, fill := range []byte{'k', 0x1f, 0x21, 0x0c, 0x0e, 0x8a, 0xa0, 0xff, 0x00, 0x01, 0x80} {
			for _, term := range []string{" 0 0 5\r\nhi", "\r\n", "\n", "\r", ""} {
				checkKVKey(t, append(append([]byte("get "), bytes.Repeat([]byte{fill}, n)...), term...))
			}
		}
	}
}

// FuzzKVKeyMatchesReference: KVKey and kv_key's burst form agree with the
// byte-loop reference on any payload, and the word-at-a-time search with a
// byte scan on any bytes.
func FuzzKVKeyMatchesReference(f *testing.F) {
	f.Add([]byte("get user:42\r\n"))
	f.Add([]byte("set k\xa0\x8a\x8d 0 0 5\r\nhello"))
	f.Add([]byte("get 0123456\n"))
	f.Add([]byte("get 01234567\r"))
	f.Add([]byte(" \x1f\x21\x0c\x0e\x09\x0b\x20"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		if len(p) > 1400 {
			p = p[:1400]
		}
		checkKVKey(t, p)
		want := 0
		for want < len(p) && p[want] != ' ' && p[want] != '\r' && p[want] != '\n' {
			want++
		}
		if got := keyEnd(p); got != want {
			t.Fatalf("keyEnd(%q) = %d, byte scan %d", p, got, want)
		}
	})
}

// checkBurst runs every burst form over frames, into slots that start out
// stale, and compares every slot with its row's scalar shim.
func checkBurst(t *testing.T, frames [][]byte) {
	t.Helper()
	var out [BurstMax]uint64
	for _, name := range burstForms() {
		row := Lookup(name)
		for i := range out {
			out[i] = 0xDEAD
		}
		row.Burst()(frames, out[:len(frames)])
		for i, f := range frames {
			if want := row.shim(f); out[i] != want {
				t.Fatalf("%s: slot %d of %d (frame %x): burst %#x, row %#x", name, i, len(frames), f, out[i], want)
			}
		}
	}
}

// burstForms names the rows with a burst form.
func burstForms() []semantics.Name {
	var names []semantics.Name
	for name, r := range rows {
		if r.burst != nil {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}

// TestBatchMatchesRow: every window of one to BurstMax frames over a mix
// that keeps the four lanes refilling — frames pkt.Decode rejects, empty
// payloads and keys, odd and equal lengths, key-value requests with keys of
// 0–200 bytes beside long payloads of unequal length — reads what each row
// reads frame by frame.
func TestBatchMatchesRow(t *testing.T) {
	if got := burstForms(); !slices.Equal(got, []semantics.Name{semantics.KVKey, semantics.PayloadHash}) {
		t.Fatalf("burst forms %v", got)
	}
	payload := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i*7 + n)
		}
		return p
	}
	request := func(n int) []byte {
		return append(append([]byte("get "), bytes.Repeat([]byte{'a' + byte(n%26)}, n)...), "\r\n"...)
	}
	var frames [][]byte
	for k, n := range []int{1024, 0, 63, 64, 65, 1, 1017, 1024, 7, 512, 1023, 100, 256, 256, 256, 256, 3, 3} {
		b := pkt.NewBuilder().WithUDP(1, 2)
		if k%3 == 0 {
			b = pkt.NewBuilder().WithVLAN(5).WithTCP(1, 2, 0)
		}
		frames = append(frames, b.WithPayload(payload(n)).Build())
		if k < 11 {
			key := []int{0, 1, 7, 8, 9, 15, 16, 17, 62, 200, 100}[k]
			frames = append(frames, pkt.NewBuilder().WithUDP(1, 11211).WithPayload(request(key)).Build())
		}
	}
	frames = append(frames, pkt.NewBuilder().WithUDP(1, 11211).WithPayload([]byte("set k 0 0 5\r\nhello")).Build(),
		nil, []byte{1, 2, 3}, make([]byte, 14), frames[0][:20])
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

// FuzzBatchMatchesRow: every burst form and its row agree on arbitrary bytes,
// cut into one to BurstMax frames; shape's bits make each frame either the
// raw bytes (mostly rejected) or a UDP frame carrying them as its payload.
func FuzzBatchMatchesRow(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0xA5}, 4*1024), uint64(0))
	f.Add(bytes.Repeat([]byte{1, 2, 3}, 300), uint64(0xFFFF))
	f.Add([]byte("get key\r\n"), uint64(7))
	f.Add(bytes.Repeat([]byte("get some:key\r\nset k 0 0 1\r\nx"), 40), uint64(BurstMax-1))
	f.Add([]byte{}, uint64(1))
	wideData, wideShape := wideSeed()
	f.Add(wideData, wideShape)
	f.Fuzz(func(t *testing.T, data []byte, shape uint64) {
		if len(data) > 16<<10 {
			data = data[:16<<10]
		}
		checkBurst(t, cutFrames(data, shape))
	})
}

// cutFrames is FuzzBatchMatchesRow's window: data cut into 1 + shape%BurstMax
// frames, frame i the raw piece where bit i of shape/BurstMax is set, else a
// UDP frame carrying it.
func cutFrames(data []byte, shape uint64) [][]byte {
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
	return frames
}

// wideSeed is a FuzzBatchMatchesRow seed whose window the AVX2 pre-pass
// takes: 24 frames, two of them raw (rejected), the rest UDP frames with
// 512-byte payloads (TestWideSeedTakesTheKernel holds it to that).
func wideSeed() ([]byte, uint64) {
	data := make([]byte, 12<<10)
	for i := range data {
		data[i] = byte(i*37 + i>>8)
	}
	return data, 23 + BurstMax*(1<<3|1<<17)
}

// BenchmarkBurstForms prices each row with a burst form per frame on
// shim_hardened's traffic mix (1 KiB payloads, 30% short key-value
// requests): the row's scalar shim, and its burst form over windows of
// BurstMax frames.
func BenchmarkBurstForms(b *testing.B) {
	tr, err := workload.Generate(workload.Spec{Packets: 1024, Flows: 64, PayloadBytes: 1024,
		TCPFraction: 0.6, VLANFraction: 0.3, KVFraction: 0.3, TunnelFraction: 0.3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range burstForms() {
		row := Lookup(name)
		b.Run(string(name)+"/shim", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink64 += row.shim(tr.Packets[i%len(tr.Packets)])
			}
		})
		b.Run(string(name)+"/burst", func(b *testing.B) {
			var out [BurstMax]uint64
			for i := 0; i < b.N; i += BurstMax {
				at := i % len(tr.Packets)
				row.Burst()(tr.Packets[at:at+BurstMax], out[:])
				sink64 += out[0]
			}
		})
	}
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
