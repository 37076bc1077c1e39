package semantics_test

// Property tests for the Toeplitz RSS hash that steers the multi-tenant
// serving plane. They live with the semantics registry (the contract layer
// that defines what "rss" means) and exercise the softnic implementation:
//
//  1. distribution — over a seeded corpus of random 5-tuples, queue
//     assignment hash%Q is near-uniform (no shard starves);
//  2. symmetry — under SymmetricToeplitzKey, flipping src/dst addresses and
//     ports never changes the hash (both directions of a connection land on
//     the same core);
//  3. the Microsoft reference key is demonstrably NOT symmetric (negative
//     control: the symmetric property is a property of the key, not of
//     Toeplitz itself).

import (
	"testing"

	"opendesc/internal/pkt"
	"opendesc/internal/softnic"
)

// tupleRNG is splitmix64 — the corpus must be identical on every run and
// every Go release.
type tupleRNG struct{ s uint64 }

func (r *tupleRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// corpus decodes n random-5-tuple UDP packets into pkt.Info values.
func corpus(t *testing.T, n int, seed uint64) []pkt.Info {
	t.Helper()
	rng := &tupleRNG{s: seed}
	infos := make([]pkt.Info, n)
	for i := range infos {
		v := rng.next()
		w := rng.next()
		p := pkt.NewBuilder().
			WithIPv4(
				[4]byte{10, byte(v >> 16), byte(v >> 8), byte(v)},
				[4]byte{172, 16, byte(v >> 32), byte(v >> 24)},
			).
			WithUDP(uint16(1024+w%60000), uint16(1024+(w>>16)%60000)).
			Build()
		if err := pkt.Decode(p, &infos[i]); err != nil {
			t.Fatalf("corpus packet %d: %v", i, err)
		}
	}
	return infos
}

// flip returns the reverse direction of a 5-tuple: src/dst addresses and
// ports swapped.
func flip(in pkt.Info) pkt.Info {
	out := in
	out.SrcIP, out.DstIP = in.DstIP, in.SrcIP
	out.SrcPort, out.DstPort = in.DstPort, in.SrcPort
	return out
}

// TestRSSQueueDistribution: hash%Q over the corpus must give every queue
// close to its fair share, for both keys and representative queue counts.
func TestRSSQueueDistribution(t *testing.T) {
	const n = 4096
	infos := corpus(t, n, 11)
	for _, key := range [][]byte{softnic.DefaultToeplitzKey[:], softnic.SymmetricToeplitzKey[:]} {
		for _, queues := range []int{2, 4, 8} {
			counts := make([]int, queues)
			tab := softnic.NewToeplitzTable(key)
			for i := range infos {
				counts[int(tab.RSS(&infos[i]))%queues]++
			}
			expect := n / queues
			// ±30% of fair share is > 6σ for the binomial at these sizes:
			// a biased hash fails hard, a uniform one never trips.
			lo, hi := expect*7/10, expect*13/10
			for q, c := range counts {
				if c < lo || c > hi {
					t.Errorf("key %x…, %d queues: queue %d got %d of %d (fair %d)",
						key[0], queues, q, c, n, expect)
				}
			}
		}
	}
}

// TestSymmetricKeyFlipAgreement: the repeating-16-bit key hashes both flow
// directions identically — every 5-tuple field moves by a whole multiple of
// the key's 16-bit period when src and dst swap.
func TestSymmetricKeyFlipAgreement(t *testing.T) {
	infos := corpus(t, 2048, 23)
	tab := softnic.NewToeplitzTable(softnic.SymmetricToeplitzKey[:])
	for i := range infos {
		fwd := tab.RSS(&infos[i])
		rev := flip(infos[i])
		if bwd := tab.RSS(&rev); fwd != bwd {
			t.Fatalf("tuple %d: forward %#x != reverse %#x under the symmetric key", i, fwd, bwd)
		}
	}
}

// TestDefaultKeyIsNotSymmetric: the Microsoft reference key must disagree
// on flipped tuples — if this ever passes symmetrically, the negative
// control (and the reason SymmetricToeplitzKey exists) is broken.
func TestDefaultKeyIsNotSymmetric(t *testing.T) {
	infos := corpus(t, 256, 31)
	asymmetric := 0
	for i := range infos {
		fwd := softnic.RSS(&infos[i])
		rev := flip(infos[i])
		if fwd != softnic.RSS(&rev) {
			asymmetric++
		}
	}
	if asymmetric == 0 {
		t.Fatal("the Microsoft reference key behaved symmetrically over the whole corpus")
	}
}

// TestRSSKeyMatchesRSS: a table built from the default key is exactly RSS.
func TestRSSKeyMatchesRSS(t *testing.T) {
	infos := corpus(t, 128, 41)
	tab := softnic.NewToeplitzTable(softnic.DefaultToeplitzKey[:])
	for i := range infos {
		if softnic.RSS(&infos[i]) != tab.RSS(&infos[i]) {
			t.Fatalf("tuple %d: RSS != table(default key).RSS", i)
		}
	}
}
