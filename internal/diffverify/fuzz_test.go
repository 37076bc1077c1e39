package diffverify

import (
	"testing"

	"opendesc/internal/nic"
)

// FuzzMutate is the adversarial contract of the whole harness: for any
// source and seed, mutation is deterministic, and a mutant that survives
// sema either passes three-view verification or is rejected with a structured
// reason — never a panic, never a silent disagreement.
func FuzzMutate(f *testing.F) {
	for _, m := range nic.All() {
		f.Add(m.Source, uint64(1))
		f.Add(m.Source, uint64(0xdead_beef))
	}
	f.Add("header h { bit<8> a; }", uint64(7))
	f.Add(`header h { @semantic("pkt_len") bit<16> len; bit<48> pad; }
control CmptDeparser(in h meta, cmpt_out cq) { apply { cq.emit(meta); } }`, uint64(3))
	f.Fuzz(func(t *testing.T, src string, seed uint64) {
		out, ops, err := Mutate(src, seed)
		if err != nil {
			return // unparseable or unmutable input: nothing to screen
		}
		out2, ops2, err2 := Mutate(src, seed)
		if err2 != nil || out != out2 || ops != ops2 {
			t.Fatalf("mutation not deterministic for seed %#x", seed)
		}
		// MaxPaths and MaxCases are tightened so adversarial switch
		// pyramids and wide fan-outs bound the screen's work; exceeding
		// MaxPaths is a structured rejection like any other out-of-domain
		// description.
		v := screenSource("fuzz", out, Options{MaxPaths: 256, Packets: 1, MaxCases: 2048})
		switch v.Outcome {
		case OutcomePass, OutcomeRejected:
		case OutcomeDisagree:
			t.Fatalf("silent triad divergence (seed %#x, ops %s): %s\nmutant:\n%s", seed, ops, v.Reason, out)
		default:
			t.Fatalf("unexpected outcome %q", v.Outcome)
		}
	})
}
