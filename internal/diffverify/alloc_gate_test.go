package diffverify

import (
	"testing"

	"opendesc/internal/nic"
)

// TestVerifyAllocGate bounds what verification allocates — counts the
// machine's speed cannot move. A pass over the six bundled NICs pays for
// its analyses, its eighteen synthesized per-path parsers and runtimes, and
// little else: a case reuses the checker's environment, images, walked
// layout and interpreter result. What a case still allocates is its golden
// packet (two) and one ast.MemberExpr.Path string per context name its
// branch conditions read, which sema.Eval builds and this package leaves
// alone. The map-based checker this one replaced read 42 195 and ~47.
func TestVerifyAllocGate(t *testing.T) {
	const maxPass, maxPerCase = 12000, 8

	models := nic.All()
	pass := testing.AllocsPerRun(5, func() {
		for _, m := range models {
			if _, err := VerifyModel(m, Options{}); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("six-NIC pass: %.0f allocations (gate %d)", pass, maxPass)
	if pass > maxPass {
		t.Errorf("one six-NIC pass allocates %.0f, more than %d", pass, maxPass)
	}

	// The marginal case: the same NIC with 4 and with 36 golden packets per
	// path differs by 32 cases per path and by nothing else.
	for _, m := range models {
		cases := func(packets int) (int, float64) {
			n := 0
			allocs := testing.AllocsPerRun(5, func() {
				rep, err := VerifyModel(m, Options{Packets: packets})
				if err != nil {
					t.Fatal(err)
				}
				n = rep.Cases
			})
			return n, allocs
		}
		nFew, few := cases(4)
		nMany, many := cases(36)
		perCase := (many - few) / float64(nMany-nFew)
		t.Logf("%s: %.0f allocations for %d cases, %.0f for %d → %.2f per case (gate %d)",
			m.Name, few, nFew, many, nMany, perCase, maxPerCase)
		if perCase > maxPerCase {
			t.Errorf("%s: a case allocates %.2f, more than %d", m.Name, perCase, maxPerCase)
		}
	}
}
