package diffverify

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"opendesc/internal/nic"
)

// TestBundledNICsExhaustive is the tentpole acceptance check: the harness
// covers the full completion-path space of all six bundled NICs with zero
// four-way disagreements.
func TestBundledNICsExhaustive(t *testing.T) {
	models := nic.All()
	if len(models) != 6 {
		t.Fatalf("expected 6 bundled NICs, have %d", len(models))
	}
	for _, m := range models {
		rep, err := VerifyModel(m, Options{})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if !rep.OK() {
			t.Errorf("%s: %s", m.Name, rep)
		}
		if rep.Paths == 0 || rep.Cases == 0 || rep.Checks == 0 {
			t.Errorf("%s: degenerate report %+v", m.Name, rep)
		}
		if !strings.Contains(rep.String(), "PASS") {
			t.Errorf("%s: report does not render PASS:\n%s", m.Name, rep)
		}
	}
}

// TestReportDeterministic: the harness uses no wall clock and no global RNG,
// so two runs over the same description render byte-identical reports.
func TestReportDeterministic(t *testing.T) {
	for _, m := range nic.All() {
		a, err := VerifyModel(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := VerifyModel(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("%s: report not deterministic:\n%s\nvs\n%s", m.Name, a, b)
		}
	}
}

// TestAblationCaught: a deliberately mis-offset accessor (the BreakAccessor
// ablation) must be caught on every NIC and reported as a minimal
// reproducer — the byte image zero everywhere except the failing field and
// the pinned discriminants.
func TestAblationCaught(t *testing.T) {
	for _, m := range nic.All() {
		rep, err := VerifyModel(m, Options{BreakAccessor: true})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if rep.OK() {
			t.Errorf("%s: broken accessor not caught", m.Name)
			continue
		}
		d := rep.Disagreements[0]
		if d.View != "accessor" {
			t.Errorf("%s: first disagreement view %q, want accessor", m.Name, d.View)
		}
		if d.Want == d.Got {
			t.Errorf("%s: reproducer does not diverge: %s", m.Name, d)
		}
		if len(d.Image) == 0 {
			t.Errorf("%s: reproducer has no byte image", m.Name)
		}
		if !strings.Contains(d.String(), "image") {
			t.Errorf("%s: reproducer rendering lacks the image:\n%s", m.Name, d)
		}
	}
}

// TestAblationReproducerMinimal checks the shrink: re-running the harness on
// e1000e with the ablation must yield a reproducer whose image carries only
// the failing field's bits (everything else zeroed to 0 by minimization,
// modulo the pinned discriminants which live in context registers, not in
// the record).
func TestAblationReproducerMinimal(t *testing.T) {
	m := nic.MustLoad("e1000e")
	rep, err := VerifyModel(m, Options{BreakAccessor: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("broken accessor not caught")
	}
	d := rep.Disagreements[0]
	paths, err := m.Paths()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if p.ID != d.PathID {
			continue
		}
		for _, f := range p.Fields {
			if f.Name == d.Field || f.WidthBits > 64 {
				continue
			}
			if v := readField(d.Image, f); v != 0 {
				t.Errorf("minimized image still carries %s=%#x", f.Name, v)
			}
		}
	}
}

// TestWideSemanticRejected: a description whose emitted semantic field
// exceeds 64 bits parses and checks fine but is structurally outside the
// accessor runtime's domain; the harness must reject it with a structured
// reason, never run it into a bitfield panic.
func TestWideSemanticRejected(t *testing.T) {
	m := nic.MustLoad("e1000e")
	src, err := WidenFirstSemantic(m.Source, 96)
	if err != nil {
		t.Fatal(err)
	}
	_, err = VerifySource("widened", src, Options{})
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("want RejectedError, got %v", err)
	}
	if !strings.Contains(rej.Reason, "96 bits") {
		t.Errorf("reason does not name the width: %s", rej.Reason)
	}
}

// TestMalformedSourceRejected: parse and sema failures surface as structured
// rejections, not internal errors.
func TestMalformedSourceRejected(t *testing.T) {
	for _, src := range []string{
		"",
		"header h {",
		"header h { bit<8> a; } control C(in h x) { apply {} }",
	} {
		_, err := VerifySource("bad", src, Options{})
		var rej *RejectedError
		if !errors.As(err, &rej) {
			t.Errorf("source %q: want RejectedError, got %v", src, err)
		}
	}
}

// TestCertify: bundled sources certify as passed under their content digest;
// the widened source certifies as failed with the rejection as reason.
func TestCertify(t *testing.T) {
	m := nic.MustLoad("mlx5")
	cert := Certify(m.Name, m.Source)
	if !cert.Passed {
		t.Fatalf("bundled %s failed certification: %s", m.Name, cert.Reason)
	}
	if cert.Digest == "" || cert.Paths == 0 || cert.Checks == 0 {
		t.Errorf("degenerate certificate %+v", cert)
	}
	src, err := WidenFirstSemantic(m.Source, 128)
	if err != nil {
		t.Fatal(err)
	}
	bad := Certify("mlx5-wide", src)
	if bad.Passed {
		t.Fatal("widened description certified as passed")
	}
	if bad.Reason == "" {
		t.Error("failed certificate carries no reason")
	}
}

// TestCertifyCached: the digest-keyed cache returns identical certificates
// without re-running the harness (same struct value both times).
func TestCertifyCached(t *testing.T) {
	m := nic.MustLoad("ice")
	a := CertifyCached(m.Name, m.Source)
	b := CertifyCached(m.Name, m.Source)
	if a != b {
		t.Errorf("cached certificates differ: %+v vs %+v", a, b)
	}
	if !a.Passed {
		t.Errorf("ice failed certification: %s", a.Reason)
	}
}

// TestBoundaryPatterns: the battery always includes zero, all-ones, and the
// sign bit, deduplicated.
func TestBoundaryPatterns(t *testing.T) {
	for _, w := range []int{1, 2, 7, 8, 31, 32, 63, 64} {
		pats := boundaryPatterns(w)
		seen := map[uint64]bool{}
		for _, p := range pats {
			if p > widthMask(w) {
				t.Errorf("width %d: pattern %#x exceeds mask", w, p)
			}
			if seen[p] {
				t.Errorf("width %d: duplicate pattern %#x", w, p)
			}
			seen[p] = true
		}
		if !seen[0] || !seen[widthMask(w)] || !seen[uint64(1)<<(w-1)] {
			t.Errorf("width %d: battery %v misses a required boundary", w, pats)
		}
	}
}

// TestCertifyCachedOncePerDigest: goroutines that miss on one digest
// together share a single harness run and all receive its certificate.
func TestCertifyCachedOncePerDigest(t *testing.T) {
	var memo certMemo
	var runs atomic.Int64
	release := make(chan struct{})
	certify := func() Certificate {
		runs.Add(1)
		<-release // hold the first run open while the other callers arrive
		return Certificate{Digest: "d", Passed: true}
	}
	const callers = 8
	var started, done sync.WaitGroup
	certs := make([]Certificate, callers)
	for i := 0; i < callers; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			started.Done()
			certs[i] = memo.get("d", certify)
		}(i)
	}
	started.Wait()
	close(release)
	done.Wait()
	if n := runs.Load(); n != 1 {
		t.Errorf("%d concurrent misses on one digest ran the harness %d times, want 1", callers, n)
	}
	for i, c := range certs {
		if !c.Passed || c.Digest != "d" {
			t.Errorf("caller %d got %+v", i, c)
		}
	}
	if memo.get("other", func() Certificate { runs.Add(1); return Certificate{} }); runs.Load() != 2 {
		t.Errorf("a second digest did not run the harness: %d runs", runs.Load())
	}
}
