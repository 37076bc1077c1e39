package faults

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("corrupt=1e-3,truncate=1e-4,drop=0.25,nak=0.5,hang=2@5000,burst=128,bits=3,dup=0.1,replay=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if p.CorruptP != 1e-3 || p.TruncateP != 1e-4 || p.DropP != 0.25 || p.NAKP != 0.5 {
		t.Fatalf("probabilities mis-parsed: %+v", p)
	}
	if p.HangCount != 2 || p.HangMTBF != 5000 || p.HangBurst != 128 || p.BurstBits != 3 {
		t.Fatalf("hang spec mis-parsed: %+v", p)
	}
	if p.DuplicateP != 0.1 || p.ReplayP != 0.2 {
		t.Fatalf("dup/replay mis-parsed: %+v", p)
	}
	for _, bad := range []string{"corrupt", "corrupt=2", "hang=5", "hang=2@0", "bogus=1", "burst=-1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): want error", bad)
		}
	}
	if _, err := ParseSpec(""); err != nil {
		t.Errorf("empty spec should be the null plan: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() ([]byte, Stats) {
		inj := New(Plan{Seed: 7, CorruptP: 0.2, DropP: 0.1, TruncateP: 0.1})
		var log []byte
		rec := make([]byte, 16)
		for i := 0; i < 2000; i++ {
			for j := range rec {
				rec[j] = byte(i + j)
			}
			out, _ := inj.Completion(rec)
			if out == nil {
				log = append(log, 0xFF)
			} else {
				log = append(log, out...)
			}
		}
		return log, inj.Stats()
	}
	a, sa := run()
	b, sb := run()
	if !bytesEqual(a, b) {
		t.Fatal("same seed produced different fault sequences")
	}
	if sa.Total() != sb.Total() || sa.Total() == 0 {
		t.Fatalf("stats diverged or empty: %d vs %d", sa.Total(), sb.Total())
	}
	c, _ := func() ([]byte, Stats) {
		inj := New(Plan{Seed: 8, CorruptP: 0.2, DropP: 0.1, TruncateP: 0.1})
		var log []byte
		rec := make([]byte, 16)
		for i := 0; i < 2000; i++ {
			for j := range rec {
				rec[j] = byte(i + j)
			}
			out, _ := inj.Completion(rec)
			if out == nil {
				log = append(log, 0xFF)
			} else {
				log = append(log, out...)
			}
		}
		return log, inj.Stats()
	}()
	if bytesEqual(a, c) {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestHangScheduleAndReset(t *testing.T) {
	inj := New(Plan{Seed: 1, HangCount: 2, HangMTBF: 100, HangBurst: 10})
	hangs := 0
	for op := 1; op <= 400; op++ {
		wasHung := inj.Hung()
		hung := inj.Tick()
		if hung && !wasHung {
			hangs++
			// Resets must fail until the burst elapses.
			if inj.TryReset() {
				t.Fatalf("op %d: reset succeeded immediately after hang onset", op)
			}
			// Burn the burst (each tick is one wedged device op).
			for inj.Tick() && inj.hangLeft > 0 {
			}
			if !inj.TryReset() {
				t.Fatalf("op %d: reset still failing after burst elapsed", op)
			}
			if inj.Hung() {
				t.Fatal("device still hung after successful reset")
			}
		}
	}
	if hangs != 2 {
		t.Fatalf("got %d hangs, want 2", hangs)
	}
	st := inj.Stats()
	if st.Injected[Hang] != 2 || st.Resets != 2 || st.ResetNAKs != 2 {
		t.Fatalf("hang accounting off: %+v", st)
	}
}

func TestCompletionClasses(t *testing.T) {
	// Probability-1 classes must fire every time and be counted.
	rec := func() []byte { return []byte{1, 2, 3, 4, 5, 6, 7, 8} }

	inj := New(Plan{Seed: 3, DropP: 1})
	if out, _ := inj.Completion(rec()); out != nil {
		t.Fatal("drop plan returned a record")
	}
	if inj.Stats().Injected[Drop] != 1 {
		t.Fatal("drop not counted")
	}

	inj = New(Plan{Seed: 3, CorruptP: 1})
	r := rec()
	out, _ := inj.Completion(r)
	if bytesEqual(out, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatal("corrupt plan left record unchanged")
	}
	if inj.Stats().Injected[Corrupt] != 1 {
		t.Fatal("corrupt not counted")
	}

	inj = New(Plan{Seed: 3, DuplicateP: 1})
	out, extra := inj.Completion(rec())
	if out == nil || extra == nil || !bytesEqual(out, extra) {
		t.Fatal("duplicate plan did not return two identical records")
	}

	// Replay needs history: the first completion is clean (nothing to
	// replay), later ones must return an older record.
	inj = New(Plan{Seed: 3, ReplayP: 1})
	first := rec()
	if out, _ := inj.Completion(first); !bytesEqual(out, first) {
		t.Fatal("replay with empty history should pass through")
	}
	second := []byte{9, 9, 9, 9, 9, 9, 9, 9}
	out, _ = inj.Completion(second)
	if !bytesEqual(out, first) {
		t.Fatalf("replay returned %v, want the stale %v", out, first)
	}
	if inj.Stats().Injected[Replay] != 1 {
		t.Fatal("replay not counted")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if inj.Tick() || inj.Hung() || inj.NAKConfig() || !inj.TryReset() {
		t.Fatal("nil injector must inject nothing")
	}
	rec := []byte{1, 2}
	if out, extra := inj.Completion(rec); !bytesEqual(out, rec) || extra != nil {
		t.Fatal("nil injector mutated a completion")
	}
	if inj.Stats().Total() != 0 {
		t.Fatal("nil injector reported injections")
	}
}

// TestParseSpecPositionalErrors pins the hardened error messages: every
// rejection names the 1-based item position and the offending item text.
func TestParseSpecPositionalErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring the error must carry
	}{
		{"corrupt=1e-3,bogus=1", `spec item 2 ("bogus=1")`},
		{"corrupt=1e-3,truncate=2", `spec item 2 ("truncate=2")`},
		{"nak", `spec item 1 ("nak")`},
		{"drop=0.1,nak=-0.5", `spec item 2 ("nak=-0.5")`},
		{"drop=0.1,,hang=1@0", `spec item 3 ("hang=1@0")`},
		{"bits=0", `spec item 1 ("bits=0")`},
		{"burst=x", `spec item 1 ("burst=x")`},
		{"drop=nan", `spec item 1 ("drop=nan")`},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q): want error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSpec(%q) error %q does not carry %q", c.spec, err, c.want)
		}
	}
}

// TestPlanStringRoundTrip: ParseSpec(p.String()) must reproduce the plan
// (modulo withDefaults normalization and the seed, which travels separately).
func TestPlanStringRoundTrip(t *testing.T) {
	plans := []Plan{
		{},
		{CorruptP: 1e-3, BurstBits: 4},
		{TruncateP: 0.25, ReplayP: 1e-4, DuplicateP: 0.5, DropP: 1},
		{NAKP: 0.125},
		{HangCount: 2, HangMTBF: 5000, HangBurst: 64},
		{HangCount: 1, HangMTBF: 1}, // burst left to defaults
		{CorruptP: 0.1, DropP: 1e-6, HangCount: 3, HangMTBF: 777, HangBurst: 9, BurstBits: 2},
	}
	for _, p := range plans {
		spec := p.String()
		got, err := ParseSpec(spec)
		if err != nil {
			t.Errorf("String() produced an unparsable spec %q: %v", spec, err)
			continue
		}
		if got.withDefaults() != p.withDefaults() {
			t.Errorf("round trip of %+v via %q = %+v", p.withDefaults(), spec, got.withDefaults())
		}
	}
	if (Plan{}).String() != "" {
		t.Errorf("null plan renders %q, want empty", (Plan{}).String())
	}
}

// TestScriptedFaults covers the deterministic one-shot injection mode the
// chaos scheduler drives: each armed class fires exactly once on the next
// applicable event, without consuming plan PRNG draws.
func TestScriptedFaults(t *testing.T) {
	rec := func() []byte { return []byte{1, 2, 3, 4, 5, 6, 7, 8} }

	inj := New(Plan{Seed: 11})
	inj.ScriptNext(Drop)
	if out, _ := inj.Completion(rec()); out != nil {
		t.Fatal("scripted drop did not drop")
	}
	if out, _ := inj.Completion(rec()); out == nil {
		t.Fatal("scripted drop fired twice")
	}
	if inj.Stats().Injected[Drop] != 1 {
		t.Fatal("scripted drop not counted")
	}

	inj = New(Plan{Seed: 11})
	inj.ScriptNext(Corrupt)
	out, _ := inj.Completion(rec())
	if bytesEqual(out, rec()) {
		t.Fatal("scripted corrupt left the record clean")
	}

	inj = New(Plan{Seed: 11})
	inj.ScriptNext(NAK)
	if !inj.NAKConfig() {
		t.Fatal("scripted NAK did not fire")
	}
	if inj.NAKConfig() {
		t.Fatal("scripted NAK fired twice")
	}

	// Queued arms of one class fire once each.
	inj = New(Plan{Seed: 11})
	inj.ScriptNext(Drop)
	inj.ScriptNext(Drop)
	drops := 0
	for i := 0; i < 3; i++ {
		if out, _ := inj.Completion(rec()); out == nil {
			drops++
		}
	}
	if drops != 2 {
		t.Fatalf("queued scripted drops fired %d times, want 2", drops)
	}

	// Scripted replay with empty history fizzles; with history it replays.
	inj = New(Plan{Seed: 11})
	inj.ScriptNext(Replay)
	first := rec()
	if out, _ := inj.Completion(first); !bytesEqual(out, first) {
		t.Fatal("scripted replay with no history should pass through")
	}
	inj.ScriptNext(Replay)
	second := []byte{9, 9, 9, 9, 9, 9, 9, 9}
	if out, _ := inj.Completion(second); !bytesEqual(out, first) {
		t.Fatalf("scripted replay returned %v, want the stale %v", out, first)
	}

	// Hang is not a ScriptNext class: arming it is a no-op.
	inj = New(Plan{Seed: 11})
	inj.ScriptNext(Hang)
	if inj.Tick() {
		t.Fatal("ScriptNext(Hang) must not wedge the device")
	}
}

// TestScriptHang: the scheduled-hang primitive wedges immediately, refuses
// resets for the burst, extends on re-arm, and clears like a plan hang.
func TestScriptHang(t *testing.T) {
	inj := New(Plan{Seed: 5})
	inj.ScriptHang(3)
	if !inj.Hung() {
		t.Fatal("ScriptHang did not wedge the device")
	}
	if inj.TryReset() {
		t.Fatal("reset succeeded inside the burst")
	}
	for i := 0; i < 3; i++ {
		inj.Tick()
	}
	if !inj.TryReset() {
		t.Fatal("reset still failing after the burst elapsed")
	}
	if inj.Hung() {
		t.Fatal("device still hung after a successful reset")
	}
	if inj.Stats().Injected[Hang] != 1 {
		t.Fatal("scripted hang not counted")
	}

	// Re-arming mid-hang extends the burst instead of double-counting.
	inj = New(Plan{Seed: 5})
	inj.ScriptHang(2)
	inj.ScriptHang(2)
	if inj.Stats().Injected[Hang] != 1 {
		t.Fatal("extension counted as a second hang")
	}
	ticks := 0
	for inj.Hung() && ticks < 10 {
		inj.Tick()
		ticks++
		if inj.TryReset() {
			break
		}
	}
	if inj.Hung() || ticks < 4 {
		t.Fatalf("extended burst cleared after %d ticks, want >= 4", ticks)
	}

	// A scripted arm consumes zero PRNG draws: after b's forced drop swallows
	// its first completion, b's second completion must apply exactly the
	// corruption a virgin same-seed injector applies to its first.
	clean := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	a := New(Plan{Seed: 42, CorruptP: 1})
	b := New(Plan{Seed: 42, CorruptP: 1})
	b.ScriptNext(Drop)
	outA, _ := a.Completion(append(clean[:0:0], clean...))
	if out, _ := b.Completion(append(clean[:0:0], clean...)); out != nil {
		t.Fatal("forced drop did not drop")
	}
	outB, _ := b.Completion(append(clean[:0:0], clean...))
	if !bytesEqual(outA, outB) {
		t.Fatalf("forced drop consumed PRNG draws: post-arm corrupt %v, virgin corrupt %v", outB, outA)
	}

	// Same for a fizzling scripted replay (empty history): no draws consumed.
	c := New(Plan{Seed: 42, CorruptP: 1})
	c.ScriptNext(Replay)
	if out, _ := c.Completion(append(clean[:0:0], clean...)); !bytesEqual(out, clean) {
		t.Fatal("fizzling replay should pass the record through clean")
	}
	outC, _ := c.Completion(append(clean[:0:0], clean...))
	if !bytesEqual(outA, outC) {
		t.Fatalf("fizzled replay consumed PRNG draws: post-arm corrupt %v, virgin corrupt %v", outC, outA)
	}
}

// TestReplayPoolOverwritesInPlace: once the replay pool is full a clean
// completion is copied over the oldest slot, not into a fresh allocation —
// and nothing observable moves: fed from one reused buffer (as the device
// feeds it), scripted replays return byte-for-byte the records, in the
// order, that the allocating pool returned for this seed.
func TestReplayPoolOverwritesInPlace(t *testing.T) {
	record := func(i int) []byte {
		rec := make([]byte, 8+i%5) // lengths vary, so slots are resized in place
		for k := range rec {
			rec[k] = byte(i*31 + k)
		}
		return rec
	}
	inj := New(Plan{Seed: 11})
	buf := make([]byte, 16)
	var replayed []int
	for i := 0; i < 64; i++ {
		if i%5 == 4 {
			inj.ScriptNext(Replay)
		}
		rec := buf[:copy(buf, record(i))]
		out, extra := inj.Completion(rec)
		if extra != nil {
			t.Fatalf("completion %d: unexpected duplicate", i)
		}
		if i%5 != 4 {
			if !bytesEqual(out, record(i)) {
				t.Fatalf("completion %d: clean record came back as %x", i, out)
			}
			continue
		}
		src := -1
		for j := i - 1; j >= 0 && src < 0; j-- {
			if j%5 != 4 && bytesEqual(out, record(j)) {
				src = j
			}
		}
		if src < 0 {
			t.Fatalf("completion %d: replay %x is no earlier clean record", i, out)
		}
		replayed = append(replayed, src)
	}
	want := []int{1, 6, 6, 12, 17, 25, 33, 30, 40, 47, 47, 55}
	if !reflect.DeepEqual(replayed, want) {
		t.Errorf("replays picked records %v, want %v", replayed, want)
	}
	if n := inj.Stats().Injected[Replay]; n != uint64(len(want)) {
		t.Errorf("%d replays counted, want %d", n, len(want))
	}

	clean := testing.AllocsPerRun(100, func() { inj.Completion(buf[:12]) })
	if clean != 0 {
		t.Errorf("a clean completion allocates %.1f with the pool full, want 0", clean)
	}
}
