package lexer_test

import (
	"reflect"
	"testing"

	"opendesc/internal/nic"
	"opendesc/internal/p4/lexer"
	"opendesc/internal/p4/token"
)

// lexSeeds is the fuzz corpus: the six bundled NIC interface descriptions
// (the realistic input) plus adversarial fragments.
func lexSeeds() []string {
	var seeds []string
	for _, m := range nic.All() {
		seeds = append(seeds, m.Source)
	}
	return append(seeds,
		"",
		"header h { bit<32> rss; } // trailing comment",
		"/* unterminated block",
		"\"unterminated string",
		"0x 0b 0o 8w15 4s-2 1..5 ++ <= >= != &&& |+| ..",
		"@semantic(\"rss\")\n#include <core.p4>\n",
		"ident_ÿ�\x00mixed",
		"\xf0\x9f\x92\xbe invalid \xff bytes",
		"1234567890123456789012345678901234567890w1",
	)
}

// FuzzLex asserts the lexer's robustness invariants on arbitrary input: it
// never panics, always terminates, token positions never run backwards, and
// the stream stays at EOF once exhausted. It reads the token stream a parser
// sees: Scan into one slot, comments and preprocessor lines skipped.
// This lives in an external test package so it can import internal/nic
// without a cycle (nic → parser → lexer).
func FuzzLex(f *testing.F) {
	for _, s := range lexSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Bound pathological inputs so the fuzzer doesn't time out on
		// megabyte identifiers.
		if len(src) > 1<<16 {
			t.Skip()
		}
		l := lexer.New("fuzz.p4", src)
		prevOff := -1
		n := 0
		var tok token.Token
		for {
			if l.Scan(&tok); tok.Kind == token.EOF {
				break
			}
			if tok.Pos.Offset < prevOff {
				t.Fatalf("token %d (%v %q) at offset %d before previous offset %d",
					n, tok.Kind, tok.Lit, tok.Pos.Offset, prevOff)
			}
			prevOff = tok.Pos.Offset
			n++
			// Every non-EOF token consumes at least one byte, so the
			// stream cannot produce more tokens than input bytes.
			if n > len(src) {
				t.Fatalf("%d tokens from %d bytes: lexer is not making progress", n, len(src))
			}
		}
		// EOF is sticky.
		for i := 0; i < 3; i++ {
			if l.Scan(&tok); tok.Kind != token.EOF {
				t.Fatalf("Scan after EOF returned %v %q", tok.Kind, tok.Lit)
			}
		}
	})
}

// matchReference scans src with the byte-table lexer and with the retained
// rune-at-a-time one and fails on the first token that differs in kind,
// literal, offset, line or column, or on any difference in the error lists.
// The parser consumes nothing else, so token equality is AST equality. The
// one sanctioned difference is where end of input sits: the reference repeats
// the last rune's line and column, the lexer reports one past it
// (TestPositions) — for the EOF token and for the one diagnostic reported
// there, an escape cut off by the end of input.
func matchReference(t *testing.T, src string) {
	t.Helper()
	l, ref := lexer.New("d.p4", src), newRef("d.p4", src)
	for n := 0; ; n++ {
		var got token.Token
		l.Scan(&got)
		want := ref.Next()
		if got.Kind == token.EOF && want.Kind == token.EOF && got.Pos.Offset == want.Pos.Offset {
			break
		}
		if got != want {
			t.Fatalf("token %d of %q:\n got %v at %+v\nwant %v at %+v", n, src, got, got.Pos, want, want.Pos)
		}
	}
	got, want := l.Errors(), ref.errs
	for _, e := range got {
		if e.Pos.Offset == len(src) {
			e.Pos.Col--
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("errors of %q:\n got %v\nwant %v", src, got, want)
	}
}

func TestLexerMatchesReference(t *testing.T) {
	for _, src := range append(lexSeeds(),
		// Escapes, an escape cut off by the end of input, continuation lines.
		"\"esc \\n \\t \\q é\" x \"abc\\",
		"\"a\\\nb\" c \"\\é\xff\" d",
		"/* a \n b é */ x",
		"/*/ x */ y /**/ z é/* é */w",
		"8w0x_ 8w 00x1 0x1_F 1_000 é1 aé1 // c é\n x",
		"0b 0O7 0XfF_ 12s0b 3w_ 9_w1 0w 1w0x",
		"#include <core.p4>\r\nheader h { }\r\n#define é x\n y",
		"a $ ` \\ ' \x00 \x7f é€ \xe2\x82 z",
		"< << <= > >> >= = == ! != + ++ & && | || . .. / ",
	) {
		matchReference(t, src)
	}
}

func FuzzLexMatchesReference(f *testing.F) {
	for _, s := range lexSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip()
		}
		matchReference(t, src)
	})
}
