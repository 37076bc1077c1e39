package lexer

import (
	"testing"

	"opendesc/internal/p4/token"
)

// all scans the rest of l's input (excluding EOF) the way the parser does:
// into one token slot, copied out.
func all(l *Lexer) []token.Token {
	var toks []token.Token
	for {
		var t token.Token
		if l.Scan(&t); t.Kind == token.EOF {
			return toks
		}
		toks = append(toks, t)
	}
}

func lex(src string) []token.Token { return all(New("t.p4", src)) }

func kinds(toks []token.Token) []token.Kind {
	out := make([]token.Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestBasicTokens(t *testing.T) {
	src := `header h { bit<32> rss_val; }`
	got := kinds(lex(src))
	want := []token.Kind{
		token.HEADER, token.IDENT, token.LBRACE,
		token.BIT, token.LANGLE, token.INT, token.RANGLE,
		token.IDENT, token.SEMI, token.RBRACE,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestOperators(t *testing.T) {
	cases := map[string]token.Kind{
		"<<": token.SHL, ">>": token.SHR, "<=": token.LE, ">=": token.GE,
		"==": token.EQ, "!=": token.NEQ, "&&": token.LAND, "||": token.LOR,
		"++": token.PLUSPLUS, "..": token.DOTDOT, "@": token.AT,
		"~": token.TILDE, "^": token.CARET, "?": token.QUESTION,
	}
	for src, want := range cases {
		toks := lex(src)
		if len(toks) != 1 || toks[0].Kind != want {
			t.Errorf("lex(%q) = %v, want single %s", src, toks, want)
		}
	}
}

func TestIntegerLiterals(t *testing.T) {
	cases := []struct {
		src  string
		kind token.Kind
	}{
		{"42", token.INT},
		{"0x1F", token.INT},
		{"0b1010", token.INT},
		{"0o17", token.INT},
		{"1_000_000", token.INT},
		{"8w255", token.WIDTHINT},
		{"8w0xFF", token.WIDTHINT},
		{"4s7", token.WIDTHINT},
		{"32w0b1111", token.WIDTHINT},
	}
	for _, c := range cases {
		toks := lex(c.src)
		if len(toks) != 1 {
			t.Errorf("lex(%q): got %d tokens %v, want 1", c.src, len(toks), toks)
			continue
		}
		if toks[0].Kind != c.kind || toks[0].Lit != c.src {
			t.Errorf("lex(%q) = %v, want %s(%q)", c.src, toks[0], c.kind, c.src)
		}
	}
}

func TestMalformedNumbers(t *testing.T) {
	l := New("t.p4", "0x")
	all(l)
	if len(l.Errors()) == 0 {
		t.Error("0x should produce a lexical error")
	}
	l2 := New("t.p4", "8w")
	all(l2)
	if len(l2.Errors()) == 0 {
		t.Error("8w should produce a lexical error")
	}
}

func TestStringLiterals(t *testing.T) {
	toks := lex(`@semantic("rss")`)
	if len(toks) != 5 {
		t.Fatalf("got %v", toks)
	}
	if toks[3].Kind != token.STRING || toks[3].Lit != "rss" {
		t.Errorf("string literal = %v, want STRING(rss)", toks[3])
	}
}

func TestStringEscapes(t *testing.T) {
	toks := lex(`"a\n\t\"b\\"`)
	if len(toks) != 1 || toks[0].Lit != "a\n\t\"b\\" {
		t.Errorf("got %q", toks[0].Lit)
	}
}

func TestUnterminatedString(t *testing.T) {
	l := New("t.p4", "\"abc\n")
	all(l)
	if len(l.Errors()) == 0 {
		t.Error("unterminated string should error")
	}
	// An escape cut off by the end of input is reported where EOF sits, one
	// past the backslash, before the literal that never closed.
	l = New("", `"ab\`)
	all(l)
	if errs := l.Errors(); len(errs) != 2 || errs[0].Pos != (token.Pos{Offset: 4, Line: 1, Col: 5}) || errs[1].Pos.Col != 1 {
		t.Errorf("errors = %v, want an unknown escape at 1:5 then the unterminated literal at 1:1", errs)
	}
}

func TestComments(t *testing.T) {
	src := "a // line comment\nb /* block\ncomment */ c"
	toks := lex(src)
	if len(toks) != 3 {
		t.Fatalf("comments not skipped: %v", toks)
	}
	// No token is built for a comment, but the lines and wide runes inside
	// one still move the positions of what follows.
	if p := toks[2].Pos; toks[2].Lit != "c" || p.Line != 3 || p.Col != 12 {
		t.Errorf("token after the block comment = %v at %v, want c at 3:12", toks[2], p)
	}
	if toks = lex("/* é */ x // é\ny / z"); len(toks) != 4 || toks[0].Pos.Col != 9 || toks[2].Kind != token.SLASH {
		t.Errorf("got %v, want x at column 9 then y / z", toks)
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	l := New("t.p4", "a\n /* never ends\nb")
	toks := all(l)
	if len(toks) != 1 {
		t.Errorf("got %v, want only the token before the comment", toks)
	}
	if errs := l.Errors(); len(errs) != 1 || errs[0].Pos.Line != 2 || errs[0].Pos.Col != 2 {
		t.Errorf("errors = %v, want one at 2:2 where the comment opens", errs)
	}
}

func TestPreprocessorSkipped(t *testing.T) {
	src := "#include <core.p4>\nheader h { }"
	toks := lex(src)
	if toks[0].Kind != token.HEADER || toks[0].Pos.Line != 2 || toks[0].Pos.Col != 1 {
		t.Errorf("preproc line not skipped: first token %v at %v", toks[0], toks[0].Pos)
	}
	// A '#' anywhere takes the rest of its line, CRLF included.
	if toks = lex("a #pragma once\r\nb"); len(toks) != 2 || toks[1].Pos.Line != 2 {
		t.Errorf("got %v, want a then b on line 2", toks)
	}
}

func TestPositions(t *testing.T) {
	src := "header\n  foo"
	toks := lex(src)
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("first token pos = %v, want 1:1", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("second token pos = %v, want 2:3", toks[1].Pos)
	}
	if toks[1].Pos.File != "t.p4" {
		t.Errorf("file = %q", toks[1].Pos.File)
	}
	// Columns count runes, not bytes.
	if toks = lex("é = \"é\" $"); toks[1].Pos.Col != 3 || toks[3].Pos.Col != 9 || toks[3].Pos.Offset != 10 {
		t.Errorf("columns after wide runes: %v at %v, %v at %v", toks[1], toks[1].Pos, toks[3], toks[3].Pos)
	}
	// EOF sits one past the last rune: after a final newline that is the
	// next line's first column, and an empty source ends at 1:1.
	for src, want := range map[string]token.Pos{
		"":           {Offset: 0, Line: 1, Col: 1},
		"ab":         {Offset: 2, Line: 1, Col: 3},
		"ab\n":       {Offset: 3, Line: 2, Col: 1},
		"a // é":     {Offset: 7, Line: 1, Col: 7},
		"/* é\né */": {Offset: 11, Line: 2, Col: 5},
	} {
		l := New("", src)
		all(l)
		var eof token.Token
		if l.Scan(&eof); eof.Kind != token.EOF || eof.Pos != want {
			t.Errorf("lex(%q) ends with %v at %+v, want EOF at %+v", src, eof, eof.Pos, want)
		}
	}
}

func TestIllegalCharacter(t *testing.T) {
	l := New("t.p4", "a $ b")
	toks := all(l)
	if len(l.Errors()) == 0 {
		t.Error("expected error for '$'")
	}
	// Lexer must keep going after an illegal character.
	if len(toks) != 3 {
		t.Errorf("got %v", toks)
	}
}

func TestKeywordsVsIdents(t *testing.T) {
	toks := lex("control controls transition transitions")
	want := []token.Kind{token.CONTROL, token.IDENT, token.TRANSITION, token.IDENT}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d = %s, want %s", i, toks[i].Kind, k)
		}
	}
}

func TestEOFIsSticky(t *testing.T) {
	l := New("t.p4", "")
	for i := 0; i < 3; i++ {
		tok := token.Token{Kind: token.IDENT, Lit: "stale"}
		if l.Scan(&tok); tok.Kind != token.EOF || tok.Lit != "" {
			t.Fatalf("call %d: got %v, want EOF", i, tok)
		}
	}
}

func TestDotVsDotDot(t *testing.T) {
	toks := lex("a.b 0..5")
	want := []token.Kind{token.IDENT, token.DOT, token.IDENT, token.INT, token.DOTDOT, token.INT}
	if len(toks) != len(want) {
		t.Fatalf("got %v", toks)
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d = %s, want %s", i, toks[i].Kind, k)
		}
	}
}
