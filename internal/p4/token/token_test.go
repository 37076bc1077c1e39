package token

import (
	"fmt"
	"testing"
)

func TestLookup(t *testing.T) {
	cases := map[string]Kind{
		"control": CONTROL, "parser": PARSER, "header": HEADER,
		"transition": TRANSITION, "apply": APPLY, "int": INT_T,
		"myident": IDENT, "Control": IDENT, "": IDENT,
	}
	for in, want := range cases {
		if got := Lookup(in); got != want {
			t.Errorf("Lookup(%q) = %v, want %v", in, got, want)
		}
	}
	// The switch and the name table agree on every reserved word.
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		if name := k.String(); Lookup(name) != k || !k.IsKeyword() {
			t.Errorf("Lookup(%q) = %v, want keyword %d", name, Lookup(name), int(k))
		}
	}
}

func TestClassification(t *testing.T) {
	if !IDENT.IsLiteral() || !INT.IsLiteral() || !STRING.IsLiteral() {
		t.Error("literal kinds misclassified")
	}
	if !LPAREN.IsOperator() || !SHL.IsOperator() || !DOTDOT.IsOperator() {
		t.Error("operator kinds misclassified")
	}
	if !CONTROL.IsKeyword() || !TRANSITION.IsKeyword() {
		t.Error("keyword kinds misclassified")
	}
	if EOF.IsLiteral() || EOF.IsOperator() || EOF.IsKeyword() {
		t.Error("EOF misclassified")
	}
	if IDENT.IsKeyword() || CONTROL.IsLiteral() {
		t.Error("cross-class leakage")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		CONTROL: "control", SHL: "<<", IDENT: "IDENT", EOF: "EOF",
		DOTDOT: "..", PLUSPLUS: "++",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	for _, k := range []Kind{9999, -1, literalBeg, keywordEnd} {
		if k.String() != fmt.Sprintf("Kind(%d)", int(k)) {
			t.Errorf("kind %d, which is no token, renders %q", int(k), k.String())
		}
	}
}

func TestPrecedenceLadder(t *testing.T) {
	// P4/C ladder: || < && < | < ^ < & < == < relational < shift < add < mul.
	ladder := []Kind{LOR, LAND, PIPE, CARET, AMP, EQ, LANGLE, SHL, PLUS, STAR}
	for i := 1; i < len(ladder); i++ {
		if !(ladder[i].Precedence() > ladder[i-1].Precedence()) {
			t.Errorf("%v (%d) should bind tighter than %v (%d)",
				ladder[i], ladder[i].Precedence(), ladder[i-1], ladder[i-1].Precedence())
		}
	}
	for _, k := range []Kind{LPAREN, SEMI, IDENT, EOF, ASSIGN} {
		if k.Precedence() != 0 {
			t.Errorf("%v should have no binary precedence", k)
		}
	}
	if NEQ.Precedence() != EQ.Precedence() || GE.Precedence() != LANGLE.Precedence() {
		t.Error("peer operators must share precedence")
	}
}

func TestPosString(t *testing.T) {
	p := Pos{File: "nic.p4", Line: 3, Col: 7}
	if p.String() != "nic.p4:3:7" {
		t.Errorf("pos = %q", p)
	}
	if (Pos{Line: 1, Col: 1}).String() != "1:1" {
		t.Error("file-less pos format")
	}
	if (Pos{}).IsValid() {
		t.Error("zero pos should be invalid")
	}
	if !p.IsValid() {
		t.Error("real pos should be valid")
	}
}

func TestTokenString(t *testing.T) {
	tok := Token{Kind: IDENT, Lit: "ctx"}
	if tok.String() != `IDENT("ctx")` {
		t.Errorf("token = %q", tok.String())
	}
	if (Token{Kind: SEMI}).String() != ";" {
		t.Errorf("op token = %q", Token{Kind: SEMI}.String())
	}
}

// IsLiteral reports whether the kind is a literal token.
func (k Kind) IsLiteral() bool { return k > literalBeg && k < literalEnd }

// IsOperator reports whether the kind is an operator or delimiter.
func (k Kind) IsOperator() bool { return k > operatorBeg && k < operatorEnd }

// IsValid reports whether the position carries real location data.
func (p Pos) IsValid() bool { return p.Line > 0 }
