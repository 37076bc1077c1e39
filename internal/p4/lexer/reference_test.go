package lexer_test

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"opendesc/internal/p4/lexer"
	"opendesc/internal/p4/token"
)

// This file is the rune-at-a-time scanner internal/p4/lexer shipped until the
// byte-table one replaced it, kept as the executable reference the new one is
// compared and fuzzed against (TestLexerMatchesReference,
// FuzzLexMatchesReference). Its scanning code is unchanged; only the options
// nothing set are gone: comments and preprocessor lines are always skipped,
// under two kinds private to this file, and keywords come from the map
// token.Lookup used to probe.
const (
	refComment token.Kind = -1 - iota
	refPreproc
)

var refKeywords = map[string]token.Kind{
	"action": token.ACTION, "apply": token.APPLY, "bit": token.BIT, "bool": token.BOOL,
	"const": token.CONST, "control": token.CONTROL, "default": token.DEFAULT, "else": token.ELSE,
	"enum": token.ENUM, "error": token.ERROR, "extern": token.EXTERN, "false": token.FALSE,
	"header": token.HEADER, "if": token.IF, "in": token.IN, "inout": token.INOUT, "int": token.INT_T,
	"out": token.OUT, "package": token.PACKAGE, "parser": token.PARSER, "return": token.RETURN,
	"select": token.SELECT, "state": token.STATE, "struct": token.STRUCT, "switch": token.SWITCH,
	"transition": token.TRANSITION, "true": token.TRUE, "typedef": token.TYPEDEF,
	"varbit": token.VARBIT, "void": token.VOID,
}

// refLexer turns a source buffer into a token stream.
type refLexer struct {
	src  string
	file string

	offset int // byte offset of ch
	rdOff  int // byte offset after ch
	ch     rune

	line    int
	col     int
	errs    []*lexer.Error
	maxErrs int
}

const eofRune = rune(-1)

// newRef returns a reference lexer over src; file is used for positions only.
func newRef(file, src string) *refLexer {
	l := &refLexer{src: src, file: file, line: 1, col: 0, maxErrs: 25}
	l.next()
	return l
}

func (l *refLexer) errorf(pos token.Pos, format string, args ...any) {
	if len(l.errs) < l.maxErrs {
		l.errs = append(l.errs, &lexer.Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

// next advances to the next rune.
func (l *refLexer) next() {
	if l.rdOff >= len(l.src) {
		l.offset = len(l.src)
		l.ch = eofRune
		return
	}
	if l.ch == '\n' {
		l.line++
		l.col = 0
	}
	r, w := rune(l.src[l.rdOff]), 1
	if r >= utf8.RuneSelf {
		r, w = utf8.DecodeRuneInString(l.src[l.rdOff:])
	}
	l.offset = l.rdOff
	l.rdOff += w
	l.ch = r
	l.col++
}

func (l *refLexer) peek() rune {
	if l.rdOff >= len(l.src) {
		return eofRune
	}
	r := rune(l.src[l.rdOff])
	if r >= utf8.RuneSelf {
		r, _ = utf8.DecodeRuneInString(l.src[l.rdOff:])
	}
	return r
}

func (l *refLexer) pos() token.Pos {
	return token.Pos{File: l.file, Offset: l.offset, Line: l.line, Col: l.col}
}

func isLetter(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isDigit(r rune) bool { return r >= '0' && r <= '9' }

func isHexDigit(r rune) bool {
	return isDigit(r) || (r >= 'a' && r <= 'f') || (r >= 'A' && r <= 'F')
}

// Next returns the next token. At end of input it returns EOF forever.
func (l *refLexer) Next() token.Token {
	for {
		tok := l.scan()
		if tok.Kind != refComment && tok.Kind != refPreproc {
			return tok
		}
	}
}

func (l *refLexer) skipSpace() {
	for l.ch == ' ' || l.ch == '\t' || l.ch == '\n' || l.ch == '\r' {
		l.next()
	}
}

func (l *refLexer) scan() token.Token {
	l.skipSpace()
	pos := l.pos()
	switch ch := l.ch; {
	case ch == eofRune:
		return token.Token{Kind: token.EOF, Pos: pos}
	case isLetter(ch):
		lit := l.scanIdent()
		// A width-prefixed integer like 8w0x1F is scanned as INT then ident
		// only when the digits come first; identifiers never start with a
		// digit, so no ambiguity here.
		return token.Token{Kind: token.Lookup(lit), Lit: lit, Pos: pos}
	case isDigit(ch):
		return l.scanNumber(pos)
	case ch == '"':
		return l.scanString(pos)
	case ch == '#':
		return l.scanPreproc(pos)
	}
	return l.scanOperator(pos)
}

func (l *refLexer) scanIdent() string {
	start := l.offset
	for isLetter(l.ch) || isDigit(l.ch) {
		l.next()
	}
	return l.src[start:l.offset]
}

// scanNumber handles 42, 0x2A, 0b101, 0o17, and width-prefixed forms
// 8w0x1F / 8w255 / 4s-? (P4 allows 4s15; the sign is not part of the literal).
func (l *refLexer) scanNumber(pos token.Pos) token.Token {
	start := l.offset
	for isDigit(l.ch) {
		l.next()
	}
	// Width prefix: digits followed by 'w' or 's' then a number.
	if l.ch == 'w' || l.ch == 's' {
		l.next()
		l.scanNumberTail(pos)
		lit := l.src[start:l.offset]
		return token.Token{Kind: token.WIDTHINT, Lit: lit, Pos: pos}
	}
	// Base prefix directly (0x, 0b, 0o) — only valid if the leading run was "0".
	if l.src[start:l.offset] == "0" && (l.ch == 'x' || l.ch == 'X' || l.ch == 'b' || l.ch == 'B' || l.ch == 'o' || l.ch == 'O') {
		base := l.ch
		l.next()
		n := 0
		for isHexDigit(l.ch) || l.ch == '_' {
			if l.ch != '_' {
				n++
			}
			l.next()
		}
		if n == 0 {
			l.errorf(pos, "malformed base-%c integer literal", base)
			return token.Token{Kind: token.ILLEGAL, Lit: l.src[start:l.offset], Pos: pos}
		}
		return token.Token{Kind: token.INT, Lit: l.src[start:l.offset], Pos: pos}
	}
	// Underscore separators in decimal literals.
	for isDigit(l.ch) || l.ch == '_' {
		l.next()
	}
	return token.Token{Kind: token.INT, Lit: l.src[start:l.offset], Pos: pos}
}

// scanNumberTail scans the numeric part after a width prefix.
func (l *refLexer) scanNumberTail(pos token.Pos) {
	if l.ch == '0' && (l.peek() == 'x' || l.peek() == 'X' || l.peek() == 'b' || l.peek() == 'B' || l.peek() == 'o' || l.peek() == 'O') {
		l.next() // 0
		l.next() // base marker
		n := 0
		for isHexDigit(l.ch) || l.ch == '_' {
			if l.ch != '_' {
				n++
			}
			l.next()
		}
		if n == 0 {
			l.errorf(pos, "malformed width-prefixed integer literal")
		}
		return
	}
	n := 0
	for isDigit(l.ch) || l.ch == '_' {
		if l.ch != '_' {
			n++
		}
		l.next()
	}
	if n == 0 {
		l.errorf(pos, "width prefix not followed by digits")
	}
}

func (l *refLexer) scanString(pos token.Pos) token.Token {
	var sb strings.Builder
	l.next() // consume opening quote
	for {
		switch l.ch {
		case eofRune, '\n':
			l.errorf(pos, "unterminated string literal")
			return token.Token{Kind: token.ILLEGAL, Lit: sb.String(), Pos: pos}
		case '"':
			l.next()
			return token.Token{Kind: token.STRING, Lit: sb.String(), Pos: pos}
		case '\\':
			l.next()
			switch l.ch {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '\\', '"':
				sb.WriteRune(l.ch)
			default:
				l.errorf(l.pos(), "unknown escape sequence \\%c", l.ch)
				sb.WriteRune(l.ch)
			}
			l.next()
		default:
			sb.WriteRune(l.ch)
			l.next()
		}
	}
}

// scanPreproc consumes a whole preprocessor line (#include, #define, ...).
func (l *refLexer) scanPreproc(pos token.Pos) token.Token {
	start := l.offset
	for l.ch != '\n' && l.ch != eofRune {
		l.next()
	}
	return token.Token{Kind: refPreproc, Lit: strings.TrimRight(l.src[start:l.offset], "\r"), Pos: pos}
}

func (l *refLexer) scanLineComment(pos token.Pos) token.Token {
	start := l.offset
	for l.ch != '\n' && l.ch != eofRune {
		l.next()
	}
	return token.Token{Kind: refComment, Lit: l.src[start:l.offset], Pos: pos}
}

func (l *refLexer) scanBlockComment(pos token.Pos) token.Token {
	start := l.offset
	l.next() // '*'
	for {
		if l.ch == eofRune {
			l.errorf(pos, "unterminated block comment")
			return token.Token{Kind: refComment, Lit: l.src[start:l.offset], Pos: pos}
		}
		if l.ch == '*' && l.peek() == '/' {
			l.next()
			l.next()
			return token.Token{Kind: refComment, Lit: l.src[start:l.offset], Pos: pos}
		}
		l.next()
	}
}

// two emits a two-character operator token.
func (l *refLexer) two(kind token.Kind, pos token.Pos) token.Token {
	l.next()
	l.next()
	return token.Token{Kind: kind, Pos: pos}
}

// one emits a single-character operator token.
func (l *refLexer) one(kind token.Kind, pos token.Pos) token.Token {
	l.next()
	return token.Token{Kind: kind, Pos: pos}
}

func (l *refLexer) scanOperator(pos token.Pos) token.Token {
	switch l.ch {
	case '(':
		return l.one(token.LPAREN, pos)
	case ')':
		return l.one(token.RPAREN, pos)
	case '{':
		return l.one(token.LBRACE, pos)
	case '}':
		return l.one(token.RBRACE, pos)
	case '[':
		return l.one(token.LBRACKET, pos)
	case ']':
		return l.one(token.RBRACKET, pos)
	case '<':
		switch l.peek() {
		case '<':
			return l.two(token.SHL, pos)
		case '=':
			return l.two(token.LE, pos)
		}
		return l.one(token.LANGLE, pos)
	case '>':
		switch l.peek() {
		case '>':
			return l.two(token.SHR, pos)
		case '=':
			return l.two(token.GE, pos)
		}
		return l.one(token.RANGLE, pos)
	case '=':
		if l.peek() == '=' {
			return l.two(token.EQ, pos)
		}
		return l.one(token.ASSIGN, pos)
	case '!':
		if l.peek() == '=' {
			return l.two(token.NEQ, pos)
		}
		return l.one(token.NOT, pos)
	case '+':
		if l.peek() == '+' {
			return l.two(token.PLUSPLUS, pos)
		}
		return l.one(token.PLUS, pos)
	case '-':
		return l.one(token.MINUS, pos)
	case '*':
		return l.one(token.STAR, pos)
	case '/':
		switch l.peek() {
		case '/':
			return l.scanLineComment(pos)
		case '*':
			l.next() // '/'
			return l.scanBlockComment(pos)
		}
		return l.one(token.SLASH, pos)
	case '%':
		return l.one(token.PERCENT, pos)
	case '&':
		if l.peek() == '&' {
			return l.two(token.LAND, pos)
		}
		return l.one(token.AMP, pos)
	case '|':
		if l.peek() == '|' {
			return l.two(token.LOR, pos)
		}
		return l.one(token.PIPE, pos)
	case '^':
		return l.one(token.CARET, pos)
	case '~':
		return l.one(token.TILDE, pos)
	case '.':
		if l.peek() == '.' {
			return l.two(token.DOTDOT, pos)
		}
		return l.one(token.DOT, pos)
	case ',':
		return l.one(token.COMMA, pos)
	case ';':
		return l.one(token.SEMI, pos)
	case ':':
		return l.one(token.COLON, pos)
	case '?':
		return l.one(token.QUESTION, pos)
	case '@':
		return l.one(token.AT, pos)
	}
	ch := l.ch
	l.errorf(pos, "illegal character %q", ch)
	l.next()
	return token.Token{Kind: token.ILLEGAL, Lit: string(ch), Pos: pos}
}
