// Package lexer tokenizes P4-16 source for the OpenDesc compiler: identifiers
// and keywords, decimal/hex/octal/binary integers, width-prefixed integers
// such as 8w0x1F and 4s7, and string literals. Line and block comments and
// preprocessor lines are skipped, never tokenised.
//
// It scans bytes, not runes: one 256-entry class table decides ASCII, and the
// rune decoder is entered only for a byte >= 0x80. Positions are derived, not
// maintained per character: a token's column is its offset minus the line's
// start minus the continuation bytes of the wide runes before it on the line
// (columns count runes), state that moves only across a newline or a wide rune.
package lexer

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"opendesc/internal/p4/token"
)

// Error is a lexical error with position information.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer turns a source buffer into a token stream.
type Lexer struct {
	src  string
	file string

	off       int // byte offset of the next unread byte
	line      int // 1-based line of off
	lineStart int // byte offset at which that line starts
	wide      int // continuation bytes of multi-byte runes in src[lineStart:off]
	errs      []*Error
}

const maxErrs = 25

// Byte classes.
const (
	cLetter = 1 << iota // may start or continue an identifier
	cDigit
	cHex
	cBase // x, b, o in either case: the marker after a literal's leading 0
)

var class = func() (t [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = cLetter, cLetter
	}
	t['_'] = cLetter
	for c := '0'; c <= '9'; c++ {
		t[c] = cDigit | cHex
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] |= cHex
		t[c-'a'+'A'] |= cHex
	}
	for _, c := range "xXbBoO" {
		t[c] |= cBase
	}
	return t
}()

// New returns a lexer over src; file is used for positions only.
func New(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1}
}

// Errors returns the lexical errors accumulated so far.
func (l *Lexer) Errors() []*Error { return l.errs }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	if len(l.errs) < maxErrs {
		l.errs = append(l.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

// pos is the position of byte offset off, which must be on the current line.
func (l *Lexer) pos(off int) token.Pos {
	return token.Pos{File: l.file, Offset: off, Line: l.line, Col: off - l.lineStart - l.wide + 1}
}

// newline records that the byte before off was a '\n'.
func (l *Lexer) newline(off int) {
	l.line++
	l.lineStart = off
	l.wide = 0
}

// Scan fills t with the next token. At end of input it yields EOF forever,
// positioned one past the last rune.
func (l *Lexer) Scan(t *token.Token) {
	src, off := l.src, l.off
skip:
	for off < len(src) {
		switch src[off] {
		case ' ', '\t', '\r':
			off++
		case '\n':
			off++
			l.newline(off)
		case '/':
			if off+1 == len(src) || src[off+1] != '/' && src[off+1] != '*' {
				break skip
			}
			if src[off+1] == '*' {
				off = l.skipBlockComment(off)
				continue
			}
			fallthrough
		case '#': // a preprocessor line, like a line comment, runs to the newline
			if i := strings.IndexByte(src[off:], '\n'); i >= 0 {
				off += i
			} else {
				off = len(src)
			}
		default:
			break skip
		}
	}
	if off >= len(src) {
		// A trailing comment's wide runes were never counted: count the line.
		*t = token.Token{Kind: token.EOF, Pos: token.Pos{File: l.file, Offset: len(src), Line: l.line,
			Col: utf8.RuneCountInString(src[l.lineStart:]) + 1}}
		l.off = len(src)
		return
	}
	t.Pos = l.pos(off)
	c := src[off]
	switch {
	case class[c]&cLetter != 0:
		l.off = l.identEnd(off + 1)
		t.Lit = src[off:l.off]
		t.Kind = token.Lookup(t.Lit)
	case class[c]&cDigit != 0:
		l.scanNumber(t, off)
	case c == '"':
		l.scanString(t, off)
	case c >= utf8.RuneSelf:
		r, w := utf8.DecodeRuneInString(src[off:])
		l.wide += w - 1
		if unicode.IsLetter(r) {
			l.off = l.identEnd(off + w)
			t.Kind, t.Lit = token.IDENT, src[off:l.off]
			return
		}
		l.illegal(t, r, off+w)
	default:
		l.scanOperator(t, c, off)
	}
}

// skipBlockComment skips the /* ... */ that opens at off and returns the
// offset after it, moving the line state over the newlines and wide runes
// inside.
func (l *Lexer) skipBlockComment(off int) int {
	end := len(l.src)
	if i := strings.Index(l.src[off+2:], "*/"); i >= 0 {
		end = off + 2 + i + 2
	} else {
		l.errorf(l.pos(off), "unterminated block comment")
	}
	body := l.src[off:end]
	if n := strings.Count(body, "\n"); n > 0 {
		l.line += n
		l.lineStart = off + strings.LastIndexByte(body, '\n') + 1
		l.wide = 0
		body = l.src[l.lineStart:end]
	}
	l.wide += len(body) - utf8.RuneCountInString(body)
	return end
}

// identEnd returns the end of the identifier whose first rune ends at off.
func (l *Lexer) identEnd(off int) int {
	src := l.src
	for off < len(src) {
		c := src[off]
		if class[c]&(cLetter|cDigit) != 0 {
			off++
			continue
		}
		if c < utf8.RuneSelf {
			break
		}
		r, w := utf8.DecodeRuneInString(src[off:])
		if !unicode.IsLetter(r) {
			break
		}
		l.wide += w - 1
		off += w
	}
	return off
}

// digitsEnd skips a run of digits of the given class (cDigit or cHex) and '_'
// separators from off; n is the number of digits among them.
func (l *Lexer) digitsEnd(off int, cls uint8) (end, n int) {
	for ; off < len(l.src); off++ {
		if c := l.src[off]; class[c]&cls != 0 {
			n++
		} else if c != '_' {
			break
		}
	}
	return off, n
}

// at returns the byte at off, or 0 (which is in no class) past the end.
func (l *Lexer) at(off int) byte {
	if off < len(l.src) {
		return l.src[off]
	}
	return 0
}

// scanNumber handles 42, 0x2A, 0b101, 0o17, and width-prefixed forms
// 8w0x1F / 8w255 / 4s-? (P4 allows 4s15; the sign is not part of the literal).
func (l *Lexer) scanNumber(t *token.Token, start int) {
	src := l.src
	end := start + 1
	for class[l.at(end)]&cDigit != 0 {
		end++
	}
	t.Kind = token.INT
	var n int
	switch c := l.at(end); {
	case c == 'w' || c == 's':
		// Width prefix: digits followed by 'w' or 's' then a number.
		t.Kind = token.WIDTHINT
		if end++; l.at(end) == '0' && class[l.at(end+1)]&cBase != 0 {
			if end, n = l.digitsEnd(end+2, cHex); n == 0 {
				l.errorf(t.Pos, "malformed width-prefixed integer literal")
			}
		} else if end, n = l.digitsEnd(end, cDigit); n == 0 {
			l.errorf(t.Pos, "width prefix not followed by digits")
		}
	case class[c]&cBase != 0 && src[start:end] == "0":
		// Base prefix directly (0x, 0b, 0o) — only valid after a lone "0".
		if end, n = l.digitsEnd(end+1, cHex); n == 0 {
			l.errorf(t.Pos, "malformed base-%c integer literal", src[start+1])
			t.Kind = token.ILLEGAL
		}
	default:
		// Underscore separators in decimal literals.
		end, _ = l.digitsEnd(end, cDigit)
	}
	t.Lit = src[start:end]
	l.off = end
}

// scanString scans the literal whose opening quote is at start. A literal
// without escapes is a substring of the source; the first escape (or invalid
// byte, which reads as U+FFFD) moves what was scanned so far into a builder.
func (l *Lexer) scanString(t *token.Token, start int) {
	src := l.src
	var sb strings.Builder
	from := start + 1 // src[from:off] is scanned but not yet in sb
	off := from
	t.Kind = token.ILLEGAL
	for {
		if off >= len(src) || src[off] == '\n' {
			l.errorf(t.Pos, "unterminated string literal")
			break
		}
		c := src[off]
		if c == '"' {
			t.Kind = token.STRING
			break
		}
		if c < utf8.RuneSelf && c != '\\' {
			off++
			continue
		}
		r, w := utf8.DecodeRuneInString(src[off:])
		if c != '\\' && (r != utf8.RuneError || w > 1) {
			l.wide += w - 1
			off += w
			continue
		}
		sb.WriteString(src[from:off])
		if c == '\\' {
			epos := l.pos(off + 1)
			if off++; off >= len(src) {
				r, w = utf8.RuneError, 0 // cut off by the end of input
			} else {
				r, w = utf8.DecodeRuneInString(src[off:])
			}
			switch r {
			case 'n':
				r = '\n'
			case 't':
				r = '\t'
			case '\\', '"':
			default:
				l.errorf(epos, "unknown escape sequence \\%c", r)
			}
		}
		sb.WriteRune(r)
		off += w
		from = off
		switch {
		case src[off-w:off] == "\n": // a (diagnosed) continuation line
			l.newline(off)
		case w > 1:
			l.wide += w - 1
		}
	}
	if t.Lit = src[from:off]; sb.Len() > 0 {
		sb.WriteString(t.Lit)
		t.Lit = sb.String()
	}
	if t.Kind == token.STRING {
		off++ // the closing quote
	}
	l.off = off
}

func (l *Lexer) illegal(t *token.Token, r rune, end int) {
	l.errorf(t.Pos, "illegal character %q", r)
	t.Kind, t.Lit = token.ILLEGAL, string(r)
	l.off = end
}

// op1 maps an ASCII byte to the operator it is on its own (ILLEGAL: none).
var op1 = [utf8.RuneSelf]token.Kind{
	'(': token.LPAREN, ')': token.RPAREN, '{': token.LBRACE, '}': token.RBRACE,
	'[': token.LBRACKET, ']': token.RBRACKET, '<': token.LANGLE, '>': token.RANGLE,
	'=': token.ASSIGN, '!': token.NOT, '+': token.PLUS, '-': token.MINUS,
	'*': token.STAR, '/': token.SLASH, '%': token.PERCENT, '&': token.AMP,
	'|': token.PIPE, '^': token.CARET, '~': token.TILDE, '.': token.DOT,
	',': token.COMMA, ';': token.SEMI, ':': token.COLON, '?': token.QUESTION, '@': token.AT,
}

// scanOperator scans the operator that starts with the ASCII byte c at off.
// A two-character operator is its first byte doubled or followed by '='.
func (l *Lexer) scanOperator(t *token.Token, c byte, off int) {
	k := op1[c]
	if k == token.ILLEGAL {
		l.illegal(t, rune(c), off+1)
		return
	}
	two := token.ILLEGAL
	switch next := l.at(off + 1); {
	case next == c:
		switch c {
		case '<':
			two = token.SHL
		case '>':
			two = token.SHR
		case '=':
			two = token.EQ
		case '+':
			two = token.PLUSPLUS
		case '&':
			two = token.LAND
		case '|':
			two = token.LOR
		case '.':
			two = token.DOTDOT
		}
	case next == '=':
		switch c {
		case '<':
			two = token.LE
		case '>':
			two = token.GE
		case '!':
			two = token.NEQ
		}
	}
	t.Lit, l.off = "", off+1
	if two != token.ILLEGAL {
		k, l.off = two, off+2
	}
	t.Kind = k
}
