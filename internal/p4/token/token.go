// Package token defines the lexical tokens of the P4-16 subset understood by
// the OpenDesc compiler, along with source-position bookkeeping shared by the
// lexer, parser and diagnostics.
package token

import "fmt"

// Kind enumerates the lexical token kinds.
type Kind int

// Token kinds. Literal kinds carry their text in Token.Lit.
const (
	ILLEGAL Kind = iota
	EOF

	literalBeg
	IDENT    // descriptor
	INT      // 42, 0x1F
	WIDTHINT // 8w0x1F, 4s15
	STRING   // "rss"
	literalEnd

	operatorBeg
	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACKET // [
	RBRACKET // ]
	LANGLE   // <
	RANGLE   // >
	SHL      // <<
	SHR      // >>
	LE       // <=
	GE       // >=
	EQ       // ==
	NEQ      // !=
	ASSIGN   // =
	PLUS     // +
	MINUS    // -
	STAR     // *
	SLASH    // /
	PERCENT  // %
	AMP      // &
	PIPE     // |
	CARET    // ^
	TILDE    // ~
	NOT      // !
	LAND     // &&
	LOR      // ||
	DOT      // .
	COMMA    // ,
	SEMI     // ;
	COLON    // :
	QUESTION // ?
	AT       // @
	PLUSPLUS // ++ (P4 concatenation)
	DOTDOT   // .. (range in select cases, as in 0x10..0x1F)
	operatorEnd

	keywordBeg
	ACTION
	APPLY
	BIT
	BOOL
	CONST
	CONTROL
	DEFAULT
	ELSE
	ENUM
	ERROR
	EXTERN
	FALSE
	HEADER
	IF
	IN
	INOUT
	INT_T // "int" type keyword
	OUT
	PACKAGE
	PARSER
	RETURN
	SELECT
	STATE
	STRUCT
	SWITCH
	TRANSITION
	TRUE
	TYPEDEF
	VARBIT
	VOID
	keywordEnd
)

var kindNames = [keywordEnd]string{
	ILLEGAL: "ILLEGAL", EOF: "EOF",
	IDENT: "IDENT", INT: "INT", WIDTHINT: "WIDTHINT", STRING: "STRING",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}", LBRACKET: "[", RBRACKET: "]",
	LANGLE: "<", RANGLE: ">", SHL: "<<", SHR: ">>", LE: "<=", GE: ">=",
	EQ: "==", NEQ: "!=", ASSIGN: "=", PLUS: "+", MINUS: "-", STAR: "*",
	SLASH: "/", PERCENT: "%", AMP: "&", PIPE: "|", CARET: "^", TILDE: "~",
	NOT: "!", LAND: "&&", LOR: "||", DOT: ".", COMMA: ",", SEMI: ";",
	COLON: ":", QUESTION: "?", AT: "@", PLUSPLUS: "++", DOTDOT: "..",
	ACTION: "action", APPLY: "apply", BIT: "bit", BOOL: "bool", CONST: "const",
	CONTROL: "control", DEFAULT: "default", ELSE: "else", ENUM: "enum",
	ERROR: "error", EXTERN: "extern", FALSE: "false", HEADER: "header",
	IF: "if", IN: "in", INOUT: "inout", INT_T: "int", OUT: "out",
	PACKAGE: "package", PARSER: "parser", RETURN: "return", SELECT: "select",
	STATE: "state", STRUCT: "struct", SWITCH: "switch", TRANSITION: "transition",
	TRUE: "true", TYPEDEF: "typedef", VARBIT: "varbit", VOID: "void",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if k >= 0 && k < keywordEnd && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsKeyword reports whether the kind is a reserved word.
func (k Kind) IsKeyword() bool { return k > keywordBeg && k < keywordEnd }

// Lookup maps an identifier to its keyword kind, or IDENT.
func Lookup(ident string) Kind {
	switch ident {
	case "action":
		return ACTION
	case "apply":
		return APPLY
	case "bit":
		return BIT
	case "bool":
		return BOOL
	case "const":
		return CONST
	case "control":
		return CONTROL
	case "default":
		return DEFAULT
	case "else":
		return ELSE
	case "enum":
		return ENUM
	case "error":
		return ERROR
	case "extern":
		return EXTERN
	case "false":
		return FALSE
	case "header":
		return HEADER
	case "if":
		return IF
	case "in":
		return IN
	case "inout":
		return INOUT
	case "int":
		return INT_T
	case "out":
		return OUT
	case "package":
		return PACKAGE
	case "parser":
		return PARSER
	case "return":
		return RETURN
	case "select":
		return SELECT
	case "state":
		return STATE
	case "struct":
		return STRUCT
	case "switch":
		return SWITCH
	case "transition":
		return TRANSITION
	case "true":
		return TRUE
	case "typedef":
		return TYPEDEF
	case "varbit":
		return VARBIT
	case "void":
		return VOID
	}
	return IDENT
}

// Pos is a source position (1-based line and column, 0-based byte offset).
type Pos struct {
	File   string
	Offset int
	Line   int
	Col    int
}

// String renders the position as file:line:col.
func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Token is a single lexical token with its source position and literal text.
type Token struct {
	Kind Kind
	Lit  string // literal text for IDENT, INT, WIDTHINT, STRING and keywords
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	if t.Lit != "" && t.Kind != EOF {
		return fmt.Sprintf("%s(%q)", t.Kind, t.Lit)
	}
	return t.Kind.String()
}

// Precedence returns the binary-operator precedence for the kind, with higher
// binding tighter, or 0 if the kind is not a binary operator. The ladder
// follows the P4-16 specification (which matches C for the shared operators).
func (k Kind) Precedence() int {
	switch k {
	case LOR:
		return 1
	case LAND:
		return 2
	case PIPE:
		return 3
	case CARET:
		return 4
	case AMP:
		return 5
	case EQ, NEQ:
		return 6
	case LANGLE, RANGLE, LE, GE:
		return 7
	case SHL, SHR:
		return 8
	case PLUS, MINUS, PLUSPLUS:
		return 9
	case STAR, SLASH, PERCENT:
		return 10
	}
	return 0
}
