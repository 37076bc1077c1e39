// Package parser implements a recursive-descent parser for the P4-16 subset
// used by OpenDesc interface descriptions.
//
// Supported constructs: header/struct/typedef/const/enum/extern declarations,
// templated parsers with select-based state machines, templated controls with
// actions and apply blocks, annotations (@semantic, @cost, @bind, ...),
// width-prefixed literals, bit slices, casts to base types, and the full
// expression grammar with P4 precedence.
//
// The parser accumulates diagnostics instead of stopping at the first error
// and re-synchronizes at the next top-level declaration.
package parser

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"opendesc/internal/p4/ast"
	"opendesc/internal/p4/lexer"
	"opendesc/internal/p4/token"
)

// Error is a parse diagnostic.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList aggregates diagnostics into a single error value.
type ErrorList []*Error

func (el ErrorList) Error() string {
	switch len(el) {
	case 0:
		return "no errors"
	case 1:
		return el[0].Error()
	}
	var sb strings.Builder
	sb.WriteString(el[0].Error())
	fmt.Fprintf(&sb, " (and %d more errors)", len(el)-1)
	return sb.String()
}

// Err returns the list as an error, or nil if empty.
func (el ErrorList) Err() error {
	if len(el) == 0 {
		return nil
	}
	return el
}

// Parse parses a single P4 source buffer. The error lists the lexer's
// diagnostics with the parser's own, in source order.
func Parse(file, src string) (*ast.Program, error) {
	p := newParser(file, src)
	prog := p.parseProgram()
	if lexErrs := p.lex.Errors(); len(lexErrs) > 0 {
		errs := make(ErrorList, 0, len(lexErrs)+len(p.errs))
		for _, e := range lexErrs {
			errs = append(errs, (*Error)(e))
		}
		// Stable: at one offset the lexical cause precedes its syntax error.
		p.errs = append(errs, p.errs...)
		sort.SliceStable(p.errs, func(i, j int) bool { return p.errs[i].Pos.Offset < p.errs[j].Pos.Offset })
	}
	return prog, p.errs.Err()
}

type parser struct {
	lex  *lexer.Lexer
	tok  token.Token // current token
	peek token.Token // one-token lookahead
	errs ErrorList

	// Scratch stacks: a list under construction pushes its elements here and
	// cut copies them out once, at their exact length, when the list closes;
	// nested lists of one type share a stack (an inner list closes first).
	// buf is the stacks' first backing, so they come with the parser's own
	// allocation; a bundled description rarely outgrows it.
	decls  []ast.Decl
	annots []*ast.Annotation
	fields []*ast.Field
	stmts  []ast.Stmt
	exprs  []ast.Expr
	buf    struct {
		decls  [32]ast.Decl
		annots [4]*ast.Annotation
		fields [32]*ast.Field
		stmts  [16]ast.Stmt
		exprs  [8]ast.Expr
	}
}

// cut pops what a list pushed on *stack above mark and returns it in a slice
// of its own, exactly as long as the list (nil for an empty one): no list pays
// append's doubling, and none shares a backing array with its neighbour.
func cut[T any](stack *[]T, mark int) []T {
	s := *stack
	*stack = s[:mark]
	if len(s) == mark {
		return nil
	}
	out := make([]T, len(s)-mark)
	copy(out, s[mark:])
	return out
}

// bailout is used for per-declaration panic recovery on hard errors.
type bailout struct{}

func newParser(file, src string) *parser {
	p := &parser{lex: lexer.New(file, src)}
	p.decls, p.annots, p.fields = p.buf.decls[:0], p.buf.annots[:0], p.buf.fields[:0]
	p.stmts, p.exprs = p.buf.stmts[:0], p.buf.exprs[:0]
	p.lex.Scan(&p.tok)
	p.lex.Scan(&p.peek)
	return p
}

func (p *parser) next() {
	p.tok = p.peek
	p.lex.Scan(&p.peek)
}

func (p *parser) errorf(pos token.Pos, format string, args ...any) {
	if len(p.errs) < 50 {
		p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

// fail records an error and unwinds to the nearest recovery point.
func (p *parser) fail(pos token.Pos, format string, args ...any) {
	p.errorf(pos, format, args...)
	panic(bailout{})
}

func (p *parser) expect(k token.Kind) token.Token {
	if p.tok.Kind != k {
		p.fail(p.tok.Pos, "expected %s, found %s", k, p.tok)
	}
	t := p.tok
	p.next()
	return t
}

func (p *parser) accept(k token.Kind) bool {
	if p.tok.Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectIdent() token.Token {
	if p.tok.Kind != token.IDENT {
		p.fail(p.tok.Pos, "expected identifier, found %s", p.tok)
	}
	t := p.tok
	p.next()
	return t
}

// sync skips tokens until the start of the next plausible top-level
// declaration.
func (p *parser) sync() {
	for {
		switch p.tok.Kind {
		case token.EOF, token.HEADER, token.STRUCT, token.TYPEDEF, token.CONST,
			token.ENUM, token.PARSER, token.CONTROL, token.EXTERN, token.PACKAGE:
			return
		}
		p.next()
	}
}

func (p *parser) parseProgram() *ast.Program {
	prog := &ast.Program{File: p.tok.Pos.File}
	for p.tok.Kind != token.EOF {
		d := p.parseTopDecl()
		if d != nil {
			p.decls = append(p.decls, d)
		}
	}
	prog.Decls = cut(&p.decls, 0)
	return prog
}

// parseTopDecl parses one top-level declaration with panic-based recovery.
func (p *parser) parseTopDecl() (d ast.Decl) {
	start := p.tok
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
			d = nil
			// The lists the failure cut short never closed: drop what they pushed.
			p.annots, p.fields, p.stmts, p.exprs = p.annots[:0], p.fields[:0], p.stmts[:0], p.exprs[:0]
			// Guarantee progress: if the failure happened on the very first
			// token of the declaration, sync() would stop right there and the
			// driver loop would never advance.
			if p.tok.Kind == start.Kind && p.tok.Pos == start.Pos && p.tok.Kind != token.EOF {
				p.next()
			}
			p.sync()
		}
	}()
	annots := p.parseAnnotations()
	switch p.tok.Kind {
	case token.HEADER:
		return p.parseHeader(annots)
	case token.STRUCT:
		return p.parseStruct(annots)
	case token.TYPEDEF:
		return p.parseTypedef()
	case token.CONST:
		return p.parseConst()
	case token.ENUM:
		return p.parseEnum()
	case token.PARSER:
		return p.parseParser(annots)
	case token.CONTROL:
		return p.parseControl(annots)
	case token.EXTERN:
		return p.parseExtern(annots)
	case token.PACKAGE:
		p.skipPackage()
		return nil
	default:
		p.fail(p.tok.Pos, "expected declaration, found %s", p.tok)
		return nil
	}
}

// skipPackage consumes a `package ...;` declaration (ignored by OpenDesc).
func (p *parser) skipPackage() {
	for p.tok.Kind != token.SEMI && p.tok.Kind != token.EOF {
		p.next()
	}
	p.accept(token.SEMI)
}

func (p *parser) parseAnnotations() ast.Annotations {
	mark := len(p.annots)
	for p.tok.Kind == token.AT {
		at := p.tok.Pos
		p.next()
		name := p.expectIdent().Lit
		a := &ast.Annotation{AtPos: at, Name: name}
		if p.accept(token.LPAREN) {
			a.Args = p.parseArgs()
		}
		p.annots = append(p.annots, a)
	}
	return cut(&p.annots, mark)
}

// parseArgs parses a comma-separated expression list up to and including the
// ')' that closes it; the '(' has been consumed.
func (p *parser) parseArgs() []ast.Expr {
	mark := len(p.exprs)
	for p.tok.Kind != token.RPAREN && p.tok.Kind != token.EOF {
		p.exprs = append(p.exprs, p.parseExpr())
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RPAREN)
	return cut(&p.exprs, mark)
}

func (p *parser) parseHeader(annots ast.Annotations) *ast.HeaderDecl {
	pos := p.expect(token.HEADER).Pos
	name := p.expectIdent().Lit
	h := &ast.HeaderDecl{HeaderPos: pos, Name: name, Annots: annots}
	p.expect(token.LBRACE)
	h.Fields = p.parseFields()
	p.expect(token.RBRACE)
	return h
}

func (p *parser) parseStruct(annots ast.Annotations) *ast.StructDecl {
	pos := p.expect(token.STRUCT).Pos
	name := p.expectIdent().Lit
	s := &ast.StructDecl{StructPos: pos, Name: name, Annots: annots}
	p.expect(token.LBRACE)
	s.Fields = p.parseFields()
	p.expect(token.RBRACE)
	return s
}

func (p *parser) parseFields() []*ast.Field {
	mark := len(p.fields)
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		annots := p.parseAnnotations()
		typ := p.parseType()
		nameTok := p.expectIdent()
		p.expect(token.SEMI)
		p.fields = append(p.fields, &ast.Field{
			NamePos: nameTok.Pos,
			Name:    nameTok.Lit,
			Type:    typ,
			Annots:  annots,
		})
	}
	return cut(&p.fields, mark)
}

func (p *parser) parseTypedef() *ast.TypedefDecl {
	pos := p.expect(token.TYPEDEF).Pos
	typ := p.parseType()
	name := p.expectIdent().Lit
	p.expect(token.SEMI)
	return &ast.TypedefDecl{TypedefPos: pos, Name: name, Type: typ}
}

func (p *parser) parseConst() *ast.ConstDecl {
	pos := p.expect(token.CONST).Pos
	typ := p.parseType()
	name := p.expectIdent().Lit
	p.expect(token.ASSIGN)
	val := p.parseExpr()
	p.expect(token.SEMI)
	return &ast.ConstDecl{ConstPos: pos, Name: name, Type: typ, Value: val}
}

func (p *parser) parseEnum() *ast.EnumDecl {
	pos := p.expect(token.ENUM).Pos
	e := &ast.EnumDecl{EnumPos: pos}
	if p.tok.Kind == token.BIT || p.tok.Kind == token.INT_T {
		e.Base = p.parseType()
	}
	e.Name = p.expectIdent().Lit
	p.expect(token.LBRACE)
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		m := &ast.EnumMember{NamePos: p.tok.Pos, Name: p.expectIdent().Lit}
		if p.accept(token.ASSIGN) {
			m.Value = p.parseExpr()
		}
		e.Members = append(e.Members, m)
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RBRACE)
	return e
}

func (p *parser) parseExtern(annots ast.Annotations) *ast.ExternDecl {
	pos := p.expect(token.EXTERN).Pos
	name := p.expectIdent().Lit
	d := &ast.ExternDecl{ExternPos: pos, Name: name, Annots: annots}
	// Skip optional body or signature; externs are opaque to OpenDesc.
	if p.accept(token.LBRACE) {
		depth := 1
		for depth > 0 && p.tok.Kind != token.EOF {
			switch p.tok.Kind {
			case token.LBRACE:
				depth++
			case token.RBRACE:
				depth--
			}
			p.next()
		}
	} else {
		for p.tok.Kind != token.SEMI && p.tok.Kind != token.EOF {
			p.next()
		}
		p.accept(token.SEMI)
	}
	return d
}

func (p *parser) parseTypeParams() []*ast.TypeParam {
	if p.tok.Kind != token.LANGLE {
		return nil
	}
	p.next()
	var tps []*ast.TypeParam
	for {
		t := p.expectIdent()
		tps = append(tps, &ast.TypeParam{NamePos: t.Pos, Name: t.Lit})
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RANGLE)
	return tps
}

func (p *parser) parseParams() []*ast.Param {
	p.expect(token.LPAREN)
	var params []*ast.Param
	for p.tok.Kind != token.RPAREN && p.tok.Kind != token.EOF {
		annots := p.parseAnnotations()
		dir := ast.DirNone
		switch p.tok.Kind {
		case token.IN:
			dir = ast.DirIn
			p.next()
		case token.OUT:
			dir = ast.DirOut
			p.next()
		case token.INOUT:
			dir = ast.DirInOut
			p.next()
		}
		typ := p.parseType()
		nameTok := p.expectIdent()
		params = append(params, &ast.Param{
			NamePos: nameTok.Pos, Dir: dir, Type: typ, Name: nameTok.Lit, Annots: annots,
		})
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RPAREN)
	return params
}

func (p *parser) parseParser(annots ast.Annotations) *ast.ParserDecl {
	pos := p.expect(token.PARSER).Pos
	name := p.expectIdent().Lit
	d := &ast.ParserDecl{ParserPos: pos, Name: name, Annots: annots}
	d.TypeParams = p.parseTypeParams()
	d.Params = p.parseParams()
	if p.tok.Kind == token.SEMI {
		// Parser type declaration (prototype) — no body.
		p.next()
		return d
	}
	p.expect(token.LBRACE)
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		if p.tok.Kind == token.STATE {
			d.States = append(d.States, p.parseState())
		} else {
			d.Locals = append(d.Locals, p.parseLocalDecl())
		}
	}
	p.expect(token.RBRACE)
	return d
}

func (p *parser) parseState() *ast.ParserState {
	pos := p.expect(token.STATE).Pos
	name := p.expectIdent().Lit
	s := &ast.ParserState{StatePos: pos, Name: name}
	p.expect(token.LBRACE)
	mark := len(p.stmts)
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		if p.tok.Kind == token.TRANSITION {
			s.Transition = p.parseTransition()
			break
		}
		p.stmts = append(p.stmts, p.parseStmt())
	}
	s.Stmts = cut(&p.stmts, mark)
	p.expect(token.RBRACE)
	return s
}

func (p *parser) parseTransition() ast.Transition {
	pos := p.expect(token.TRANSITION).Pos
	if p.tok.Kind == token.SELECT {
		p.next()
		t := &ast.SelectTransition{TransPos: pos}
		p.expect(token.LPAREN)
		for p.tok.Kind != token.RPAREN && p.tok.Kind != token.EOF {
			t.Exprs = append(t.Exprs, p.parseExpr())
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RPAREN)
		p.expect(token.LBRACE)
		for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
			t.Cases = append(t.Cases, p.parseSelectCase())
		}
		p.expect(token.RBRACE)
		p.accept(token.SEMI) // trailing semicolon is optional after select
		return t
	}
	target := p.expectIdent().Lit
	p.expect(token.SEMI)
	return &ast.DirectTransition{TransPos: pos, Target: target}
}

func (p *parser) parseSelectCase() *ast.SelectCase {
	c := &ast.SelectCase{CasePos: p.tok.Pos}
	if p.tok.Kind == token.DEFAULT {
		p.next()
		c.IsDefault = true
	} else if p.accept(token.LPAREN) {
		// Tuple key: (k1, k2, ...)
		for p.tok.Kind != token.RPAREN && p.tok.Kind != token.EOF {
			c.Keys = append(c.Keys, p.parseSelectKey())
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RPAREN)
	} else {
		c.Keys = append(c.Keys, p.parseSelectKey())
	}
	p.expect(token.COLON)
	c.Target = p.expectIdent().Lit
	p.expect(token.SEMI)
	return c
}

// parseSelectKey parses one select key: `_`, a literal/const expression, or a
// range `lo..hi`.
func (p *parser) parseSelectKey() ast.Expr {
	if p.tok.Kind == token.IDENT && p.tok.Lit == "_" {
		e := &ast.DontCare{UnderscorePos: p.tok.Pos}
		p.next()
		return e
	}
	e := p.parseExpr()
	if p.accept(token.DOTDOT) {
		hi := p.parseExpr()
		return &ast.RangeExpr{Lo: e, Hi: hi}
	}
	return e
}

func (p *parser) parseControl(annots ast.Annotations) *ast.ControlDecl {
	pos := p.expect(token.CONTROL).Pos
	name := p.expectIdent().Lit
	d := &ast.ControlDecl{ControlPos: pos, Name: name, Annots: annots}
	d.TypeParams = p.parseTypeParams()
	d.Params = p.parseParams()
	if p.tok.Kind == token.SEMI {
		p.next()
		return d
	}
	p.expect(token.LBRACE)
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		switch p.tok.Kind {
		case token.APPLY:
			p.next()
			d.Apply = p.parseBlock()
		case token.ACTION:
			d.Actions = append(d.Actions, p.parseAction())
		default:
			d.Locals = append(d.Locals, p.parseLocalDecl())
		}
	}
	p.expect(token.RBRACE)
	return d
}

func (p *parser) parseAction() *ast.ActionDecl {
	pos := p.expect(token.ACTION).Pos
	name := p.expectIdent().Lit
	a := &ast.ActionDecl{ActionPos: pos, Name: name}
	a.Params = p.parseParams()
	a.Body = p.parseBlock()
	return a
}

// parseLocalDecl parses a local declaration inside a parser or control body:
// `const T n = e;` or `T n [= e];`.
func (p *parser) parseLocalDecl() ast.Decl {
	if p.tok.Kind == token.CONST {
		return p.parseConst()
	}
	pos := p.tok.Pos
	typ := p.parseType()
	name := p.expectIdent().Lit
	v := &ast.VarDecl{TypePos: pos, Type: typ, Name: name}
	if p.accept(token.ASSIGN) {
		v.Init = p.parseExpr()
	}
	p.expect(token.SEMI)
	return v
}

// ---- Statements ----

func (p *parser) parseBlock() *ast.BlockStmt {
	lb := p.expect(token.LBRACE).Pos
	b := &ast.BlockStmt{LBrace: lb}
	mark := len(p.stmts)
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		p.stmts = append(p.stmts, p.parseStmt())
	}
	b.Stmts = cut(&p.stmts, mark)
	p.expect(token.RBRACE)
	return b
}

func (p *parser) parseStmt() ast.Stmt {
	switch p.tok.Kind {
	case token.LBRACE:
		return p.parseBlock()
	case token.IF:
		return p.parseIf()
	case token.SWITCH:
		return p.parseSwitch()
	case token.RETURN:
		pos := p.tok.Pos
		p.next()
		p.expect(token.SEMI)
		return &ast.ReturnStmt{ReturnPos: pos}
	case token.SEMI:
		pos := p.tok.Pos
		p.next()
		return &ast.EmptyStmt{SemiPos: pos}
	case token.CONST:
		return &ast.DeclStmt{Decl: p.parseConst()}
	case token.BIT, token.INT_T, token.BOOL, token.VARBIT:
		return &ast.DeclStmt{Decl: p.parseLocalDecl()}
	case token.IDENT:
		// Could be a VarDecl (`T name ...`) or an expression statement.
		if p.peek.Kind == token.IDENT {
			return &ast.DeclStmt{Decl: p.parseLocalDecl()}
		}
		return p.parseSimpleStmt()
	default:
		return p.parseSimpleStmt()
	}
}

func (p *parser) parseIf() ast.Stmt {
	pos := p.expect(token.IF).Pos
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	then := p.parseStmtAsBlock()
	s := &ast.IfStmt{IfPos: pos, Cond: cond, Then: then}
	if p.accept(token.ELSE) {
		if p.tok.Kind == token.IF {
			s.Else = p.parseIf()
		} else {
			s.Else = p.parseStmtAsBlock()
		}
	}
	return s
}

// parseStmtAsBlock parses a block, or wraps a single statement in one so the
// CFG builder deals only with blocks.
func (p *parser) parseStmtAsBlock() *ast.BlockStmt {
	if p.tok.Kind == token.LBRACE {
		return p.parseBlock()
	}
	s := p.parseStmt()
	return &ast.BlockStmt{LBrace: s.Pos(), Stmts: []ast.Stmt{s}}
}

func (p *parser) parseSwitch() ast.Stmt {
	pos := p.expect(token.SWITCH).Pos
	p.expect(token.LPAREN)
	tag := p.parseExpr()
	p.expect(token.RPAREN)
	s := &ast.SwitchStmt{SwitchPos: pos, Tag: tag}
	p.expect(token.LBRACE)
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		c := &ast.SwitchCase{CasePos: p.tok.Pos}
		if p.tok.Kind == token.DEFAULT {
			p.next()
			c.IsDefault = true
		} else {
			for {
				c.Keys = append(c.Keys, p.parseExpr())
				// `case a: case b:` fallthrough-style labels are normalized
				// into a single multi-key case.
				if p.tok.Kind == token.COLON && p.peek.Kind != token.LBRACE {
					break
				}
				if !p.accept(token.COMMA) {
					break
				}
			}
		}
		p.expect(token.COLON)
		c.Body = p.parseBlock()
		s.Cases = append(s.Cases, c)
	}
	p.expect(token.RBRACE)
	return s
}

// parseSimpleStmt parses assignment and call statements.
func (p *parser) parseSimpleStmt() ast.Stmt {
	lhs := p.parseExpr()
	switch p.tok.Kind {
	case token.ASSIGN:
		p.next()
		rhs := p.parseExpr()
		p.expect(token.SEMI)
		return &ast.AssignStmt{LHS: lhs, RHS: rhs}
	case token.SEMI:
		p.next()
		if call, ok := lhs.(*ast.CallExpr); ok {
			return &ast.CallStmt{Call: call}
		}
		p.errorf(lhs.Pos(), "expression statement must be a call")
		return &ast.EmptyStmt{SemiPos: lhs.Pos()}
	default:
		p.fail(p.tok.Pos, "expected '=' or ';' in statement, found %s", p.tok)
		return nil
	}
}

// ---- Types ----

func (p *parser) parseType() ast.Type {
	switch p.tok.Kind {
	case token.BIT:
		pos := p.tok.Pos
		p.next()
		p.expect(token.LANGLE)
		w := p.parseWidthExpr()
		p.expect(token.RANGLE)
		return &ast.BitType{BitPos: pos, Width: w}
	case token.INT_T:
		pos := p.tok.Pos
		p.next()
		if p.accept(token.LANGLE) {
			w := p.parseWidthExpr()
			p.expect(token.RANGLE)
			return &ast.IntType{IntPos: pos, Width: w}
		}
		// `int` without width is an arbitrary-precision integer in P4;
		// model it as int<32> which suffices for descriptor contexts.
		return &ast.IntType{IntPos: pos, Width: &ast.IntLit{LitPos: pos, Value: 32, Text: "32"}}
	case token.BOOL:
		pos := p.tok.Pos
		p.next()
		return &ast.BoolType{BoolPos: pos}
	case token.VARBIT:
		pos := p.tok.Pos
		p.next()
		p.expect(token.LANGLE)
		w := p.parseWidthExpr()
		p.expect(token.RANGLE)
		return &ast.VarbitType{VarbitPos: pos, MaxWidth: w}
	case token.VOID:
		pos := p.tok.Pos
		p.next()
		return &ast.VoidType{VoidPos: pos}
	case token.IDENT:
		t := p.expectIdent()
		nt := &ast.NamedType{NamePos: t.Pos, Name: t.Lit}
		// Type arguments in type position are unambiguous.
		if p.tok.Kind == token.LANGLE {
			p.next()
			for {
				nt.TypeArgs = append(nt.TypeArgs, p.parseType())
				if !p.accept(token.COMMA) {
					break
				}
			}
			p.expect(token.RANGLE)
		}
		return nt
	default:
		p.fail(p.tok.Pos, "expected type, found %s", p.tok)
		return nil
	}
}

// ---- Expressions ----

func (p *parser) parseExpr() ast.Expr {
	return p.parseTernary()
}

// parseWidthExpr parses the width expression inside bit< >, int< > and
// varbit< >. Comparison and shift operators are excluded so the closing '>'
// is never mistaken for greater-than; arithmetic (+, -, *, /, %) remains
// available for widths like bit<WORD*8>.
func (p *parser) parseWidthExpr() ast.Expr {
	return p.parseBinary(token.PLUS.Precedence())
}

func (p *parser) parseTernary() ast.Expr {
	cond := p.parseBinary(1)
	if p.accept(token.QUESTION) {
		then := p.parseExpr()
		p.expect(token.COLON)
		els := p.parseExpr()
		return &ast.TernaryExpr{Cond: cond, Then: then, Else: els}
	}
	return cond
}

func (p *parser) parseBinary(minPrec int) ast.Expr {
	x := p.parseUnary()
	for {
		prec := p.tok.Kind.Precedence()
		if prec < minPrec || prec == 0 {
			return x
		}
		op := p.tok.Kind
		p.next()
		y := p.parseBinary(prec + 1)
		x = &ast.BinaryExpr{Op: op, X: x, Y: y}
	}
}

func (p *parser) parseUnary() ast.Expr {
	switch p.tok.Kind {
	case token.NOT, token.TILDE, token.MINUS:
		pos := p.tok.Pos
		op := p.tok.Kind
		p.next()
		x := p.parseUnary()
		return &ast.UnaryExpr{OpPos: pos, Op: op, X: x}
	case token.LPAREN:
		// Cast to a base type: (bit<8>) x. Only base types are cast targets
		// in the subset, which keeps `(expr)` unambiguous.
		switch p.peek.Kind {
		case token.BIT, token.INT_T, token.BOOL, token.VARBIT:
			lp := p.tok.Pos
			p.next()
			typ := p.parseType()
			p.expect(token.RPAREN)
			x := p.parseUnary()
			return &ast.CastExpr{LParen: lp, Type: typ, X: x}
		}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		switch p.tok.Kind {
		case token.DOT:
			p.next()
			// Allow keyword-like members (e.g. `apply`).
			var member string
			if p.tok.Kind == token.IDENT || p.tok.Kind.IsKeyword() {
				member = p.tok.Lit
				if member == "" {
					member = p.tok.Kind.String()
				}
				p.next()
			} else {
				p.fail(p.tok.Pos, "expected member name after '.', found %s", p.tok)
			}
			x = &ast.MemberExpr{X: x, Member: member}
		case token.LBRACKET:
			p.next()
			first := p.parseExpr()
			if p.accept(token.COLON) {
				lo := p.parseExpr()
				p.expect(token.RBRACKET)
				x = &ast.SliceExpr{X: x, Hi: first, Lo: lo}
			} else {
				p.expect(token.RBRACKET)
				x = &ast.IndexExpr{X: x, Index: first}
			}
		case token.LPAREN:
			p.next()
			x = &ast.CallExpr{Fun: x, Args: p.parseArgs()}
		default:
			return x
		}
	}
}

func (p *parser) parsePrimary() ast.Expr {
	switch p.tok.Kind {
	case token.IDENT:
		t := p.tok
		p.next()
		return &ast.Ident{NamePos: t.Pos, Name: t.Lit}
	case token.INT:
		t := p.tok
		p.next()
		v, err := parseIntText(t.Lit)
		if err != nil {
			p.errorf(t.Pos, "invalid integer literal %q: %v", t.Lit, err)
		}
		return &ast.IntLit{LitPos: t.Pos, Value: v, Text: t.Lit}
	case token.WIDTHINT:
		t := p.tok
		p.next()
		lit, err := parseWidthInt(t.Lit)
		if err != nil {
			p.errorf(t.Pos, "invalid width-prefixed literal %q: %v", t.Lit, err)
			return &ast.IntLit{LitPos: t.Pos, Text: t.Lit}
		}
		lit.LitPos = t.Pos
		return lit
	case token.STRING:
		t := p.tok
		p.next()
		return &ast.StringLit{LitPos: t.Pos, Value: t.Lit}
	case token.TRUE:
		t := p.tok
		p.next()
		return &ast.BoolLit{LitPos: t.Pos, Value: true}
	case token.FALSE:
		t := p.tok
		p.next()
		return &ast.BoolLit{LitPos: t.Pos, Value: false}
	case token.DEFAULT:
		// `default` may appear as an expression in select contexts.
		t := p.tok
		p.next()
		return &ast.Ident{NamePos: t.Pos, Name: "default"}
	case token.LPAREN:
		lp := p.tok.Pos
		p.next()
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return &ast.ParenExpr{LParen: lp, X: x}
	default:
		p.fail(p.tok.Pos, "expected expression, found %s", p.tok)
		return nil
	}
}

// parseIntText parses decimal/hex/binary/octal integers with optional '_'
// separators.
func parseIntText(s string) (uint64, error) {
	s = strings.ReplaceAll(s, "_", "")
	if len(s) > 2 && s[0] == '0' {
		switch s[1] {
		case 'x', 'X':
			return strconv.ParseUint(s[2:], 16, 64)
		case 'b', 'B':
			return strconv.ParseUint(s[2:], 2, 64)
		case 'o', 'O':
			return strconv.ParseUint(s[2:], 8, 64)
		}
	}
	return strconv.ParseUint(s, 10, 64)
}

// parseWidthInt parses P4 width-prefixed literals such as 8w0x1F or 4s7.
func parseWidthInt(s string) (*ast.IntLit, error) {
	i := strings.IndexAny(s, "ws")
	if i <= 0 {
		return nil, errors.New("missing width prefix")
	}
	width, err := strconv.Atoi(s[:i])
	if err != nil {
		return nil, fmt.Errorf("bad width: %w", err)
	}
	if width <= 0 || width > 64 {
		return nil, fmt.Errorf("unsupported width %d (1..64)", width)
	}
	signed := s[i] == 's'
	v, err := parseIntText(s[i+1:])
	if err != nil {
		return nil, err
	}
	if width < 64 && v > (uint64(1)<<width)-1 {
		return nil, fmt.Errorf("value %d does not fit in %d bits", v, width)
	}
	return &ast.IntLit{Value: v, Width: width, Signed: signed, Text: s}, nil
}
