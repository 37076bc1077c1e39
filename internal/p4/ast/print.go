package ast

import (
	"fmt"
	"strings"
)

// Fprint renders a node back to P4-like source. The output is canonical (not
// byte-identical to the input) and is used by diagnostics and golden tests.
func Fprint(sb *strings.Builder, n Node) {
	p := printer{sb: sb}
	p.node(n)
}

// Sprint renders a node to a string.
func Sprint(n Node) string {
	var sb strings.Builder
	Fprint(&sb, n)
	return sb.String()
}

// SprintProgram renders a whole program.
func SprintProgram(prog *Program) string {
	var sb strings.Builder
	for i, d := range prog.Decls {
		if i > 0 {
			sb.WriteString("\n")
		}
		Fprint(&sb, d)
		sb.WriteString("\n")
	}
	return sb.String()
}

var stringEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\t", `\t`)

type printer struct {
	sb     *strings.Builder
	indent int
}

func (p *printer) ws() {
	for i := 0; i < p.indent; i++ {
		p.sb.WriteString("    ")
	}
}

func (p *printer) printf(format string, args ...any) {
	fmt.Fprintf(p.sb, format, args...)
}

func (p *printer) annots(as Annotations, sep string) {
	for _, a := range as {
		p.printf("@%s", a.Name)
		if len(a.Args) > 0 {
			p.sb.WriteString("(")
			for i, arg := range a.Args {
				if i > 0 {
					p.sb.WriteString(", ")
				}
				p.node(arg)
			}
			p.sb.WriteString(")")
		}
		p.sb.WriteString(sep)
	}
}

func (p *printer) fields(fs []*Field) {
	p.indent++
	for _, f := range fs {
		p.ws()
		p.annots(f.Annots, " ")
		p.node(f.Type)
		p.printf(" %s;\n", f.Name)
	}
	p.indent--
}

func (p *printer) typeParams(tps []*TypeParam) {
	if len(tps) == 0 {
		return
	}
	p.sb.WriteString("<")
	for i, tp := range tps {
		if i > 0 {
			p.sb.WriteString(", ")
		}
		p.sb.WriteString(tp.Name)
	}
	p.sb.WriteString(">")
}

func (p *printer) params(ps []*Param) {
	p.sb.WriteString("(")
	for i, pr := range ps {
		if i > 0 {
			p.sb.WriteString(", ")
		}
		if d := pr.Dir.String(); d != "" {
			p.printf("%s ", d)
		}
		p.node(pr.Type)
		p.printf(" %s", pr.Name)
	}
	p.sb.WriteString(")")
}

func (p *printer) node(n Node) {
	switch n := n.(type) {
	case *HeaderDecl:
		p.ws()
		p.annots(n.Annots, "\n")
		p.printf("header %s {\n", n.Name)
		p.fields(n.Fields)
		p.ws()
		p.sb.WriteString("}")
	case *StructDecl:
		p.ws()
		p.annots(n.Annots, "\n")
		p.printf("struct %s {\n", n.Name)
		p.fields(n.Fields)
		p.ws()
		p.sb.WriteString("}")
	case *TypedefDecl:
		p.ws()
		p.sb.WriteString("typedef ")
		p.node(n.Type)
		p.printf(" %s;", n.Name)
	case *ConstDecl:
		p.ws()
		p.sb.WriteString("const ")
		p.node(n.Type)
		p.printf(" %s = ", n.Name)
		p.node(n.Value)
		p.sb.WriteString(";")
	case *EnumDecl:
		p.ws()
		p.sb.WriteString("enum ")
		if n.Base != nil {
			p.node(n.Base)
			p.sb.WriteString(" ")
		}
		p.printf("%s {\n", n.Name)
		p.indent++
		for _, m := range n.Members {
			p.ws()
			p.sb.WriteString(m.Name)
			if m.Value != nil {
				p.sb.WriteString(" = ")
				p.node(m.Value)
			}
			p.sb.WriteString(",\n")
		}
		p.indent--
		p.ws()
		p.sb.WriteString("}")
	case *ExternDecl:
		p.ws()
		p.printf("extern %s;", n.Name)
	case *ParserDecl:
		p.ws()
		p.annots(n.Annots, "\n")
		p.printf("parser %s", n.Name)
		p.typeParams(n.TypeParams)
		p.params(n.Params)
		p.sb.WriteString(" {\n")
		p.indent++
		for _, l := range n.Locals {
			p.node(l)
			p.sb.WriteString("\n")
		}
		for _, s := range n.States {
			p.ws()
			p.printf("state %s {\n", s.Name)
			p.indent++
			for _, st := range s.Stmts {
				p.node(st)
			}
			if s.Transition != nil {
				p.ws()
				p.node(s.Transition)
				p.sb.WriteString("\n")
			}
			p.indent--
			p.ws()
			p.sb.WriteString("}\n")
		}
		p.indent--
		p.ws()
		p.sb.WriteString("}")
	case *DirectTransition:
		p.printf("transition %s;", n.Target)
	case *SelectTransition:
		p.sb.WriteString("transition select(")
		for i, e := range n.Exprs {
			if i > 0 {
				p.sb.WriteString(", ")
			}
			p.node(e)
		}
		p.sb.WriteString(") {\n")
		p.indent++
		for _, c := range n.Cases {
			p.ws()
			if c.IsDefault {
				p.sb.WriteString("default")
			} else {
				for i, k := range c.Keys {
					if i > 0 {
						p.sb.WriteString(", ")
					}
					p.node(k)
				}
			}
			p.printf(": %s;\n", c.Target)
		}
		p.indent--
		p.ws()
		p.sb.WriteString("}")
	case *ControlDecl:
		p.ws()
		p.annots(n.Annots, "\n")
		p.printf("control %s", n.Name)
		p.typeParams(n.TypeParams)
		p.params(n.Params)
		p.sb.WriteString(" {\n")
		p.indent++
		for _, l := range n.Locals {
			p.node(l)
			p.sb.WriteString("\n")
		}
		for _, a := range n.Actions {
			p.node(a)
			p.sb.WriteString("\n")
		}
		if n.Apply != nil {
			p.ws()
			p.sb.WriteString("apply ")
			p.block(n.Apply)
			p.sb.WriteString("\n")
		}
		p.indent--
		p.ws()
		p.sb.WriteString("}")
	case *ActionDecl:
		p.ws()
		p.printf("action %s", n.Name)
		p.params(n.Params)
		p.sb.WriteString(" ")
		p.block(n.Body)
	case *VarDecl:
		p.ws()
		p.node(n.Type)
		p.printf(" %s", n.Name)
		if n.Init != nil {
			p.sb.WriteString(" = ")
			p.node(n.Init)
		}
		p.sb.WriteString(";")

	case *BlockStmt:
		p.block(n)
		p.sb.WriteString("\n")
	case *IfStmt:
		p.ws()
		p.ifChain(n)
		p.sb.WriteString("\n")
	case *SwitchStmt:
		p.ws()
		p.sb.WriteString("switch (")
		p.node(n.Tag)
		p.sb.WriteString(") {\n")
		p.indent++
		for _, c := range n.Cases {
			p.ws()
			if c.IsDefault {
				p.sb.WriteString("default")
			} else {
				for i, k := range c.Keys {
					if i > 0 {
						p.sb.WriteString(", ")
					}
					p.node(k)
				}
			}
			p.sb.WriteString(": ")
			p.block(c.Body)
			p.sb.WriteString("\n")
		}
		p.indent--
		p.ws()
		p.sb.WriteString("}\n")
	case *AssignStmt:
		p.ws()
		p.node(n.LHS)
		p.sb.WriteString(" = ")
		p.node(n.RHS)
		p.sb.WriteString(";\n")
	case *CallStmt:
		p.ws()
		p.node(n.Call)
		p.sb.WriteString(";\n")
	case *DeclStmt:
		p.node(n.Decl)
		p.sb.WriteString("\n")
	case *ReturnStmt:
		p.ws()
		p.sb.WriteString("return;\n")
	case *EmptyStmt:
		p.ws()
		p.sb.WriteString(";\n")

	case *BitType:
		p.sb.WriteString("bit<")
		p.node(n.Width)
		p.sb.WriteString(">")
	case *IntType:
		p.sb.WriteString("int<")
		p.node(n.Width)
		p.sb.WriteString(">")
	case *BoolType:
		p.sb.WriteString("bool")
	case *VarbitType:
		p.sb.WriteString("varbit<")
		p.node(n.MaxWidth)
		p.sb.WriteString(">")
	case *VoidType:
		p.sb.WriteString("void")
	case *NamedType:
		p.sb.WriteString(n.Name)
		if len(n.TypeArgs) > 0 {
			p.sb.WriteString("<")
			for i, t := range n.TypeArgs {
				if i > 0 {
					p.sb.WriteString(", ")
				}
				p.node(t)
			}
			p.sb.WriteString(">")
		}

	case *Ident:
		p.sb.WriteString(n.Name)
	case *IntLit:
		if n.Text != "" {
			p.sb.WriteString(n.Text)
		} else {
			p.printf("%d", n.Value)
		}
	case *BoolLit:
		p.printf("%t", n.Value)
	case *StringLit:
		// Only the escapes the lexer reads back; %q's \x and \u are not P4.
		p.sb.WriteString(`"` + stringEscaper.Replace(n.Value) + `"`)
	case *MemberExpr:
		p.node(n.X)
		p.sb.WriteString("." + n.Member)
	case *SliceExpr:
		p.node(n.X)
		p.sb.WriteString("[")
		p.node(n.Hi)
		p.sb.WriteString(":")
		p.node(n.Lo)
		p.sb.WriteString("]")
	case *IndexExpr:
		p.node(n.X)
		p.sb.WriteString("[")
		p.node(n.Index)
		p.sb.WriteString("]")
	case *CallExpr:
		p.node(n.Fun)
		if len(n.TypeArgs) > 0 {
			p.sb.WriteString("<")
			for i, t := range n.TypeArgs {
				if i > 0 {
					p.sb.WriteString(", ")
				}
				p.node(t)
			}
			p.sb.WriteString(">")
		}
		p.sb.WriteString("(")
		for i, a := range n.Args {
			if i > 0 {
				p.sb.WriteString(", ")
			}
			p.node(a)
		}
		p.sb.WriteString(")")
	case *BinaryExpr:
		p.node(n.X)
		p.sb.WriteString(" " + n.Op.String() + " ")
		p.node(n.Y)
	case *UnaryExpr:
		p.sb.WriteString(n.Op.String())
		p.node(n.X)
	case *CastExpr:
		p.sb.WriteString("(")
		p.node(n.Type)
		p.sb.WriteString(") ")
		p.node(n.X)
	case *TernaryExpr:
		p.node(n.Cond)
		p.sb.WriteString(" ? ")
		p.node(n.Then)
		p.sb.WriteString(" : ")
		p.node(n.Else)
	case *ParenExpr:
		p.sb.WriteString("(")
		p.node(n.X)
		p.sb.WriteString(")")
	case *RangeExpr:
		p.node(n.Lo)
		p.sb.WriteString(" .. ")
		p.node(n.Hi)
	case *MaskExpr:
		p.node(n.Value)
		p.sb.WriteString(" &&& ")
		p.node(n.Mask)
	case *DontCare:
		p.sb.WriteString("_")
	default:
		p.printf("/*?%T*/", n)
	}
}

// ifChain prints if/else-if/else without re-indenting the else keyword.
func (p *printer) ifChain(n *IfStmt) {
	p.sb.WriteString("if (")
	p.node(n.Cond)
	p.sb.WriteString(") ")
	p.block(n.Then)
	if n.Else != nil {
		p.sb.WriteString(" else ")
		switch e := n.Else.(type) {
		case *IfStmt:
			p.ifChain(e)
		case *BlockStmt:
			p.block(e)
		}
	}
}

// block prints a block without a leading indent (caller positions it).
func (p *printer) block(b *BlockStmt) {
	p.sb.WriteString("{\n")
	p.indent++
	for _, s := range b.Stmts {
		p.node(s)
	}
	p.indent--
	p.ws()
	p.sb.WriteString("}")
}
