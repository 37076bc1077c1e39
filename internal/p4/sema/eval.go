package sema

import (
	"errors"
	"fmt"

	"opendesc/internal/p4/ast"
	"opendesc/internal/p4/token"
)

// Env supplies values for non-constant names during evaluation (for example,
// context fields during symbolic path exploration or simulation). Lookup keys
// are dotted paths such as "ctx.use_rss" or bare identifiers.
type Env interface {
	Lookup(path string) (Value, bool)
}

// MapEnv is an Env backed by a map.
type MapEnv map[string]Value

// Lookup implements Env.
func (m MapEnv) Lookup(path string) (Value, bool) {
	v, ok := m[path]
	return v, ok
}

// ErrUnknown is returned (wrapped) when evaluation reaches a name that neither
// the constant table nor the Env can supply.
var ErrUnknown = errors.New("unknown name")

// unknownError is the ErrUnknown Eval returns for the name it could not
// resolve. Path enumeration receives one on every context-conditioned edge —
// it is how "not known yet" is signalled there — and never prints it, so the
// text is built only when somebody asks for it.
type unknownError struct{ name ast.Expr }

func (e *unknownError) Error() string {
	return fmt.Sprintf("%v: %q", ErrUnknown, ast.Sprint(e.name))
}

func (e *unknownError) Unwrap() error { return ErrUnknown }

// Eval folds an expression to a constant. env may be nil; it is consulted for
// identifiers and member paths not found in the constant/enum tables.
func (in *Info) Eval(e ast.Expr, env Env) (Value, error) {
	switch e := e.(type) {
	case *ast.IntLit:
		return Value{Uint: e.Value, Width: e.Width}, nil
	case *ast.BoolLit:
		return BoolValue(e.Value), nil
	case *ast.ParenExpr:
		return in.Eval(e.X, env)
	case *ast.Ident:
		if v, ok := in.Consts[e.Name]; ok {
			return v, nil
		}
		if env != nil {
			if v, ok := env.Lookup(e.Name); ok {
				return v, nil
			}
		}
		return Value{}, &unknownError{e}
	case *ast.MemberExpr:
		// Enum member access: EnumName.member.
		if id, ok := e.X.(*ast.Ident); ok {
			if et := in.Enum(id.Name); et != nil {
				if v, ok := et.ByName[e.Member]; ok {
					return Value{Uint: v, Width: et.BitWidth()}, nil
				}
				return Value{}, fmt.Errorf("enum %s has no member %q", id.Name, e.Member)
			}
		}
		if path := e.Path(); path != "" && env != nil {
			if v, ok := env.Lookup(path); ok {
				return v, nil
			}
		}
		return Value{}, &unknownError{e}
	case *ast.UnaryExpr:
		x, err := in.Eval(e.X, env)
		if err != nil {
			return Value{}, err
		}
		switch e.Op {
		case token.NOT:
			return BoolValue(!x.Truthy()), nil
		case token.TILDE:
			v := ^x.Uint
			if x.Width > 0 && x.Width < 64 {
				v &= (uint64(1) << x.Width) - 1
			}
			return Value{Uint: v, Width: x.Width}, nil
		case token.MINUS:
			v := -x.Uint
			if x.Width > 0 && x.Width < 64 {
				v &= (uint64(1) << x.Width) - 1
			}
			return Value{Uint: v, Width: x.Width}, nil
		}
		return Value{}, fmt.Errorf("unsupported unary operator %s", e.Op)
	case *ast.BinaryExpr:
		return in.evalBinary(e, env)
	case *ast.TernaryExpr:
		c, err := in.Eval(e.Cond, env)
		if err != nil {
			return Value{}, err
		}
		if c.Truthy() {
			return in.Eval(e.Then, env)
		}
		return in.Eval(e.Else, env)
	case *ast.CastExpr:
		x, err := in.Eval(e.X, env)
		if err != nil {
			return Value{}, err
		}
		t := in.resolveType(e.Type, nil)
		if t == nil {
			return x, nil
		}
		switch t := t.(type) {
		case *BoolType:
			return BoolValue(x.Truthy()), nil
		case *BitType:
			v := x.Uint
			if x.IsBool {
				v = 0
				if x.Bool {
					v = 1
				}
			}
			if t.Width > 0 && t.Width < 64 {
				v &= (uint64(1) << t.Width) - 1
			}
			return Value{Uint: v, Width: t.Width}, nil
		case *IntType:
			v := x.Uint
			if t.Width > 0 && t.Width < 64 {
				v &= (uint64(1) << t.Width) - 1
			}
			return Value{Uint: v, Width: t.Width}, nil
		}
		return x, nil
	case *ast.SliceExpr:
		x, err := in.Eval(e.X, env)
		if err != nil {
			return Value{}, err
		}
		hi, err := in.Eval(e.Hi, env)
		if err != nil {
			return Value{}, err
		}
		lo, err := in.Eval(e.Lo, env)
		if err != nil {
			return Value{}, err
		}
		if hi.Uint < lo.Uint || hi.Uint > 63 {
			return Value{}, fmt.Errorf("invalid bit-slice [%d:%d]", hi.Uint, lo.Uint)
		}
		width := int(hi.Uint-lo.Uint) + 1
		v := x.Uint >> lo.Uint
		if width < 64 {
			v &= (uint64(1) << width) - 1
		}
		return Value{Uint: v, Width: width}, nil
	}
	return Value{}, fmt.Errorf("cannot evaluate %T expression", e)
}

func (in *Info) evalBinary(e *ast.BinaryExpr, env Env) (Value, error) {
	x, err := in.Eval(e.X, env)
	if err != nil {
		return Value{}, err
	}
	// Short-circuit logical operators.
	switch e.Op {
	case token.LAND:
		if !x.Truthy() {
			return BoolValue(false), nil
		}
		y, err := in.Eval(e.Y, env)
		if err != nil {
			return Value{}, err
		}
		return BoolValue(y.Truthy()), nil
	case token.LOR:
		if x.Truthy() {
			return BoolValue(true), nil
		}
		y, err := in.Eval(e.Y, env)
		if err != nil {
			return Value{}, err
		}
		return BoolValue(y.Truthy()), nil
	}
	y, err := in.Eval(e.Y, env)
	if err != nil {
		return Value{}, err
	}
	width := x.Width
	if y.Width > width {
		width = y.Width
	}
	trunc := func(v uint64) Value {
		if width > 0 && width < 64 {
			v &= (uint64(1) << width) - 1
		}
		return Value{Uint: v, Width: width}
	}
	switch e.Op {
	case token.PLUS:
		return trunc(x.Uint + y.Uint), nil
	case token.MINUS:
		return trunc(x.Uint - y.Uint), nil
	case token.STAR:
		return trunc(x.Uint * y.Uint), nil
	case token.SLASH:
		if y.Uint == 0 {
			return Value{}, errors.New("division by zero")
		}
		return trunc(x.Uint / y.Uint), nil
	case token.PERCENT:
		if y.Uint == 0 {
			return Value{}, errors.New("modulo by zero")
		}
		return trunc(x.Uint % y.Uint), nil
	case token.SHL:
		if y.Uint > 63 {
			return trunc(0), nil
		}
		return trunc(x.Uint << y.Uint), nil
	case token.SHR:
		if y.Uint > 63 {
			return trunc(0), nil
		}
		return trunc(x.Uint >> y.Uint), nil
	case token.AMP:
		return trunc(x.Uint & y.Uint), nil
	case token.PIPE:
		return trunc(x.Uint | y.Uint), nil
	case token.CARET:
		return trunc(x.Uint ^ y.Uint), nil
	case token.PLUSPLUS:
		// P4 concatenation: x ++ y has width wx+wy.
		if x.Width <= 0 || y.Width <= 0 {
			return Value{}, errors.New("concatenation requires sized operands")
		}
		w := x.Width + y.Width
		if w > 64 {
			return Value{}, fmt.Errorf("concatenation width %d exceeds 64", w)
		}
		return Value{Uint: x.Uint<<y.Width | y.Uint, Width: w}, nil
	case token.EQ:
		return BoolValue(x.Equal(y)), nil
	case token.NEQ:
		return BoolValue(!x.Equal(y)), nil
	case token.LANGLE:
		return BoolValue(x.Uint < y.Uint), nil
	case token.RANGLE:
		return BoolValue(x.Uint > y.Uint), nil
	case token.LE:
		return BoolValue(x.Uint <= y.Uint), nil
	case token.GE:
		return BoolValue(x.Uint >= y.Uint), nil
	}
	return Value{}, fmt.Errorf("unsupported binary operator %s", e.Op)
}
