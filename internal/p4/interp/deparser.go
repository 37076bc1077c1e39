package interp

import (
	"fmt"

	"opendesc/internal/bitfield"
	"opendesc/internal/p4/ast"
	"opendesc/internal/p4/sema"
)

// Deparser executes a bound completion-deparser control over a concrete
// environment, straight from its apply block: emit on the cmpt_out parameter
// (a composite or one leaf field), if/else, switch on constant keys (the
// default arm, or nothing, when no key matches), nested blocks and return.
// Any other statement is refused at NewDeparser. It is written apart from
// internal/core's lowering of the same block into a CFG, so each is the
// other's oracle.
type Deparser struct {
	info    *sema.Info
	inst    *sema.Instance
	channel string // the cmpt_out parameter
	// emits holds each emit call's target flattened to its leaf fields in
	// record order, resolved once at NewDeparser; OffsetBits is left zero.
	emits map[*ast.CallStmt][]Field
}

// Field is one emitted leaf field placed in a record.
type Field struct {
	Name       string // qualified source name, e.g. "pipe_meta.rss"
	Semantic   string // @semantic tag, "" if untagged
	OffsetBits int
	WidthBits  int
}

// Record is what one deparser run emits.
type Record struct {
	// Fields are the emitted leaf fields in emission order, each at the
	// offset the running cursor gave it.
	Fields []Field
	// Bits is the record's total width.
	Bits int
	// Image is the record, (Bits+7)/8 bytes: each field of at most 64 bits
	// carries its environment value (zero when the environment has none);
	// wider fields stay zero.
	Image []byte
}

// NewDeparser binds a control instance for execution: it resolves every emit
// target and refuses any statement RunInto cannot execute.
func NewDeparser(info *sema.Info, inst *sema.Instance) (*Deparser, error) {
	if inst.Control == nil || inst.Control.Apply == nil {
		return nil, fmt.Errorf("interp: instance is not a control with an apply block")
	}
	d := &Deparser{info: info, inst: inst, emits: make(map[*ast.CallStmt][]Field)}
	for _, p := range inst.Params {
		if et, ok := p.Type.(*sema.ExternType); ok && et.Name == "cmpt_out" {
			d.channel = p.Name
			break
		}
	}
	if d.channel == "" {
		return nil, fmt.Errorf("interp: control %s has no cmpt_out parameter", inst.Control.Name)
	}
	if err := d.bind(inst.Control.Apply); err != nil {
		return nil, fmt.Errorf("interp: control %s: %w", inst.Control.Name, err)
	}
	return d, nil
}

func (d *Deparser) bind(s ast.Stmt) (err error) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, x := range s.Stmts {
			if err = d.bind(x); err != nil {
				break
			}
		}
	case *ast.IfStmt:
		if err = d.bind(s.Then); err == nil && s.Else != nil {
			err = d.bind(s.Else)
		}
	case *ast.SwitchStmt:
		for _, c := range s.Cases {
			if err = d.bind(c.Body); err != nil {
				break
			}
		}
	case *ast.CallStmt:
		d.emits[s], err = d.bindEmit(s)
	case *ast.ReturnStmt, *ast.EmptyStmt:
	default:
		err = fmt.Errorf("%s: unsupported statement %T", s.Pos(), s)
	}
	return err
}

// bindEmit resolves a `<cmpt_out>.emit(target)` call to the leaf fields it
// commits.
func (d *Deparser) bindEmit(s *ast.CallStmt) ([]Field, error) {
	recv, name := s.Call.Callee()
	if id, ok := ast.Unparen(recv).(*ast.Ident); !ok || id.Name != d.channel || name != "emit" || len(s.Call.Args) != 1 {
		return nil, fmt.Errorf("%s: unsupported call %s", s.Pos(), ast.Sprint(s.Call))
	}
	target, t, semantic, err := resolve(d.inst, s.Call.Args[0], "emit")
	var fields []Field
	if err == nil {
		fields, err = leaves(nil, target, t, semantic)
	}
	if err == nil && len(fields) == 0 {
		err = fmt.Errorf("emit of %s commits no fields", target)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Pos(), err)
	}
	return fields, nil
}

// leaves appends the leaf fields of the value name of type t in record
// order: a composite's fields in declaration order, nested ones in place.
func leaves(out []Field, name string, t sema.Type, semantic string) ([]Field, error) {
	ct, ok := t.(*sema.CompositeType)
	if !ok {
		if w := t.BitWidth(); w > 0 {
			return append(out, Field{Name: name, Semantic: semantic, WidthBits: w}), nil
		}
		return nil, fmt.Errorf("field %s has no fixed width", name)
	}
	for _, f := range ct.Fields {
		var err error
		if out, err = leaves(out, name+"."+f.Name, f.Type, f.Semantic); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunInto executes the apply block under env into a Record the caller owns.
// Its Fields and Image are reused, so a caller running many environments
// through one deparser pays no allocation for the record once they have
// grown. Conditions, switch tags and switch keys go through sema.Eval, keys
// with no environment (they must be constant); one that reads a name env
// does not supply is an error, and rec is then incomplete.
func (d *Deparser) RunInto(rec *Record, env sema.Env) error {
	rec.Fields, rec.Bits = rec.Fields[:0], 0
	if _, err := d.exec(d.inst.Control.Apply, rec, env); err != nil {
		return err
	}
	rec.Image = append(rec.Image[:0], make([]byte, (rec.Bits+7)/8)...)
	for _, f := range rec.Fields {
		if v, ok := env.Lookup(f.Name); ok && f.WidthBits <= 64 {
			if v.Bool {
				v.Uint = 1 // a true bool serializes as one bit
			}
			bitfield.Write(rec.Image, f.OffsetBits, f.WidthBits, v.Uint)
		}
	}
	return nil
}

// exec runs one statement; done reports a return.
func (d *Deparser) exec(s ast.Stmt, rec *Record, env sema.Env) (done bool, err error) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, x := range s.Stmts {
			if done, err = d.exec(x, rec, env); done || err != nil {
				return done, err
			}
		}
	case *ast.IfStmt:
		v, err := d.info.Eval(s.Cond, env)
		switch {
		case err != nil:
			return false, fmt.Errorf("interp: %s: if condition: %w", s.Pos(), err)
		case v.Truthy():
			return d.exec(s.Then, rec, env)
		case s.Else != nil:
			return d.exec(s.Else, rec, env)
		}
	case *ast.SwitchStmt:
		body, err := d.arm(s, env)
		if body == nil || err != nil {
			return false, err
		}
		return d.exec(body, rec, env)
	case *ast.CallStmt:
		for _, f := range d.emits[s] {
			f.OffsetBits = rec.Bits
			rec.Fields = append(rec.Fields, f)
			rec.Bits += f.WidthBits
		}
	case *ast.ReturnStmt:
		return true, nil
	}
	return false, nil
}

// arm evaluates the switch tag and picks the body of the arm whose keys hold
// it, else the default arm's, else nil.
func (d *Deparser) arm(s *ast.SwitchStmt, env sema.Env) (*ast.BlockStmt, error) {
	tag, err := d.info.Eval(s.Tag, env)
	if err != nil {
		return nil, fmt.Errorf("interp: %s: switch tag: %w", s.Pos(), err)
	}
	var def *ast.BlockStmt
	for _, c := range s.Cases {
		if c.IsDefault {
			def = c.Body
		}
		for _, k := range c.Keys {
			v, err := d.info.Eval(k, nil)
			if err != nil {
				return nil, fmt.Errorf("interp: %s: switch case key: %w", c.Pos(), err)
			}
			if v.Equal(tag) {
				return c.Body, nil
			}
		}
	}
	return def, nil
}
