// Package interp executes P4 parsers over concrete byte streams: the dynamic
// counterpart of the static path analysis in internal/core. The same bound
// parser instance that the compiler analyzes (a NIC's DescParser, or a
// PNA-style packet parser) runs here against real descriptor or packet
// bytes, extracting header fields and following select transitions — so the
// static layouts and the dynamic behaviour can be cross-validated.
package interp

import (
	"fmt"

	"opendesc/internal/bitfield"
	"opendesc/internal/p4/ast"
	"opendesc/internal/p4/sema"
)

// Result is the outcome of one parser execution.
type Result struct {
	// Accepted reports whether the walk reached the accept state.
	Accepted bool
	// Values holds every extracted field (≤64 bits) by qualified name,
	// e.g. "desc_hdr.base.addr" or "hdr.ipv4.src_addr".
	Values map[string]uint64
	// ValidHeaders lists the composite prefixes that were extracted, e.g.
	// "hdr.vlan" — the isValid() set.
	ValidHeaders map[string]bool
	// BitsConsumed counts the stream bits consumed by extracts.
	BitsConsumed int
	// States is the visited state sequence.
	States []string
}

// Lookup implements sema.Env over the extracted values, so select
// expressions can reference previously extracted fields.
func (r *Result) Lookup(path string) (sema.Value, bool) {
	v, ok := r.Values[path]
	if !ok {
		return sema.Value{}, false
	}
	return sema.UintValue(v, 64), true
}

// Parser executes a bound P4 parser instance.
type Parser struct {
	info    *sema.Info
	inst    *sema.Instance
	decl    *ast.ParserDecl
	inParam string
	// maxSteps bounds the state walk (loops consume stream bits, but a
	// zero-extract loop would otherwise spin).
	maxSteps int
	// extracts holds each state's extract calls on the input stream, in
	// statement order, resolved once at New: a run reads names and widths
	// off this table and never resolves a target or builds a name.
	extracts map[*ast.ParserState][]boundExtract
}

// boundExtract is one extract call with its target flattened.
type boundExtract struct {
	prefix string // the target composite's qualified name
	steps  []extractStep
	// err is what resolving or flattening the target failed with. It is
	// reported when a run reaches the call, after the steps flattened ahead
	// of it have run — a malformed extract in a state no input reaches is
	// not an error.
	err error
}

// extractStep is one leaf field to read off the stream, or, with width
// validMark, a nested composite whose fields have all been read.
type extractStep struct {
	name  string
	width int
}

const validMark = -1

// New builds an interpreter for a bound parser instance. inParam names the
// input stream parameter; when empty, the first extern-typed parameter
// (desc_in / packet_in) is used.
func New(info *sema.Info, inst *sema.Instance, inParam string) (*Parser, error) {
	if inst.Parser == nil {
		return nil, fmt.Errorf("interp: instance is not a parser")
	}
	if inParam == "" {
		for _, p := range inst.Params {
			if et, ok := p.Type.(*sema.ExternType); ok && (et.Name == "desc_in" || et.Name == "packet_in") {
				inParam = p.Name
				break
			}
		}
	}
	if inParam == "" {
		return nil, fmt.Errorf("interp: parser %s has no input stream parameter", inst.Parser.Name)
	}
	if inst.Parser.State("start") == nil {
		return nil, fmt.Errorf("interp: parser %s has no start state", inst.Parser.Name)
	}
	p := &Parser{info: info, inst: inst, decl: inst.Parser, inParam: inParam, maxSteps: 256}
	p.extracts = make(map[*ast.ParserState][]boundExtract, len(p.decl.States))
	for _, st := range p.decl.States {
		p.extracts[st] = p.bindState(st)
	}
	return p, nil
}

// bindState resolves the state's extract calls on the input stream.
func (p *Parser) bindState(st *ast.ParserState) []boundExtract {
	var out []boundExtract
	for _, s := range st.Stmts {
		call, ok := s.(*ast.CallStmt)
		if !ok {
			continue
		}
		recv, name := call.Call.Callee()
		if name != "extract" {
			continue
		}
		if id, ok := ast.Unparen(recv).(*ast.Ident); !ok || id.Name != p.inParam {
			continue
		}
		var b boundExtract
		if len(call.Call.Args) != 1 {
			b.err = fmt.Errorf("%s: extract takes one argument", call.Pos())
		} else if prefix, ct, err := p.resolveTarget(call.Call.Args[0]); err != nil {
			b.err = err
		} else {
			b.prefix = prefix
			b.steps, b.err = flatten(nil, prefix, ct)
		}
		out = append(out, b)
	}
	return out
}

// flatten appends ct's leaves, and a validMark after each nested composite,
// in stream order. It stops at the first field without a fixed width.
func flatten(steps []extractStep, prefix string, ct *sema.CompositeType) ([]extractStep, error) {
	for _, f := range ct.Fields {
		name := prefix + "." + f.Name
		if nested, ok := f.Type.(*sema.CompositeType); ok {
			var err error
			if steps, err = flatten(steps, name, nested); err != nil {
				return steps, err
			}
			steps = append(steps, extractStep{name: name, width: validMark})
			continue
		}
		w := f.Type.BitWidth()
		if w < 0 {
			return steps, fmt.Errorf("interp: field %s has no fixed width", name)
		}
		steps = append(steps, extractStep{name: name, width: w})
	}
	return steps, nil
}

// layered environment: extracted values shadow the external context.
type env struct {
	res *Result
	ctx sema.Env
}

func (e env) Lookup(path string) (sema.Value, bool) {
	if v, ok := e.res.Lookup(path); ok {
		return v, true
	}
	if e.ctx != nil {
		return e.ctx.Lookup(path)
	}
	return sema.Value{}, false
}

// Run parses data under the given external context (per-queue registers and
// similar). A reject transition or running off the end of a state machine
// yields Accepted=false with the fields extracted so far; errors indicate a
// malformed description or truncated input.
func (p *Parser) Run(data []byte, ctx sema.Env) (*Result, error) {
	res := new(Result)
	return res, p.RunInto(res, data, ctx)
}

// RunInto is Run into a Result the caller owns: res is reset (its maps
// emptied, not reallocated) and then filled, so a caller running many inputs
// through one parser pays no allocation for extraction once the maps have
// grown. Select keys still go through sema.Eval, which names what it reads.
func (p *Parser) RunInto(res *Result, data []byte, ctx sema.Env) error {
	if res.Values == nil {
		res.Values = make(map[string]uint64)
		res.ValidHeaders = make(map[string]bool)
	}
	clear(res.Values)
	clear(res.ValidHeaders)
	res.Accepted, res.BitsConsumed, res.States = false, 0, res.States[:0]
	e := env{res: res, ctx: ctx}
	st := p.decl.State("start")
	for steps := 0; ; steps++ {
		if steps >= p.maxSteps {
			return fmt.Errorf("interp: parser %s exceeded %d steps", p.decl.Name, p.maxSteps)
		}
		res.States = append(res.States, st.Name)
		extracts := p.extracts[st]
		for i := range extracts {
			if err := extracts[i].run(data, res); err != nil {
				return err
			}
		}
		next, done, err := p.transition(st, e)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		st = next
	}
}

// run reads the bound target's fields from the stream.
func (b *boundExtract) run(data []byte, res *Result) error {
	for _, s := range b.steps {
		if s.width == validMark {
			res.ValidHeaders[s.name] = true
			continue
		}
		if res.BitsConsumed+s.width > len(data)*8 {
			return fmt.Errorf("interp: stream exhausted extracting %s (need %d bits at offset %d of %d)",
				s.name, s.width, res.BitsConsumed, len(data)*8)
		}
		if s.width <= 64 {
			res.Values[s.name] = bitfield.Read(data, res.BitsConsumed, s.width)
		}
		res.BitsConsumed += s.width
	}
	if b.err != nil {
		return b.err
	}
	res.ValidHeaders[b.prefix] = true
	return nil
}

// resolveTarget maps the extract argument to its composite type.
func (p *Parser) resolveTarget(arg ast.Expr) (string, *sema.CompositeType, error) {
	arg = ast.Unparen(arg)
	switch a := arg.(type) {
	case *ast.Ident:
		bp := p.inst.Param(a.Name)
		if bp == nil {
			return "", nil, fmt.Errorf("interp: unknown extract target %q", a.Name)
		}
		ct, ok := bp.Type.(*sema.CompositeType)
		if !ok {
			return "", nil, fmt.Errorf("interp: extract target %q is not a composite", a.Name)
		}
		return a.Name, ct, nil
	case *ast.MemberExpr:
		root, chain := splitChain(a)
		bp := p.inst.Param(root)
		if bp == nil {
			return "", nil, fmt.Errorf("interp: unknown extract root %q", root)
		}
		t := bp.Type
		prefix := root
		for _, fname := range chain {
			ct, ok := t.(*sema.CompositeType)
			if !ok {
				return "", nil, fmt.Errorf("interp: %s is not a composite", prefix)
			}
			fi := ct.Field(fname)
			if fi == nil {
				return "", nil, fmt.Errorf("interp: %s has no field %q", ct.Name, fname)
			}
			prefix += "." + fname
			t = fi.Type
		}
		ct, ok := t.(*sema.CompositeType)
		if !ok {
			return "", nil, fmt.Errorf("interp: extract target %s must be a header", prefix)
		}
		return prefix, ct, nil
	}
	return "", nil, fmt.Errorf("interp: unsupported extract argument %T", arg)
}

func splitChain(e *ast.MemberExpr) (string, []string) {
	var rev []string
	cur := ast.Expr(e)
	for {
		switch x := cur.(type) {
		case *ast.MemberExpr:
			rev = append(rev, x.Member)
			cur = x.X
		case *ast.Ident:
			out := make([]string, 0, len(rev))
			for i := len(rev) - 1; i >= 0; i-- {
				out = append(out, rev[i])
			}
			return x.Name, out
		default:
			return "", nil
		}
	}
}

// transition evaluates the state's transition; done=true means accept or
// reject reached (Accepted already recorded in res via e.res).
func (p *Parser) transition(st *ast.ParserState, e env) (*ast.ParserState, bool, error) {
	target := ""
	switch tr := st.Transition.(type) {
	case nil:
		target = "reject"
	case *ast.DirectTransition:
		target = tr.Target
	case *ast.SelectTransition:
		t, err := p.selectTarget(tr, e)
		if err != nil {
			return nil, false, err
		}
		target = t
	}
	switch target {
	case "accept":
		e.res.Accepted = true
		return nil, true, nil
	case "reject":
		e.res.Accepted = false
		return nil, true, nil
	}
	next := p.decl.State(target)
	if next == nil {
		return nil, false, fmt.Errorf("interp: transition to unknown state %q", target)
	}
	return next, false, nil
}

func (p *Parser) selectTarget(tr *ast.SelectTransition, e env) (string, error) {
	keys := make([]sema.Value, len(tr.Exprs))
	for i, x := range tr.Exprs {
		v, err := p.info.Eval(x, e)
		if err != nil {
			return "", fmt.Errorf("interp: select key: %w", err)
		}
		keys[i] = v
	}
	var def string
	for _, c := range tr.Cases {
		if c.IsDefault {
			def = c.Target
			continue
		}
		if len(c.Keys) != len(keys) {
			return "", fmt.Errorf("interp: select case arity %d vs %d keys", len(c.Keys), len(keys))
		}
		match := true
		for i, k := range c.Keys {
			ok, err := p.matchKey(k, keys[i], e)
			if err != nil {
				return "", err
			}
			if !ok {
				match = false
				break
			}
		}
		if match {
			return c.Target, nil
		}
	}
	if def != "" {
		return def, nil
	}
	return "reject", nil
}

func (p *Parser) matchKey(k ast.Expr, v sema.Value, e env) (bool, error) {
	switch key := ast.Unparen(k).(type) {
	case *ast.DontCare:
		return true, nil
	case *ast.RangeExpr:
		lo, err := p.info.Eval(key.Lo, e)
		if err != nil {
			return false, err
		}
		hi, err := p.info.Eval(key.Hi, e)
		if err != nil {
			return false, err
		}
		return v.Uint >= lo.Uint && v.Uint <= hi.Uint, nil
	default:
		kv, err := p.info.Eval(k, e)
		if err != nil {
			return false, fmt.Errorf("interp: select case key: %w", err)
		}
		return kv.Equal(v), nil
	}
}
