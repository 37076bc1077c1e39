package diffverify

import (
	"errors"
	"fmt"
	"strings"

	"opendesc/internal/core"
	"opendesc/internal/p4/ast"
	"opendesc/internal/p4/parser"
	"opendesc/internal/p4/sema"
)

// Mutate applies 1–3 grammar-aware edits to a P4 interface description and
// reprints it: resized/reordered/split fields, flipped discriminant arms,
// injected pads, permuted switch-case bodies, duplicated or dropped emits,
// permuted header declarations. The mutation stream is fully determined by
// (src, seed): the same pair yields byte-identical output. The returned op
// log names the edits applied.
//
// Mutants are adversarial NICs beyond the bundled six: each must either pass
// the differential harness or be rejected with a structured reason (Screen);
// a panic or a silent disagreement is a compiler-triad bug.
func Mutate(src string, seed uint64) (out, ops string, err error) {
	prog, err := parser.Parse("mutant.p4", src)
	if err != nil {
		return "", "", fmt.Errorf("mutate: parse: %v", err)
	}
	r := &mrand{s: seed ^ 0x6a09e667f3bcc908}
	nops := 1 + r.intn(3)
	var applied []string
	for attempt := 0; len(applied) < nops && attempt < nops*8; attempt++ {
		if op := applyRandomOp(prog, r); op != "" {
			applied = append(applied, op)
		}
	}
	if len(applied) == 0 {
		return "", "", errors.New("mutate: no applicable edit site")
	}
	return ast.SprintProgram(prog), strings.Join(applied, ","), nil
}

// mrand is a splitmix64 stream: deterministic, allocation-free, and
// independent of any global RNG state.
type mrand struct{ s uint64 }

func (r *mrand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *mrand) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// resizeMenu spans the boundary widths the bitfield layer cares about, plus
// two beyond-word widths that must drive the harness into its structured
// wide-field rejection (never a panic).
var resizeMenu = []int{1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 128}

var padMenu = []int{1, 3, 8, 13, 32, 64}

// composite is a mutable view over a header or struct declaration.
type composite struct {
	name   string
	fields *[]*ast.Field
}

func collectComposites(prog *ast.Program) []composite {
	var out []composite
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ast.HeaderDecl:
			out = append(out, composite{name: d.Name, fields: &d.Fields})
		case *ast.StructDecl:
			out = append(out, composite{name: d.Name, fields: &d.Fields})
		}
	}
	return out
}

// stmtSite locates one statement inside a control body.
type stmtSite struct {
	block *ast.BlockStmt
	idx   int
}

type stmtSites struct {
	ifs      []*ast.IfStmt
	switches []*ast.SwitchStmt
	emits    []stmtSite
}

func collectStmts(prog *ast.Program) *stmtSites {
	s := &stmtSites{}
	var walk func(b *ast.BlockStmt)
	walk = func(b *ast.BlockStmt) {
		for i, st := range b.Stmts {
			switch st := st.(type) {
			case *ast.IfStmt:
				s.ifs = append(s.ifs, st)
				walk(st.Then)
				switch e := st.Else.(type) {
				case *ast.BlockStmt:
					walk(e)
				case *ast.IfStmt:
					walk(&ast.BlockStmt{Stmts: []ast.Stmt{e}})
				}
			case *ast.SwitchStmt:
				s.switches = append(s.switches, st)
				for _, c := range st.Cases {
					walk(c.Body)
				}
			case *ast.BlockStmt:
				walk(st)
			case *ast.CallStmt:
				if _, name := st.Call.Callee(); name == "emit" {
					s.emits = append(s.emits, stmtSite{block: b, idx: i})
				}
			}
		}
	}
	for _, d := range prog.Decls {
		if ctl, ok := d.(*ast.ControlDecl); ok && ctl.Apply != nil {
			walk(ctl.Apply)
		}
	}
	return s
}

func bitType(w int) *ast.BitType {
	return &ast.BitType{Width: &ast.IntLit{Value: uint64(w), Text: fmt.Sprintf("%d", w)}}
}

// applyRandomOp picks one edit kind and tries to apply it; "" means the
// chosen kind had no applicable site in this program.
func applyRandomOp(prog *ast.Program, r *mrand) string {
	comps := collectComposites(prog)
	stmts := collectStmts(prog)
	switch r.intn(9) {
	case 0: // resize a field
		if len(comps) == 0 {
			return ""
		}
		c := comps[r.intn(len(comps))]
		if len(*c.fields) == 0 {
			return ""
		}
		f := (*c.fields)[r.intn(len(*c.fields))]
		w := resizeMenu[r.intn(len(resizeMenu))]
		f.Type = bitType(w)
		return fmt.Sprintf("resize:%s.%s=%d", c.name, f.Name, w)
	case 1: // reorder two fields
		c := pickComposite(comps, r, 2)
		if c == nil {
			return ""
		}
		fs := *c.fields
		i := r.intn(len(fs))
		j := r.intn(len(fs) - 1)
		if j >= i {
			j++
		}
		fs[i], fs[j] = fs[j], fs[i]
		return fmt.Sprintf("reorder:%s.%s<->%s", c.name, fs[j].Name, fs[i].Name)
	case 2: // split a field into hi/lo halves
		if len(comps) == 0 {
			return ""
		}
		c := comps[r.intn(len(comps))]
		fs := *c.fields
		for off := 0; off < len(fs); off++ {
			fi := (r.intn(len(fs)) + off) % len(fs)
			f := fs[fi]
			bt, ok := f.Type.(*ast.BitType)
			if !ok {
				continue
			}
			lit, ok := bt.Width.(*ast.IntLit)
			if !ok || lit.Value < 2 || lit.Value > 1<<16 {
				continue
			}
			w := int(lit.Value)
			k := 1 + r.intn(w-1)
			hi := &ast.Field{Name: f.Name + "_hi", Type: bitType(k), Annots: f.Annots}
			lo := &ast.Field{Name: f.Name + "_lo", Type: bitType(w - k)}
			nf := append(append(append([]*ast.Field{}, fs[:fi]...), hi, lo), fs[fi+1:]...)
			*c.fields = nf
			return fmt.Sprintf("split:%s.%s@%d", c.name, f.Name, k)
		}
		return ""
	case 3: // flip a discriminant's arms
		for off := 0; off < len(stmts.ifs); off++ {
			if len(stmts.ifs) == 0 {
				break
			}
			s := stmts.ifs[(r.intn(len(stmts.ifs))+off)%len(stmts.ifs)]
			if e, ok := s.Else.(*ast.BlockStmt); ok {
				s.Then, s.Else = e, s.Then
				return "flip-if"
			}
		}
		return ""
	case 4: // inject a pad field
		if len(comps) == 0 {
			return ""
		}
		c := comps[r.intn(len(comps))]
		fs := *c.fields
		w := padMenu[r.intn(len(padMenu))]
		f := &ast.Field{Name: fmt.Sprintf("dv_pad_%04x", r.next()&0xffff), Type: bitType(w)}
		at := r.intn(len(fs) + 1)
		nf := append(append(append([]*ast.Field{}, fs[:at]...), f), fs[at:]...)
		*c.fields = nf
		return fmt.Sprintf("pad:%s+%d@%d", c.name, w, at)
	case 5: // permute switch-case bodies
		for off := 0; off < len(stmts.switches); off++ {
			if len(stmts.switches) == 0 {
				break
			}
			s := stmts.switches[(r.intn(len(stmts.switches))+off)%len(stmts.switches)]
			if len(s.Cases) < 2 {
				continue
			}
			i := r.intn(len(s.Cases))
			j := r.intn(len(s.Cases) - 1)
			if j >= i {
				j++
			}
			s.Cases[i].Body, s.Cases[j].Body = s.Cases[j].Body, s.Cases[i].Body
			return fmt.Sprintf("permute-case:%d<->%d", i, j)
		}
		return ""
	case 6: // drop an emit
		if len(stmts.emits) == 0 {
			return ""
		}
		site := stmts.emits[r.intn(len(stmts.emits))]
		b := site.block
		b.Stmts = append(append([]ast.Stmt{}, b.Stmts[:site.idx]...), b.Stmts[site.idx+1:]...)
		return fmt.Sprintf("drop-emit@%d", site.idx)
	case 7: // duplicate an emit
		if len(stmts.emits) == 0 {
			return ""
		}
		site := stmts.emits[r.intn(len(stmts.emits))]
		b := site.block
		st := b.Stmts[site.idx]
		nf := append(append(append([]ast.Stmt{}, b.Stmts[:site.idx+1]...), st), b.Stmts[site.idx+1:]...)
		b.Stmts = nf
		return fmt.Sprintf("dup-emit@%d", site.idx)
	case 8: // permute two header declarations
		var hs []int
		for i, d := range prog.Decls {
			if _, ok := d.(*ast.HeaderDecl); ok {
				hs = append(hs, i)
			}
		}
		if len(hs) < 2 {
			return ""
		}
		i := hs[r.intn(len(hs))]
		j := hs[r.intn(len(hs))]
		if i == j {
			return ""
		}
		prog.Decls[i], prog.Decls[j] = prog.Decls[j], prog.Decls[i]
		return "permute-headers"
	}
	return ""
}

// pickComposite returns a composite with at least minFields fields, or nil.
func pickComposite(comps []composite, r *mrand, minFields int) *composite {
	var cand []int
	for i, c := range comps {
		if len(*c.fields) >= minFields {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return nil
	}
	return &comps[cand[r.intn(len(cand))]]
}

// Screen outcomes.
const (
	OutcomePass        = "pass"
	OutcomeRejected    = "rejected"
	OutcomeDisagree    = "disagree"
	OutcomeMutateError = "mutate-error"
)

// Verdict classifies one screened mutant.
type Verdict struct {
	Seed    uint64
	Ops     string
	Outcome string
	Reason  string
	Paths   int
	Cases   int
	Checks  int
}

// Screen generates one mutant of src and runs it through the harness.
// OutcomeDisagree means the mutant exposed a real triad divergence — the
// signal the whole exercise exists to find (and, for a healthy compiler,
// must never produce).
func Screen(name, src string, seed uint64) Verdict {
	out, ops, err := Mutate(src, seed)
	if err != nil {
		return Verdict{Seed: seed, Outcome: OutcomeMutateError, Reason: err.Error()}
	}
	v := screenSource(name, out, Options{})
	v.Seed, v.Ops = seed, ops
	return v
}

// screenSource classifies one already-mutated source.
func screenSource(name, src string, opts Options) Verdict {
	var v Verdict
	rep, err := VerifySource(name, src, opts)
	if err != nil {
		v.Outcome = OutcomeRejected
		var rej *RejectedError
		if errors.As(err, &rej) {
			v.Reason = rej.Reason
		} else {
			v.Reason = err.Error()
		}
		return v
	}
	v.Paths, v.Cases, v.Checks = rep.Paths, rep.Cases, rep.Checks
	if rep.OK() {
		v.Outcome = OutcomePass
	} else {
		v.Outcome = OutcomeDisagree
		v.Reason = rep.Disagreements[0].Summary()
	}
	return v
}

// Sweep screens n mutants of src under per-mutant seeds drawn from one
// master seed. Deterministic: the same (src, seed, n) yields the same
// verdict slice, element for element.
func Sweep(name, src string, seed uint64, n int) []Verdict {
	r := &mrand{s: seed}
	out := make([]Verdict, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Screen(name, src, r.next()))
	}
	return out
}

// WidenFirstSemantic returns src with the first @semantic-tagged field that
// is actually emitted on a completion path resized to the given width. With
// width > 64 the result still parses, checks, and passes fleet structural
// validation — but the harness rejects it (accessors read at most 64 bits),
// making it the canonical "valid-looking description that fails
// verification" for the ablation tests and the chaos fleet scenario.
func WidenFirstSemantic(src string, width int) (string, error) {
	ctName, fieldName, err := firstEmittedSemantic(src)
	if err != nil {
		return "", err
	}
	prog, err := parser.Parse("widen.p4", src)
	if err != nil {
		return "", fmt.Errorf("widen: parse: %v", err)
	}
	for _, c := range collectComposites(prog) {
		if c.name != ctName {
			continue
		}
		for _, f := range *c.fields {
			if f.Name == fieldName {
				f.Type = bitType(width)
				return ast.SprintProgram(prog), nil
			}
		}
	}
	return "", fmt.Errorf("widen: declaration %s.%s not found", ctName, fieldName)
}

// firstEmittedSemantic locates the declaring composite and field name of the
// first semantic-tagged field on the first completion path.
func firstEmittedSemantic(src string) (ctName, fieldName string, err error) {
	prog, err := parser.Parse("widen.p4", src)
	if err != nil {
		return "", "", fmt.Errorf("widen: parse: %v", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		return "", "", fmt.Errorf("widen: sema: %v", err)
	}
	a, err := core.Analyze(info, core.EnumerateOptions{})
	if err != nil {
		return "", "", fmt.Errorf("widen: %v", err)
	}
	g, paths := a.Graph, a.Paths
	for _, p := range paths {
		for _, f := range p.Fields {
			if f.Semantic == "" {
				continue
			}
			// Resolve the dotted layout name (param.nested...leaf) to the
			// composite type that declares the leaf.
			parts := strings.Split(f.Name, ".")
			bp := g.Instance().Param(parts[0])
			if bp == nil {
				continue
			}
			t := bp.Type
			for _, seg := range parts[1 : len(parts)-1] {
				ct, ok := t.(*sema.CompositeType)
				if !ok {
					t = nil
					break
				}
				fi := ct.Field(seg)
				if fi == nil {
					t = nil
					break
				}
				t = fi.Type
			}
			if ct, ok := t.(*sema.CompositeType); ok {
				return ct.Name, parts[len(parts)-1], nil
			}
		}
	}
	return "", "", errors.New("widen: no semantic-tagged field on any completion path")
}
