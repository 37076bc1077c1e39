package diffverify

import (
	"reflect"
	"strings"
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/p4/ast"
	"opendesc/internal/p4/parser"
)

// TestMutateDeterministic: the mutator is a pure function of (src, seed) —
// the same pair yields a byte-identical description and op log.
func TestMutateDeterministic(t *testing.T) {
	for _, m := range nic.All() {
		for seed := uint64(0); seed < 16; seed++ {
			a, aops, aerr := Mutate(m.Source, seed)
			b, bops, berr := Mutate(m.Source, seed)
			if (aerr == nil) != (berr == nil) {
				t.Fatalf("%s seed %d: error mismatch %v vs %v", m.Name, seed, aerr, berr)
			}
			if a != b || aops != bops {
				t.Fatalf("%s seed %d: mutation not deterministic (ops %q vs %q)", m.Name, seed, aops, bops)
			}
		}
	}
}

// TestMutateChanges: mutants differ from their parent (an edit that reprints
// to the identical source would silently shrink the adversarial surface).
// Some ops (permute-headers, reorder of identical fields) can be no-ops, so
// this only requires that most seeds produce a change.
func TestMutateChanges(t *testing.T) {
	m := nic.MustLoad("e1000e")
	changed := 0
	const n = 32
	for seed := uint64(0); seed < n; seed++ {
		out, _, err := Mutate(m.Source, seed)
		if err != nil {
			continue
		}
		if out != m.Source {
			changed++
		}
	}
	if changed < n/2 {
		t.Errorf("only %d/%d mutants differ from the parent", changed, n)
	}
}

// TestSweepDeterministic is the ≥256-mutant acceptance check: the seeded
// sweep across all six bundled sources yields identical verdicts on a second
// run (same seed ⇒ same mutants ⇒ same verdicts), and no mutant that
// survives sema ever produces a silent cross-view disagreement.
func TestSweepDeterministic(t *testing.T) {
	models := nic.All()
	perModel := 43 // 43 × 6 = 258 mutants ≥ 256
	counts := map[string]int{}
	total := 0
	for _, m := range models {
		a := Sweep(m.Name, m.Source, 0xd1f5_0001, perModel)
		b := Sweep(m.Name, m.Source, 0xd1f5_0001, perModel)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: sweep not deterministic", m.Name)
		}
		for _, v := range a {
			total++
			counts[v.Outcome]++
			if v.Outcome == OutcomeDisagree {
				t.Errorf("%s seed %#x ops %s: silent triad divergence: %s", m.Name, v.Seed, v.Ops, v.Reason)
			}
		}
	}
	if total < 256 {
		t.Fatalf("sweep screened only %d mutants, want ≥256", total)
	}
	if counts[OutcomePass] == 0 {
		t.Error("no mutant passed — the sweep exercises nothing beyond rejection")
	}
	if counts[OutcomeRejected] == 0 {
		t.Error("no mutant was rejected — the structured-rejection screen is untested")
	}
	t.Logf("screened %d mutants: %v", total, counts)
}

// TestScreenWideResize: a resize landing a semantic field beyond 64 bits
// must screen as a structured rejection (the harness's wide-field guard),
// never as a panic. Mutate with handpicked seeds until one such resize
// appears in the op log.
func TestScreenWideResize(t *testing.T) {
	m := nic.MustLoad("qdma")
	found := false
	for seed := uint64(0); seed < 512 && !found; seed++ {
		v := Screen(m.Name, m.Source, seed)
		if v.Outcome == OutcomeRejected && v.Reason != "" {
			found = true
		}
	}
	if !found {
		t.Error("no mutant screened as rejected in 512 seeds")
	}
}

// TestWidenFirstSemanticTargetsCompletionPath: the widened field must be one
// the deparser actually emits, so fleet structural validation still passes
// while verification fails.
func TestWidenFirstSemanticTargetsCompletionPath(t *testing.T) {
	m := nic.MustLoad("e1000e")
	src, err := WidenFirstSemantic(m.Source, 96)
	if err != nil {
		t.Fatal(err)
	}
	if src == m.Source {
		t.Fatal("widening changed nothing")
	}
	// The mutated description must still pass the frontend (parse + sema),
	// i.e. be indistinguishable from a healthy one until the harness runs,
	// and a completion path must carry the widened semantic field.
	widened, err := nic.Parse("widened.p4", src)
	if err != nil {
		t.Fatalf("widened source no longer analyzable: %v", err)
	}
	a, err := widened.Analysis(core.EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range a.Paths {
		for _, f := range p.Fields {
			if f.Semantic != "" && f.WidthBits == 96 {
				return
			}
		}
	}
	t.Fatal("no completion path carries a 96-bit semantic field")
}

// TestMutantSiblingsUntouched: the parser cuts every list (fields, statements,
// arguments) out of a shared scratch stack at its exact length, so an edit
// that inserts into one list must leave every other declaration printing as
// it did. Each mutant is compared with its parent declaration by declaration:
// only the composites its op log names, and the controls when a statement op
// ran, may differ — over enough seeds that every inserting op (pad, split,
// dup-emit) has fired on every NIC family that has a site for it.
func TestMutantSiblingsUntouched(t *testing.T) {
	decls := func(src string) map[string]string {
		prog, err := parser.Parse("m.p4", src)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string)
		for _, d := range prog.Decls {
			name := ""
			switch d := d.(type) {
			case *ast.HeaderDecl:
				name = d.Name
			case *ast.StructDecl:
				name = d.Name
			case *ast.ControlDecl:
				name = "control " + d.Name
			}
			out[name] += ast.Sprint(d)
		}
		return out
	}
	fired := make(map[string]int)
	for _, m := range nic.All() {
		parent := decls(m.Source)
		for seed := uint64(0); seed < 48; seed++ {
			out, ops, err := Mutate(m.Source, seed)
			if err != nil {
				continue
			}
			touched, stmtOp := make(map[string]bool), false
			for _, op := range strings.Split(ops, ",") {
				kind, site, named := strings.Cut(op, ":")
				if named && kind != "permute-case" {
					touched[site[:strings.IndexAny(site, ".+")]] = true
				} else if kind != "permute-headers" { // which reorders, edits nothing
					stmtOp = true
				}
				fired[strings.SplitN(kind, "@", 2)[0]]++
			}
			for name, printed := range decls(out) {
				if printed != parent[name] && !touched[name] && !(stmtOp && strings.HasPrefix(name, "control ")) {
					t.Errorf("%s seed %d (%s): untouched %q changed:\n%s\nwas:\n%s", m.Name, seed, ops, name, printed, parent[name])
				}
			}
		}
	}
	for _, op := range []string{"pad", "split", "dup-emit"} {
		if fired[op] < 6 {
			t.Errorf("op %s fired %d times; the sweep no longer covers it", op, fired[op])
		}
	}
}
