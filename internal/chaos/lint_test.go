package chaos

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// wallClockFuncs are the time-package calls that read or wait on the real
// clock. Any of these on a hot path breaks chaos determinism.
var wallClockFuncs = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "Since": true, "Until": true,
	"NewTimer": true, "NewTicker": true, "Tick": true, "AfterFunc": true,
}

// wallClockAllowed lists the package directories that may read the wall
// clock: measurement and exposition layers (obs, bench, softnic's calibration
// loop), the clock abstraction itself, and the CLIs. Everything else must go
// through an injected vclock.Clock.
var wallClockAllowed = []string{
	"internal/obs",
	"internal/bench",
	"internal/softnic",
	"internal/vclock",
	"cmd/",
}

// TestNoWallClockOnHotPaths is a lint-style guard: it fails if any
// non-test file outside the allowlist calls time.Now / time.Sleep / etc.
// directly. Hot-path packages (the driver, evolve, nicsim, faults, ring,
// chaos itself) must take time from an injected vclock.Clock so a chaos run
// is a pure function of (seed, config).
func TestNoWallClockOnHotPaths(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatalf("locating repo root: %v", err)
	}
	fset := token.NewFileSet()
	err = walkGoFiles(root, func(path, rel string) error {
		for _, prefix := range wallClockAllowed {
			if strings.HasPrefix(rel, prefix) {
				return nil
			}
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		// Only flag files that import the real "time" package (a local
		// package named time would be somebody else's problem).
		importsTime := false
		for _, imp := range f.Imports {
			if imp.Path.Value == `"time"` && imp.Name == nil {
				importsTime = true
			}
		}
		if !importsTime {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Name != "time" || !wallClockFuncs[sel.Sel.Name] {
				return true
			}
			pos := fset.Position(sel.Pos())
			t.Errorf("%s:%d: direct time.%s on a hot path — take an injected vclock.Clock instead (see internal/vclock)",
				rel, pos.Line, sel.Sel.Name)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatalf("walking repo: %v", err)
	}
}

// repoRoot walks up from the package directory to the directory holding
// go.mod.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}

// walkGoFiles calls fn for every non-test .go file under root outside .git
// and testdata directories, with its slash-separated path relative to root.
func walkGoFiles(root string, fn func(path, rel string) error) error {
	return walkGo(root, false, fn)
}

// walkGo is walkGoFiles with _test.go files included when withTests is set.
func walkGo(root string, withTests bool, fn func(path, rel string) error) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || !withTests && strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		return fn(path, filepath.ToSlash(rel))
	})
}

// censusAllowed names the exported identifiers no non-test file needs, each
// with the reason it stays. A key is a package ("opendesc" for the root, else
// its directory), a declaration in it ("internal/pkt.Builder" covers the type
// and its methods), or "*.Method" for a method any type may declare. Methods
// fmt or the error interface call (String, Error) need no entry: the census
// goes by name, and those names are named everywhere.
var censusAllowed = map[string]string{
	"opendesc":                         "the root package is the library's public API, for programs outside this module",
	"*.Unwrap":                         "errors.Is and errors.As call it through the Unwrap() error interface",
	"internal/pkt.Builder":             "the frame builder every package's tests share",
	"internal/obs.Registry.Collisions": "the probe the tenant and root metrics tests assert on: no two sources claimed one series",
	"internal/semantics.CostModel.WithOverrides": "the cost fixture the core, evolve and nicsim tests price a semantic with",
}

// TestExportedNamesHaveACaller is the code census: every exported top-level
// identifier (function, method, type, variable, constant) declared in a
// non-test file must be named by some non-test file other than at its
// declaration, or be covered by a censusAllowed entry. It goes by name, not
// by type, so it parses and never type-checks: a name collision can hide dead
// code but never flag live code. An entry that covers nothing fails too.
func TestExportedNamesHaveACaller(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatalf("locating repo root: %v", err)
	}
	type decl struct{ key, name, pos string }
	var decls []decl
	declared := map[string]int{} // name → declarations of it
	named := map[string]int{}    // name → identifiers spelling it, declarations included
	fset := token.NewFileSet()
	err = walkGoFiles(root, func(file, rel string) error {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Dir(rel)
		if pkg == "." {
			pkg = "opendesc"
		}
		add := func(id *ast.Ident, key string) {
			if id.IsExported() {
				declared[id.Name]++
				decls = append(decls, decl{pkg + "." + key, id.Name, fmt.Sprintf("%s:%d", rel, fset.Position(id.Pos()).Line)})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := d.Name.Name
				if d.Recv != nil {
					key = recvName(d.Recv.List[0].Type) + "." + key
				}
				add(d.Name, key)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Name.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, n.Name)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				named[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatalf("walking repo: %v", err)
	}
	covered := map[string]int{}
	for _, d := range decls {
		if named[d.name] > declared[d.name] {
			continue
		}
		if k, ok := allowedBy(d.key, d.name); ok {
			covered[k]++
			continue
		}
		t.Errorf("%s: %s is named by no non-test file: delete it, move it to the _test.go file that uses it, or add it to censusAllowed with a reason",
			d.pos, d.key)
	}
	for k, why := range censusAllowed {
		if why == "" {
			t.Errorf("censusAllowed[%q] states no reason", k)
		}
		if covered[k] == 0 {
			t.Errorf("censusAllowed[%q] covers no uncalled name: drop the entry", k)
		}
	}
	t.Logf("%d exported names; %d allowlist entries cover %d without a caller", len(decls), len(censusAllowed), sum(covered))
}

// allowedBy returns the censusAllowed entry covering a declaration key: the
// key itself, an enclosing type or package, or "*.name".
func allowedBy(key, name string) (string, bool) {
	for k := key; ; {
		if _, ok := censusAllowed[k]; ok {
			return k, true
		}
		i := strings.LastIndexByte(k, '.')
		if i < 0 {
			break
		}
		k = k[:i]
	}
	_, ok := censusAllowed["*."+name]
	return "*." + name, ok
}

// recvName is the type name of a method receiver: T, *T, T[K] or *T[K].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

// optionSuffixes name the struct types the field census covers: the knobs a
// caller sets once, before anything runs.
var optionSuffixes = []string{"Options", "Config", "Policy", "Spec"}

// optionAllowed names the option fields no non-test file sets, each with the
// reason it stays a field. A key is "dir.Type.Field".
var optionAllowed = map[string]string{
	"internal/evolve.Options.Costs":                 "the only way to reach Resolve's unsatisfiable branch",
	"internal/diffverify.Options.MaxPaths":          "bounds the fuzz screen; a certificate is issued only uncapped",
	"internal/diffverify.Options.MaxCases":          "bounds the fuzz screen; a certificate is issued only uncapped",
	"internal/diffverify.Options.Packets":           "bounds the fuzz screen and prices a marginal case in TestVerifyAllocGate; a certificate is issued at the default",
	"internal/fleet.Options.DisableVerify":          "the mutation that proves the S27 verification gate fires",
	"internal/chaos.Config.VerifyOverride":          "the mutation that proves the S27 diffverify oracle fires",
	"internal/chaos.FleetConfig.MutatedDescription": "the mutation that proves the S27 verified-gating oracle fires",
	"internal/tenant.Spec.Port":                     "a deployment setting: which port a tenant's traffic arrives on",
	"internal/obs/flight.Config.Clock":              "the counting clock TestPollReadsClockOnGrid holds a poll's clock reads to",
}

// TestOptionFieldsHaveASetter is the field census, beside the name census:
// every exported field of an exported struct whose name ends in one of
// optionSuffixes, declared in a non-test file outside the root package, must
// be set by some non-test file or be covered by an optionAllowed entry. A
// field is set by a key in a composite literal of its type, anywhere, or by
// an assignment, increment or address-of of x.Field outside its declaring
// package, so a type's own defaulting never counts as its caller. It
// type-checks the module (the standard library stubbed out, its errors
// ignored), so a field of the same name on another type hides nothing. An
// option one value uses is a constant; an option nothing sets is dead.
func TestOptionFieldsHaveASetter(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatalf("locating repo root: %v", err)
	}
	fset := token.NewFileSet()
	byDir := map[string][]*ast.File{}
	err = walkGoFiles(root, func(file, rel string) error {
		if ok, err := build.Default.MatchFile(filepath.Dir(file), filepath.Base(file)); !ok || err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err == nil {
			byDir[path.Dir(rel)] = append(byDir[path.Dir(rel)], f)
		}
		return err
	})
	if err != nil {
		t.Fatalf("walking repo: %v", err)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	pkgs := map[string]*types.Package{}
	var imp importerFunc
	imp = func(ip string) (*types.Package, error) {
		if p := pkgs[ip]; p != nil {
			return p, nil
		}
		dir, ok := strings.CutPrefix(ip, "opendesc/")
		if ip == "opendesc" {
			dir, ok = ".", true
		}
		if !ok { // the standard library: an empty stand-in
			pkgs[ip] = types.NewPackage(ip, path.Base(ip))
			pkgs[ip].MarkComplete()
			return pkgs[ip], nil
		}
		conf := types.Config{Importer: imp, Error: func(error) {}}
		pkgs[ip], _ = conf.Check(ip, fset, byDir[dir], info)
		return pkgs[ip], nil
	}
	dirs := map[*types.Package]string{}
	for dir := range byDir {
		ip := "opendesc/" + dir
		if dir == "." {
			ip = "opendesc"
		}
		p, _ := imp(ip)
		dirs[p] = dir
	}

	set := map[*types.Var]bool{}
	for dir, files := range byDir {
		for _, f := range files {
			setter := func(e ast.Expr) {
				if sel, ok := e.(*ast.SelectorExpr); ok && info.Selections[sel] != nil {
					if v, ok := info.Selections[sel].Obj().(*types.Var); ok && dirs[v.Pkg()] != dir {
						set[v.Origin()] = true
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := x.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
							set[v.Origin()] = true
						}
					}
				case *ast.AssignStmt:
					if x.Tok != token.DEFINE {
						for _, l := range x.Lhs {
							setter(l)
						}
					}
				case *ast.IncDecStmt:
					setter(x.X)
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						setter(x.X)
					}
				}
				return true
			})
		}
	}

	covered := map[string]bool{}
	n, unset := 0, 0
	for p, dir := range dirs {
		if dir == "." {
			continue
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !slices.ContainsFunc(optionSuffixes, func(x string) bool { return strings.HasSuffix(name, x) }) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				v := st.Field(i)
				if !v.Exported() {
					continue
				}
				n++
				if set[v] {
					continue
				}
				unset++
				key := dir + "." + name + "." + v.Name()
				if _, ok := optionAllowed[key]; ok {
					covered[key] = true
					continue
				}
				pos := fset.Position(v.Pos())
				rel, _ := filepath.Rel(root, pos.Filename)
				t.Errorf("%s:%d: %s is set by no non-test file: delete it, make it a constant, or add it to optionAllowed with a reason",
					filepath.ToSlash(rel), pos.Line, key)
			}
		}
	}
	for k, why := range optionAllowed {
		if why == "" {
			t.Errorf("optionAllowed[%q] states no reason", k)
		}
		if !covered[k] {
			t.Errorf("optionAllowed[%q] covers no unset field: drop the entry", k)
		}
	}
	t.Logf("%d option fields; %d allowlist entries cover the %d without a setter", n, len(optionAllowed), unset)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func sum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// docs are the three prose homes: DESIGN.md states the system, README.md its
// use, EXPERIMENTS.md the method and one result per experiment. History goes
// in CHANGES.md, timings in cmd/benchmark.
var docs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// docLine is one line of a doc; fenced is set inside a ``` block.
type docLine struct {
	n      int
	text   string
	fenced bool
}

func readDoc(t *testing.T, root, doc string) []docLine {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, doc))
	if err != nil {
		t.Fatal(err)
	}
	var lines []docLine
	fenced := false
	for i, text := range strings.Split(string(b), "\n") {
		fence := strings.HasPrefix(strings.TrimSpace(text), "```")
		if fence {
			fenced = !fenced
		}
		lines = append(lines, docLine{i + 1, text, fenced || fence})
	}
	return lines
}

// TestDocsCarryNoPRNumbers: a "PR <n>" in a doc is history that leaked into
// it, and a "ROADMAP item <n>" goes stale at the next re-anchor, which
// renumbers the items.
func TestDocsCarryNoPRNumbers(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatalf("locating repo root: %v", err)
	}
	pr := regexp.MustCompile(`\bPRs?\s?#?[0-9]+`)
	item := regexp.MustCompile(`\bROADMAP(?:'s)? items? [0-9]+`)
	for _, doc := range docs {
		for _, l := range readDoc(t, root, doc) {
			for _, m := range pr.FindAllString(l.text, -1) {
				t.Errorf("%s:%d: %q: a PR number is history, and history goes in CHANGES.md", doc, l.n, m)
			}
			for _, m := range item.FindAllString(l.text, -1) {
				t.Errorf("%s:%d: %q: ROADMAP renumbers its items; name the work, not its number", doc, l.n, m)
			}
		}
	}
}

// measured matches a measured figure: a number with a time unit, a rate, an
// allocation count, or a speed factor.
var measured = regexp.MustCompile(`\d(?:[\d.,]*\d)?\s?(?:ns|µs|us|ms|pkt/s|M?pps|MB/s|cases/s|allocs?|allocations)\b|\d(?:\.\d+)?[×x](?:\W|$)`)

// TestDocsCarryNoMeasurements: outside fenced blocks, DESIGN.md and README.md
// carry no measured figure. A figure goes stale with the next change to the
// code or the box; EXPERIMENTS.md and cmd/benchmark are where figures live.
// Sizes and counts the code fixes may stay; a design constant is named by its
// Go identifier.
func TestDocsCarryNoMeasurements(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatalf("locating repo root: %v", err)
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		for _, l := range readDoc(t, root, doc) {
			if l.fenced {
				continue
			}
			if m := measured.FindAllString(l.text, -1); m != nil {
				t.Errorf("%s:%d: %q: a measured figure; cite the cmd/benchmark metric or the EXPERIMENTS.md section that holds it", doc, l.n, m)
			}
		}
	}
}

var (
	// docRef is a pointer at a doc: "DESIGN.md S<n>", "EXPERIMENTS.md E<n>",
	// `<doc>.md, "<heading>"`, a bare mention, or an old notation (§, 's).
	docRef = regexp.MustCompile(`\b(DESIGN|README|EXPERIMENTS)(\.md)?('s)?( ?§| S\d+\b| E\d+\b|, "[^"]*")?`)
	// repoPath is a package, command or example path a doc names.
	repoPath = regexp.MustCompile(`\b(?:internal|cmd|examples)/[\w./*{},-]*[\w*}]`)
	// testName is a test, benchmark or fuzz target, or a -run prefix of one.
	testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	// bareRef is an S-row or E-section named in a doc's prose.
	bareRef = regexp.MustCompile(`\b([SE])(\d{1,2})\b`)
	// rowHead starts a row of DESIGN's system table; sectionHead an
	// EXPERIMENTS section.
	rowHead     = regexp.MustCompile(`^\| (S\d+) \|`)
	sectionHead = regexp.MustCompile(`^## (E\d+)\b`)
)

// TestDocPointersResolve: every pointer into the docs names something that
// exists. In Go files and in the docs, "DESIGN.md S<n>" names a row of
// DESIGN's system table, "EXPERIMENTS.md E<n>" a section, and
// `DESIGN.md, "<heading>"` a heading; § and 's notations are refused. In the
// docs, an internal/…, cmd/… or examples/… path must exist, a test name must
// be a test, and a bare S<n> or E<n> must be a row or a section.
func TestDocPointersResolve(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatalf("locating repo root: %v", err)
	}
	rows, sections := map[string]bool{}, map[string]bool{}
	headings := map[string]map[string]bool{}
	lines := map[string][]docLine{}
	for _, doc := range docs {
		lines[doc] = readDoc(t, root, doc)
		headings[doc] = map[string]bool{}
		for _, l := range lines[doc] {
			if strings.HasPrefix(l.text, "#") && !l.fenced {
				headings[doc][strings.TrimSpace(strings.TrimLeft(l.text, "#"))] = true
			}
			if m := rowHead.FindStringSubmatch(l.text); m != nil && doc == "DESIGN.md" {
				rows[m[1]] = true
			}
			if m := sectionHead.FindStringSubmatch(l.text); m != nil && doc == "EXPERIMENTS.md" {
				sections[m[1]] = true
			}
		}
	}

	check := func(where, text string) {
		old := false
		for _, m := range docRef.FindAllStringSubmatch(text, -1) {
			doc, target := m[1]+".md", strings.TrimSpace(m[4])
			switch {
			case m[3] != "" || strings.HasPrefix(target, "§"):
				old = true
				t.Errorf("%s: %q: write DESIGN.md S<n>, EXPERIMENTS.md E<n> or %s, \"<heading>\"", where, m[0], doc)
			case m[2] == "" || target == "":
			case strings.HasPrefix(target, "S"):
				if doc != "DESIGN.md" || !rows[target] {
					t.Errorf("%s: %q: DESIGN.md has no row %s", where, m[0], target)
				}
			case strings.HasPrefix(target, "E"):
				if doc != "EXPERIMENTS.md" || !sections[target] {
					t.Errorf("%s: %q: EXPERIMENTS.md has no section %s", where, m[0], target)
				}
			default:
				if h := strings.Trim(target, `, "`); !headings[doc][h] {
					t.Errorf("%s: %q: %s has no heading %q", where, m[0], doc, h)
				}
			}
		}
		if !old && strings.Contains(text, "§S") {
			t.Errorf("%s: §S<n> is not a pointer; write DESIGN.md S<n>", where)
		}
	}
	var tests []string
	err = walkGo(root, true, func(file, rel string) error {
		b, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(b), "\n") {
			if rel != "internal/chaos/lint_test.go" { // it states the notations
				check(fmt.Sprintf("%s:%d", rel, i+1), line)
			}
			if name, ok := strings.CutPrefix(line, "func "); ok && strings.HasSuffix(rel, "_test.go") {
				if m := testName.FindString(name); m != "" && strings.HasPrefix(name, m) {
					tests = append(tests, m)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking repo: %v", err)
	}

	for _, doc := range docs {
		for _, l := range lines[doc] {
			where := fmt.Sprintf("%s:%d", doc, l.n)
			check(where, l.text)
			for _, p := range repoPath.FindAllString(l.text, -1) {
				if !pathExists(root, p) {
					t.Errorf("%s: %s does not exist", where, p)
				}
			}
			for _, name := range testName.FindAllString(l.text, -1) {
				if !slices.ContainsFunc(tests, func(x string) bool { return strings.HasPrefix(x, name) }) {
					t.Errorf("%s: no test, benchmark or fuzz target is named %s", where, name)
				}
			}
			if l.fenced {
				continue
			}
			for _, m := range bareRef.FindAllStringSubmatch(l.text, -1) {
				if m[1] == "S" && !rows[m[0]] || m[1] == "E" && !sections[m[0]] {
					t.Errorf("%s: %s names no DESIGN.md row or EXPERIMENTS.md section", where, m[0])
				}
			}
		}
	}
}

// TestCommandPathsResolve: beyond the docs — in Go comments, the Makefile,
// the CI workflows and the skill notes — a cmd/… path names something that
// exists, so a command deleted or renamed leaves no pointer behind.
func TestCommandPathsResolve(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatalf("locating repo root: %v", err)
	}
	cmdPath := regexp.MustCompile(`\bcmd/[\w./*{},-]*[\w*}]`)
	check := func(where, text string) {
		for _, p := range cmdPath.FindAllString(text, -1) {
			if !pathExists(root, p) {
				t.Errorf("%s: %s does not exist", where, p)
			}
		}
	}
	fset := token.NewFileSet()
	err = walkGo(root, true, func(file, rel string) error {
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				check(fmt.Sprintf("%s:%d", rel, fset.Position(c.Pos()).Line), c.Text)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking repo: %v", err)
	}
	var files []string
	for _, pattern := range []string{"Makefile", ".github/workflows/*.yml", ".claude/skills/*/SKILL.md"} {
		m, err := filepath.Glob(filepath.Join(root, pattern))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 2 {
		t.Fatalf("found %d of the Makefile and workflow files", len(files))
	}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(root, file)
		for i, line := range strings.Split(string(b), "\n") {
			check(fmt.Sprintf("%s:%d", rel, i+1), line)
		}
	}
}

// pathExists reports whether a repo path a doc names exists: "a/{b,c}" names
// both, "a/*" at least one match, and "internal/chaos.RunFleet" its package.
func pathExists(root, p string) bool {
	if i := strings.IndexByte(p, '{'); i >= 0 {
		j := strings.IndexByte(p, '}')
		for _, alt := range strings.Split(p[i+1:j], ",") {
			if !pathExists(root, p[:i]+alt+p[j+1:]) {
				return false
			}
		}
		return true
	}
	base := strings.LastIndexByte(p, '/')
	if dot := base + strings.IndexByte(p[base:], '.'); dot > base && dot+1 < len(p) && 'A' <= p[dot+1] && p[dot+1] <= 'Z' {
		p = p[:dot]
	}
	m, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(p)))
	return err == nil && len(m) > 0
}
