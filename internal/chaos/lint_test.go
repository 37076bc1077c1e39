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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
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

// TestDocsCarryNoPRNumbers: DESIGN.md describes the system and README.md its
// use; history lives in CHANGES.md. A "PR <n>" in either is history that
// leaked into them.
func TestDocsCarryNoPRNumbers(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatalf("locating repo root: %v", err)
	}
	pr := regexp.MustCompile(`\bPRs? #?[0-9]+`)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		b, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range pr.FindAllString(line, -1) {
				t.Errorf("%s:%d: %q: a PR number is history, and history goes in CHANGES.md", doc, i+1, m)
			}
		}
	}
}
