package main

import (
	"bytes"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/semantics"
)

// commandLine is the argument list that reaches mode with args: the
// compiler's, the row named "", is args alone.
func commandLine(mode string, args ...string) []string {
	if mode == "" {
		return args
	}
	return append([]string{mode}, args...)
}

// TestEveryModeKeepsTheUsageContract holds every row of the mode table to
// one contract: -h prints the usage on stderr and exits 0; a flag the mode
// does not define exits 2 naming it on stderr; so does a stray argument to a
// mode that takes none. In none of these does the mode write to stdout.
func TestEveryModeKeepsTheUsageContract(t *testing.T) {
	// A valid command line of each mode that takes no positional argument;
	// nil for a mode that takes some.
	valid := map[string][]string{
		"":            {"-nic", "e1000", "-req", "rss"},
		"run":         {"-packets", "8"},
		"chaos":       {"-steps", "8"},
		"describe":    {"-nic", "e1000"},
		"experiments": nil,
		"flight":      nil,
		"verify":      nil,
	}
	for _, mode := range slices.Sorted(maps.Keys(modes)) {
		base, ok := valid[mode]
		if !ok {
			t.Errorf("mode %q has no row here", mode)
			continue
		}
		exit := func(args ...string) (int, string, string) {
			var stdout, stderr bytes.Buffer
			code := dispatch(commandLine(mode, args...), &stdout, &stderr)
			return code, stdout.String(), stderr.String()
		}
		if code, stdout, stderr := exit("-h"); code != 0 || stdout != "" || stderr == "" {
			t.Errorf("%q -h: exit %d, stdout %q, stderr %q; want exit 0 and the usage on stderr", mode, code, stdout, stderr)
		}
		if code, stdout, stderr := exit("-bogus"); code != 2 || stdout != "" || !strings.Contains(stderr, "-bogus") {
			t.Errorf("%q -bogus: exit %d, stdout %q, stderr %q; want exit 2 naming -bogus", mode, code, stdout, stderr)
		}
		if base == nil {
			continue
		}
		if code, stdout, stderr := exit(append(base, "stray")...); code != 2 || stdout != "" || !strings.Contains(stderr, "stray") {
			t.Errorf("%q %v stray: exit %d, stdout %q, stderr %q; want exit 2 naming the argument", mode, base, code, stdout, stderr)
		}
	}
}

// TestCompilerMode runs the compiler row for one NIC and intent: each
// backend prints what the same compile renders, -o writes it under the
// backend's file name instead, and -list prints one line per bundled NIC.
func TestCompilerMode(t *testing.T) {
	m, err := loadNIC("e1000e")
	if err != nil {
		t.Fatal(err)
	}
	intent, err := loadIntent("", "", "rss,vlan")
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Compile(intent, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ backend, file, want string }{
		{"report", "report.txt", res.Report()},
		{"go", "accessors.go", codegen.GenGo(res, "opendescgen")},
		{"c", "accessors.h", codegen.GenC(res, "opendesc")},
		{"ebpf", "accessors_bpf.c", codegen.GenEBPF(res)},
		{"dot", "deparser.dot", res.Graph.DOT()},
	} {
		args := []string{"-nic", "e1000e", "-req", "rss,vlan", "-backend", tc.backend}
		var stdout, stderr bytes.Buffer
		if code := dispatch(args, &stdout, &stderr); code != 0 || stdout.String() != tc.want {
			t.Errorf("-backend %s: exit %d, stderr %q; stdout equals the compile's rendering: %v",
				tc.backend, code, &stderr, stdout.String() == tc.want)
		}
		dir := t.TempDir()
		stdout.Reset()
		stderr.Reset()
		if code := dispatch(append(args, "-o", dir), &stdout, &stderr); code != 0 || stdout.Len() != 0 {
			t.Errorf("-backend %s -o: exit %d, stdout %q, stderr %q", tc.backend, code, &stdout, &stderr)
		}
		path := filepath.Join(dir, tc.file)
		if got, err := os.ReadFile(path); err != nil || string(got) != tc.want {
			t.Errorf("-backend %s -o: %s does not hold the rendering (err %v)", tc.backend, path, err)
		}
		if !strings.Contains(stderr.String(), "wrote "+path) {
			t.Errorf("-backend %s -o: stderr %q does not name %s", tc.backend, &stderr, path)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := dispatch([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d, stderr %q", code, &stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	models := nic.All()
	if len(lines) != len(models) {
		t.Fatalf("-list printed %d lines for %d bundled NICs:\n%s", len(lines), len(models), &stdout)
	}
	for i, m := range models {
		if !strings.HasPrefix(lines[i], m.Name+" ") {
			t.Errorf("-list line %d is %q, want %s's", i, lines[i], m.Name)
		}
	}
}

func TestLoadNICByName(t *testing.T) {
	m, err := loadNIC("e1000e")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "e1000e" || m.Info == nil {
		t.Errorf("info = %p name = %q", m.Info, m.Name)
	}
	if _, err := loadNIC("notanic"); err == nil {
		t.Error("unknown model should fail")
	}
}

func TestLoadNICFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "custom.p4")
	src := `
struct ctx_t { bit<1> f; }
header d_t { bit<8> x; }
struct meta_t { @semantic("rss") bit<32> h; }
@bind("CTX","ctx_t") @bind("DESC","d_t") @bind("META","meta_t")
control CmptDeparser<CTX,DESC,META>(cmpt_out co, in CTX ctx, in DESC d, in META m) {
    apply { co.emit(m.h); }
}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := loadNIC(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "custom" {
		t.Errorf("name = %q", m.Name)
	}
	if m.Info.Prog.Control("CmptDeparser") == nil {
		t.Error("control not parsed")
	}
	// A malformed file fails naming the frontend stage and the position.
	bad := filepath.Join(dir, "bad.p4")
	os.WriteFile(bad, []byte("header {"), 0o644)
	if _, err := loadNIC(bad); err == nil || !strings.HasPrefix(err.Error(), "parse: "+bad+":1:") {
		t.Errorf("malformed description: err %v, want a parse error at %s:1", err, bad)
	}
	if _, err := loadNIC(filepath.Join(dir, "missing.p4")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestLoadIntentFromReq(t *testing.T) {
	it, err := loadIntent("", "", "rss, vlan ,ip_checksum")
	if err != nil {
		t.Fatal(err)
	}
	req := it.Req()
	for _, s := range []semantics.Name{semantics.RSS, semantics.VLAN, semantics.IPChecksum} {
		if !req.Has(s) {
			t.Errorf("missing %s", s)
		}
	}
	if _, err := loadIntent("", "", "not_a_semantic"); err == nil {
		t.Error("unknown semantic should fail")
	}
	if _, err := loadIntent("", "", ""); err == nil {
		t.Error("empty intent should fail")
	}
}

func TestLoadIntentFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "intent.p4")
	src := `
header intent_t {
    @semantic("rss") bit<32> h;
    @semantic("vlan") bit<16> v;
}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	it, err := loadIntent(path, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if it.Name != "intent_t" || len(it.Fields) != 2 {
		t.Errorf("intent = %+v", it)
	}
	// Explicit header name selects, wrong name fails.
	if _, err := loadIntent(path, "intent_t", ""); err != nil {
		t.Errorf("named header: %v", err)
	}
	if _, err := loadIntent(path, "nope_t", ""); err == nil {
		t.Error("wrong header name should fail")
	}
	// File and req together are rejected.
	if _, err := loadIntent(path, "", "rss"); err == nil {
		t.Error("-intent and -req must be mutually exclusive")
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files under testdata/")

func TestRunDiffGolden(t *testing.T) {
	intent, err := loadIntent("", "", "rss,vlan,pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	out, err := runDiff("e1000", "e1000e", intent, 0)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "diff_e1000_e1000e.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("diff report drifted from golden:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

// TestRunDiffNamesSidesAsTyped: two descriptions of one base name in two
// directories are told apart by their paths as typed.
func TestRunDiffNamesSidesAsTyped(t *testing.T) {
	intent, err := loadIntent("", "", "rss")
	if err != nil {
		t.Fatal(err)
	}
	var sides [2]string
	for i, src := range []string{"boolctx.p4", "booleq.p4"} {
		body, err := os.ReadFile(filepath.Join("..", "..", "internal", "nicsim", "testdata", src))
		if err != nil {
			t.Fatal(err)
		}
		sides[i] = filepath.Join(t.TempDir(), "x.p4")
		if err := os.WriteFile(sides[i], body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := runDiff(sides[0], sides[1], intent, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := "OpenDesc interface drift: " + sides[0] + " -> " + sides[1] + " under intent"; !strings.HasPrefix(out, want) {
		t.Errorf("report opens %q, want %q", strings.SplitN(out, "\n", 2)[0], want)
	}
}

func TestRunDiffIdentical(t *testing.T) {
	intent, err := loadIntent("", "", "rss,pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	out, err := runDiff("ixgbe", "ixgbe", intent, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "compatible — no accessor drift") {
		t.Errorf("self-diff not compatible:\n%s", out)
	}
}

func TestRunDiffErrors(t *testing.T) {
	intent, err := loadIntent("", "", "rss")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runDiff("notanic", "e1000e", intent, 0); err == nil {
		t.Error("unknown old model should fail")
	}
	if _, err := runDiff("e1000e", "notanic", intent, 0); err == nil {
		t.Error("unknown new model should fail")
	}
	// An intent one side cannot satisfy surfaces as a compile error naming
	// the failing model.
	ts, err := loadIntent("", "", "timestamp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runDiff("e1000", "mlx5", ts, 0); err == nil || !strings.Contains(err.Error(), "e1000") {
		t.Errorf("unsat old side: err = %v, want mention of e1000", err)
	}
}
