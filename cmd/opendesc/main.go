// Command opendesc is the OpenDesc compiler driver: it maps an application's
// metadata intent onto a NIC interface description, selects the optimal
// completion path (Eq. 1), and emits a report plus generated accessors.
//
// Usage:
//
//	opendesc -list
//	opendesc -nic e1000e -req rss,ip_checksum
//	opendesc -nic mlx5 -intent app.p4 -backend go -o gen/
//	opendesc -nic qdma -req kv_key,rss -backend ebpf
//	opendesc -nic e1000e -req rss -backend dot > cfg.dot
//	opendesc run -nic mlx5 -req rss,vlan # drive the driver facade end to end, every read checked
//	opendesc run -evolve -faults drop=1e-3 -nic e1000e -req rss,ip_checksum,vlan,pkt_len
//	opendesc experiments -quick          # every experiment table (EXPERIMENTS.md)
//	opendesc experiments -v e19 e20      # ... with the tenant and fleet transcripts
//	opendesc flight dump.odfl            # decode a flight-recorder postmortem
//	opendesc flight -chrome dump.odfl    # ... as Perfetto-loadable JSON
//	opendesc flight a.odfl b.odfl        # N dumps, one time-aligned trace
//	opendesc flight spans.json *.odfl    # ... with the controller's spans
//	opendesc chaos -cases 1000           # deterministic whole-stack chaos sweep
//	opendesc chaos -seed 7 -bug -shrink  # catch the canary bug, emit a minimal reproducer
//	opendesc chaos -replay repro.chaos   # replay a shrunk reproducer spec
//	opendesc describe -nic mlx5          # emit the fleet discovery document
//	opendesc describe -check desc.json   # validate one as the controller would
//	opendesc verify e1000e               # differential verification: 4 views × all paths
//	opendesc verify -all -mutants 32     # ... every bundled NIC + adversarial mutants
//	opendesc verify -break mlx5          # ablation: harness catches an injected accessor bug
//
// The -nic flag accepts a bundled model name (see -list) or a path to a .p4
// interface description. The intent comes from -intent (a P4 file with a
// @semantic-annotated header, paper Fig. 5) or -req (a comma-separated
// semantic list).
//
// Every mode prints its usage on stderr: -h exits 0, a command line the mode
// refuses exits 2 with nothing run, and a failure exits 1 (DESIGN.md S16).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/obs"
	"opendesc/internal/p4/parser"
	"opendesc/internal/p4/sema"
)

// modes are the rows of the CLI, all of one shape: `opendesc <name> args…`
// runs the row its first argument names, and any other command line is the
// compiler's, the row named "". A mode writes its output to stdout and
// returns its failure; dispatch alone turns that into an exit status.
var modes = map[string]func(args []string, stdout, stderr io.Writer) error{
	"":            runCompiler,
	"run":         runDriver,
	"experiments": runExperiments,
	"flight":      runFlight,
	"chaos":       runChaos,
	"describe":    runDescribe,
	"verify":      runVerify,
}

// usageError is a command line the mode refuses before anything runs.
type usageError struct{ error }

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// dispatch runs the mode args name and maps its result to the exit status:
// 0 when it succeeded or printed its help, 2 when it refused the command
// line, 1 when it failed. The error goes to stderr.
func dispatch(args []string, stdout, stderr io.Writer) int {
	name := ""
	if len(args) > 0 && modes[args[0]] != nil {
		name, args = args[0], args[1:]
	}
	err := modes[name](args, stdout, stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintf(stderr, "opendesc: %v\n", err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// parseFlags parses a mode's flags with the usage on stderr. -h returns
// flag.ErrHelp; any other parse error, such as a flag the mode does not
// define, is a usageError.
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	err := fs.Parse(args)
	if err != nil && err != flag.ErrHelp {
		return usageError{err}
	}
	return err
}

// runCompiler is the compiler driver: it loads the description and the
// intent, selects the completion path and renders one backend — or, with
// -list, -plan or -diff, the model list, the offload plan or the drift
// report.
func runCompiler(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("opendesc", flag.ContinueOnError)
	var (
		list       = fs.Bool("list", false, "list bundled NIC models and exit")
		nicArg     = fs.String("nic", "", "NIC model name or .p4 description file")
		intentFile = fs.String("intent", "", "application intent .p4 file")
		intentHdr  = fs.String("intent-header", "", "intent header name (default: the @semantic-annotated header)")
		req        = fs.String("req", "", "comma-separated requested semantics (alternative to -intent)")
		backend    = fs.String("backend", "report", "output backend: report, go, c, ebpf, dot")
		outDir     = fs.String("o", "", "write generated files into this directory (default stdout)")
		pkg        = fs.String("pkg", "opendescgen", "package name for the Go backend")
		prefix     = fs.String("prefix", "opendesc", "symbol prefix for the C backend")
		alpha      = fs.Float64("alpha", 0, "DMA footprint weight α (0 = default, negative = ignore footprint)")
		noPrune    = fs.Bool("no-prune", false, "disable symbolic path pruning (debugging)")
		plan       = fs.Bool("plan", false, "print the offload placement plan (software vs programmable pipeline)")
		traceFlag  = fs.Bool("trace", false, "print a per-stage compile span report (frontend → cfg → paths → select → codegen)")
		diffMode   = fs.Bool("diff", false, "compare two NIC descriptions under one intent: opendesc -diff old.p4 new.p4 -req ... (or -intent)")
	)
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if !*diffMode && fs.NArg() > 0 {
		return usageError{fmt.Errorf("unexpected arguments %v", fs.Args())}
	}

	if *list {
		for _, m := range nic.All() {
			paths, err := m.Paths()
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-8s %-22s %-12s %d completion paths — %s\n",
				m.Name, m.Vendor, m.Kind, len(paths), m.Description)
		}
		return nil
	}
	if *diffMode {
		// Flag parsing stops at the first positional argument, so `-diff
		// old.p4 new.p4 -intent app.p4` leaves the trailing intent flags
		// unparsed; take the two descriptions and parse the rest.
		descs := fs.Args()
		if len(descs) < 2 || strings.HasPrefix(descs[1], "-") {
			return usageError{fmt.Errorf("-diff takes two NIC descriptions, old and new, and flags go before them (-diff -req rss old new); got %v", descs)}
		}
		if err := parseFlags(fs, descs[2:], stderr); err != nil {
			return err
		}
		if fs.NArg() > 0 {
			return usageError{fmt.Errorf("-diff: unexpected arguments %v", fs.Args())}
		}
		intent, err := loadIntent(*intentFile, *intentHdr, *req)
		if err != nil {
			return err
		}
		out, err := runDiff(descs[0], descs[1], intent, *alpha)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, out)
		return nil
	}
	if *nicArg == "" {
		return usageError{fmt.Errorf("missing -nic (try -list)")}
	}
	// Each backend renders one file: its default name under -o.
	backends := map[string]struct {
		file   string
		render func(*core.Result) string
	}{
		"report": {"report.txt", (*core.Result).Report},
		"go":     {"accessors.go", func(r *core.Result) string { return codegen.GenGo(r, *pkg) }},
		"c":      {"accessors.h", func(r *core.Result) string { return codegen.GenC(r, *prefix) }},
		"ebpf":   {"accessors_bpf.c", codegen.GenEBPF},
		"dot":    {"deparser.dot", func(r *core.Result) string { return r.Graph.DOT() }},
	}
	b, ok := backends[*backend]
	if !ok {
		return usageError{fmt.Errorf("unknown backend %q", *backend)}
	}
	intent, err := loadIntent(*intentFile, *intentHdr, *req)
	if err != nil {
		return err
	}

	m, err := loadNIC(*nicArg)
	if err != nil {
		return err
	}
	compiled := m
	var tr *obs.Trace
	if *traceFlag {
		// The frontend runs again under its own span, since a bundled model
		// was parsed at start-up; the fresh model then builds its analysis
		// under the cfg and paths spans.
		tr = obs.NewTrace("compile " + *nicArg)
		sp := tr.Start("frontend").Annotate("source_bytes", len(m.Source))
		if compiled, err = nic.Parse(m.Name+".p4", m.Source); err != nil {
			return err
		}
		sp.Annotate("controls", len(compiled.Info.Prog.Controls())).End()
	}
	opts := core.CompileOptions{
		Select:    core.SelectOptions{Alpha: *alpha},
		Enumerate: core.EnumerateOptions{DisablePruning: *noPrune},
		Trace:     tr,
	}
	res, err := compiled.Compile(intent, opts)
	if err != nil {
		return err
	}

	if *plan {
		p, err := core.PlanOffloads(res, m.Pipeline, nil)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, p)
	} else {
		var sp *obs.Span
		if tr != nil {
			sp = tr.Start("codegen").Annotate("backend", *backend)
		}
		out := b.render(res)
		if sp != nil {
			sp.Annotate("bytes", len(out)).End()
		}
		if *outDir == "" {
			fmt.Fprint(stdout, out)
		} else {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*outDir, b.file)
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "wrote %s\n", path)
		}
	}
	if tr != nil {
		fmt.Fprint(stdout, tr.Report())
	}
	return nil
}

// runDiff compiles the same intent against two NIC descriptions (bundled
// model names or .p4 files) and renders the interface drift report — which
// accessors moved, resized, or fell back to software, and whether the drift
// breaks fixed-offset readers or only regenerated accessors.
func runDiff(oldArg, newArg string, intent *core.Intent, alpha float64) (string, error) {
	oldM, err := loadNIC(oldArg)
	if err != nil {
		return "", err
	}
	newM, err := loadNIC(newArg)
	if err != nil {
		return "", err
	}
	opts := core.CompileOptions{Select: core.SelectOptions{Alpha: alpha}}
	oldRes, err := oldM.Compile(intent, opts)
	if err != nil {
		return "", fmt.Errorf("compiling against %s: %w", oldM.Name, err)
	}
	newRes, err := newM.Compile(intent, opts)
	if err != nil {
		return "", fmt.Errorf("compiling against %s: %w", newM.Name, err)
	}
	d, err := core.DiffResults(oldRes, newRes)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "OpenDesc interface drift: %s -> %s under intent %s\n",
		oldM.Name, newM.Name, intent.Req())
	sb.WriteString(d.String())
	switch {
	case len(d.LostSemantics()) > 0:
		fmt.Fprintf(&sb, "verdict: BREAKING — semantics lost: %v\n", d.LostSemantics())
	case d.Breaking():
		sb.WriteString("verdict: breaking for fixed-offset readers; regenerated accessors stay correct\n")
	default:
		sb.WriteString("verdict: compatible — no accessor drift\n")
	}
	return sb.String(), nil
}

// loadNIC resolves a bundled model name, or the path of a .p4 description
// (any argument holding a '.' or a '/'), into its model. The compiler, -diff
// and verify all load through it.
func loadNIC(arg string) (*nic.Model, error) {
	if !strings.ContainsAny(arg, "./") {
		return nic.Load(arg)
	}
	src, err := os.ReadFile(arg)
	if err != nil {
		return nil, err
	}
	return nic.Parse(arg, string(src))
}

func loadIntent(file, header, req string) (*core.Intent, error) {
	switch {
	case file != "" && req != "":
		return nil, usageError{fmt.Errorf("-intent and -req are mutually exclusive")}
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		prog, err := parser.Parse(file, string(src))
		if err != nil {
			return nil, err
		}
		info, err := sema.Check(prog)
		if err != nil {
			return nil, err
		}
		return core.ParseIntent(info, header)
	case req != "":
		var names []string
		for _, s := range strings.Split(req, ",") {
			if s = strings.TrimSpace(s); s != "" {
				names = append(names, s)
			}
		}
		return core.IntentFromNames("cli_intent", names...)
	default:
		return nil, usageError{fmt.Errorf("missing intent: pass -intent app.p4 or -req rss,vlan,...")}
	}
}
