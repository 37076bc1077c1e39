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
//	opendesc flight -merge a.odfl b.odfl # N dumps, one time-aligned trace
//	opendesc fleettrace spans.json *.odfl  # controller spans + host rings merged
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
package main

import (
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
	"opendesc/internal/semantics"
)

// subcommands are the modes `opendesc <name> args…` dispatches to; each
// parses its own flags.
var subcommands = map[string]func(args []string, stdout, stderr io.Writer) int{
	"run":         runDriver,
	"experiments": runExperiments,
	"flight":      exitStatus(runFlight),
	"fleettrace":  exitStatus(runFleetTrace),
	"chaos":       exitStatus(runChaos),
	"describe":    exitStatus(runDescribe),
	"verify":      exitStatus(runVerify),
}

// exitStatus adapts a mode that reports failure as an error: exit 1 with
// the error on stderr.
func exitStatus(run func(args []string, w io.Writer) error) func(args []string, stdout, stderr io.Writer) int {
	return func(args []string, stdout, stderr io.Writer) int {
		if err := run(args, stdout); err != nil {
			fmt.Fprintf(stderr, "opendesc: %v\n", err)
			return 1
		}
		return 0
	}
}

func main() {
	if len(os.Args) > 1 {
		if sub, ok := subcommands[os.Args[1]]; ok {
			os.Exit(sub(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	var (
		list       = flag.Bool("list", false, "list bundled NIC models and exit")
		nicArg     = flag.String("nic", "", "NIC model name or .p4 description file")
		intentFile = flag.String("intent", "", "application intent .p4 file")
		intentHdr  = flag.String("intent-header", "", "intent header name (default: the @semantic-annotated header)")
		req        = flag.String("req", "", "comma-separated requested semantics (alternative to -intent)")
		backend    = flag.String("backend", "report", "output backend: report, go, c, ebpf, dot")
		outDir     = flag.String("o", "", "write generated files into this directory (default stdout)")
		pkg        = flag.String("pkg", "opendescgen", "package name for the Go backend")
		prefix     = flag.String("prefix", "opendesc", "symbol prefix for the C backend")
		alpha      = flag.Float64("alpha", 0, "DMA footprint weight α (0 = default, negative = ignore footprint)")
		noPrune    = flag.Bool("no-prune", false, "disable symbolic path pruning (debugging)")
		plan       = flag.Bool("plan", false, "print the offload placement plan (software vs programmable pipeline)")
		traceFlag  = flag.Bool("trace", false, "print a per-stage compile span report (parse → sema → cfg → paths → select → codegen)")
		diffMode   = flag.Bool("diff", false, "compare two NIC descriptions under one intent: opendesc -diff old.p4 new.p4 -req ... (or -intent)")
	)
	flag.Parse()

	if *list {
		for _, m := range nic.All() {
			paths, err := m.Paths()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-8s %-22s %-12s %d completion paths — %s\n",
				m.Name, m.Vendor, m.Kind, len(paths), m.Description)
		}
		return
	}
	if *diffMode {
		// Standard flag parsing stops at the first positional argument, so
		// `-diff old.p4 new.p4 -intent app.p4` leaves the trailing intent
		// flags unparsed; pick up the two descriptions and re-parse the rest.
		args := flag.Args()
		if len(args) < 2 {
			fatal(fmt.Errorf("-diff needs two NIC descriptions (old new), got %d", len(args)))
		}
		if err := flag.CommandLine.Parse(args[2:]); err != nil {
			fatal(err)
		}
		if flag.NArg() > 0 {
			fatal(fmt.Errorf("-diff: unexpected arguments %v", flag.Args()))
		}
		intent, err := loadIntent(*intentFile, *intentHdr, *req)
		if err != nil {
			fatal(err)
		}
		out, err := runDiff(args[0], args[1], intent, *alpha)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	}
	if *nicArg == "" {
		fatal(fmt.Errorf("missing -nic (try -list)"))
	}

	var tr *obs.Trace
	if *traceFlag {
		tr = obs.NewTrace("compile " + *nicArg)
	}
	info, nicName, err := loadNIC(*nicArg, tr)
	if err != nil {
		fatal(err)
	}
	intent, err := loadIntent(*intentFile, *intentHdr, *req)
	if err != nil {
		fatal(err)
	}

	opts := core.CompileOptions{
		Select:    core.SelectOptions{Alpha: *alpha},
		Enumerate: core.EnumerateOptions{DisablePruning: *noPrune},
		Trace:     tr,
	}
	res, err := core.Compile(nicName, info, intent, opts)
	if err != nil {
		fatal(err)
	}

	if *plan {
		caps := core.PipelineCaps{}
		if m, err := nic.Load(nicName); err == nil {
			caps = m.Pipeline
		}
		p, err := core.PlanOffloads(res, caps, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Print(p)
		if tr != nil {
			fmt.Print(tr.Report())
		}
		return
	}

	// Each backend renders one file: its default name under -o.
	backends := map[string]struct {
		file   string
		render func() string
	}{
		"report": {"report.txt", res.Report},
		"go":     {"accessors.go", func() string { return codegen.GenGo(res, *pkg) }},
		"c":      {"accessors.h", func() string { return codegen.GenC(res, *prefix) }},
		"ebpf":   {"accessors_bpf.c", func() string { return codegen.GenEBPF(res) }},
		"dot":    {"deparser.dot", res.Graph.DOT},
	}
	b, ok := backends[*backend]
	if !ok {
		fatal(fmt.Errorf("unknown backend %q", *backend))
	}
	var sp *obs.Span
	if tr != nil {
		sp = tr.Start("codegen").Annotate("backend", *backend)
	}
	out := b.render()
	if sp != nil {
		sp.Annotate("bytes", len(out)).End()
	}
	emit(*outDir, b.file, out)
	if tr != nil {
		fmt.Print(tr.Report())
	}
}

// runDiff compiles the same intent against two NIC descriptions (bundled
// model names or .p4 files) and renders the interface drift report — which
// accessors moved, resized, or fell back to software, and whether the drift
// breaks fixed-offset readers or only regenerated accessors.
func runDiff(oldArg, newArg string, intent *core.Intent, alpha float64) (string, error) {
	oldInfo, oldName, err := loadNIC(oldArg, nil)
	if err != nil {
		return "", err
	}
	newInfo, newName, err := loadNIC(newArg, nil)
	if err != nil {
		return "", err
	}
	opts := core.CompileOptions{Select: core.SelectOptions{Alpha: alpha}}
	oldRes, err := core.Compile(oldName, oldInfo, intent, opts)
	if err != nil {
		return "", fmt.Errorf("compiling against %s: %w", oldName, err)
	}
	newRes, err := core.Compile(newName, newInfo, intent, opts)
	if err != nil {
		return "", fmt.Errorf("compiling against %s: %w", newName, err)
	}
	d, err := core.DiffResults(oldRes, newRes)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "OpenDesc interface drift: %s -> %s under intent %s\n",
		oldName, newName, intent.Req())
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

// loadNIC resolves a bundled model name or a .p4 file into its checked
// description, with optional frontend span recording: when tr is non-nil the NIC description is (re)parsed and checked under "parse" and
// "sema" spans — also for bundled models, whose cached Info would otherwise
// hide the frontend cost.
func loadNIC(arg string, tr *obs.Trace) (*sema.Info, string, error) {
	var name, file, src string
	if !strings.ContainsAny(arg, "./") {
		m, err := nic.Load(arg)
		if err != nil {
			return nil, "", err
		}
		if tr == nil {
			return m.Info, m.Name, nil
		}
		name, file, src = m.Name, m.Name+".p4", m.Source
	} else {
		b, err := os.ReadFile(arg)
		if err != nil {
			return nil, "", err
		}
		name, file, src = strings.TrimSuffix(filepath.Base(arg), ".p4"), arg, string(b)
	}
	var sp *obs.Span
	if tr != nil {
		sp = tr.Start("parse").Annotate("source_bytes", len(src))
	}
	prog, err := parser.Parse(file, src)
	if err != nil {
		return nil, "", err
	}
	if sp != nil {
		sp.End()
		sp = tr.Start("sema")
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, "", err
	}
	if sp != nil {
		sp.Annotate("controls", len(info.Prog.Controls())).End()
	}
	return info, name, nil
}

func loadIntent(file, header, req string) (*core.Intent, error) {
	switch {
	case file != "" && req != "":
		return nil, fmt.Errorf("-intent and -req are mutually exclusive")
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
		var names []semantics.Name
		for _, s := range strings.Split(req, ",") {
			s = strings.TrimSpace(s)
			if s != "" {
				names = append(names, semantics.Name(s))
			}
		}
		return core.IntentFromSemantics("cli_intent", semantics.Default, names...)
	default:
		return nil, fmt.Errorf("missing intent: pass -intent app.p4 or -req rss,vlan,...")
	}
}

func emit(dir, name, content string) {
	if dir == "" {
		fmt.Print(content)
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "opendesc: %v\n", err)
	os.Exit(1)
}
