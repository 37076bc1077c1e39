package main

// The experiments mode prints the experiment tables (EXPERIMENTS.md E1–E22)
// from the one registry in internal/bench. It gates nothing on a wall clock:
// the exact facts behind the tables are `go test ./internal/bench`
// assertions, the tracked timings are cmd/benchmark's.
//
//	opendesc experiments                          # every table
//	opendesc experiments e1 e3 e5                 # selected experiments
//	opendesc experiments -quick                   # shorter timing windows, 1k-case E18
//	opendesc experiments -v e19 e20               # with the tenant and fleet transcripts
//	opendesc experiments -flight-dump dir e17 e20 # E17's postmortems, E20's fleet artifacts

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"opendesc/internal/bench"
)

// runExperiments is `opendesc experiments`: it prints every selected table,
// and fails when an experiment's acceptance invariant broke.
func runExperiments(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var p bench.Params
	fs.BoolVar(&p.Quick, "quick", false, "shorter measurement windows and a 1k-case E18 corpus")
	fs.StringVar(&p.FlightDump, "flight-dump", "", "directory for E17's postmortems (.odfl) and E20's fleet artifacts (spans.json, <host>.odfl)")
	verbose := fs.Bool("v", false, "print the E19 and E20 scenario transcripts before their tables")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if *verbose {
		p.Transcript = stdout
	}

	ids := make([]string, len(bench.Experiments))
	known := map[string]bool{}
	for i, e := range bench.Experiments {
		ids[i] = e.ID
		known[e.ID] = true
	}
	want := map[string]bool{}
	for _, a := range fs.Args() {
		id := strings.ToLower(a)
		if !known[id] {
			return usageError{fmt.Errorf("experiments: unknown experiment %q (have %s)", a, strings.Join(ids, " "))}
		}
		want[id] = true
	}

	for _, e := range bench.Experiments {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		tab, err := e.Run(p)
		if err != nil {
			return fmt.Errorf("experiments %s: %w", e.ID, err)
		}
		fmt.Fprintln(stdout, tab)
	}
	return nil
}
