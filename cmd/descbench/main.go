// Command descbench regenerates the OpenDesc experiment tables
// (EXPERIMENTS.md E1–E22) from the registry in internal/bench. It prints and
// gates nothing on a wall clock: the exact facts behind the tables are
// `go test ./internal/bench` assertions, the tracked timings are
// cmd/benchmark's.
//
// Usage:
//
//	descbench                         # run every experiment table
//	descbench e1 e3 e5                # selected experiments
//	descbench -quick                  # shorter timing windows, 1k-case E18
//	descbench -flight-dump dir e17    # also write E17's .odfl postmortems
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"opendesc/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit status as values: 0 when every
// selected table printed, 1 when an experiment's acceptance invariant broke,
// 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("descbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var p bench.Params
	fs.BoolVar(&p.Quick, "quick", false, "shorter measurement windows and a 1k-case E18 corpus")
	fs.StringVar(&p.FlightDump, "flight-dump", "", "directory for E17 flight-recorder postmortem dumps (.odfl)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
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
			fmt.Fprintf(stderr, "descbench: unknown experiment %q (have %s)\n", a, strings.Join(ids, " "))
			return 2
		}
		want[id] = true
	}

	for _, e := range bench.Experiments {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		tab, err := e.Run(p)
		if err != nil {
			fmt.Fprintf(stderr, "descbench %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintln(stdout, tab)
	}
	return 0
}
