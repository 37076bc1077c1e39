// Command benchmark is the repo's one benchmark: six named workloads driven
// through the public entry points of the stack from one goroutine, a few
// end-to-end numbers a user of the system feels, and per-layer numbers that
// explain them. See README.md in this directory for the definitions.
//
//	go run ./cmd/benchmark                          # whole suite, both passes
//	go run ./cmd/benchmark -workload hw_fastpath    # one workload
//	go run ./cmd/benchmark -trace 1 -trace-out t.json
//	go run ./cmd/benchmark -repeat 3                # run-to-run spread against the bounds
//	go run ./cmd/benchmark -compare a.json b.json   # refuses across environments
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// defaultSeconds is the timed window of every workload. BENCHMARK.json's
// run_seconds carries the same number.
const defaultSeconds = 12

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload (default: all six)")
	seed := fs.Int64("seed", 1, "seed of the traces, the fault injector and the arrival schedule")
	seconds := fs.Float64("seconds", defaultSeconds, "timed window per workload")
	trace := fs.String("trace", "", "0: end-to-end pass only; 1: traced per-layer pass only (default: both)")
	traceOut := fs.String("trace-out", "", "write the traced pass's spans as Chrome trace JSON")
	repeat := fs.Int("repeat", 1, "run the end-to-end pass N times and gate the run-to-run spread against each bound")
	out := fs.String("out", "", "write the results (with the environment fingerprint) to this file")
	compare := fs.Bool("compare", false, "compare two result files given as arguments; refuses when their environments differ")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareFiles(fs.Args())
	}
	selected := workloads
	if *workload != "" {
		w := workloadByName(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		selected = []*workloadDef{w}
	}
	if *seconds <= 0 || (*trace != "" && *trace != "0" && *trace != "1") || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive, -trace 0 or 1, -repeat at least 1")
		return 2
	}
	cfg := config{seed: *seed, windowNs: int64(*seconds * 1e9), setupRounds: setupRounds}
	s := &suite{cfg: cfg, selected: selected, endToEnd: *trace != "1", traced: *trace != "0" && *repeat == 1,
		traceOut: *traceOut, repeat: *repeat}
	code := s.run()
	if *out != "" {
		if err := s.writeFile(*out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	// The last line of standard output is the machine-readable result.
	line, err := json.Marshal(s.resultLine())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return code
}
