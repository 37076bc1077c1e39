package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"opendesc/internal/diffverify"
	"opendesc/internal/nic"
)

// runVerify implements `opendesc verify`: run the S27 differential harness
// on one description (or every bundled one) — static layout, independent
// CFG walk, P4 interpreter, generated accessors and SoftNIC golden model
// cross-checked over the full completion-path space — and print PASS with
// coverage counts or FAIL with the minimal reproducer. Optional extras: a
// seeded adversarial mutant sweep, the deliberately-broken-accessor
// ablation (proof the harness catches codegen bugs), and the digest-keyed
// certificate the fleet controller gates provisioning on.
//
//	opendesc verify e1000e               # one bundled description, exhaustive
//	opendesc verify path/to/desc.p4      # same, from a file
//	opendesc verify -all                 # all six bundled descriptions, with wall time and cases/s
//	opendesc verify -mutants 64 qdma     # + screen 64 seeded mutants
//	opendesc verify -break e1000e        # ablation: inject an accessor bug
//	opendesc verify -cert mlx5           # print the verification certificate
func runVerify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		all      = fs.Bool("all", false, "verify every bundled NIC description")
		breakAcc = fs.Bool("break", false, "deliberately mis-offset the first generated accessor by one bit (ablation: the harness must catch it)")
		mutants  = fs.Int("mutants", 0, "additionally screen this many seeded adversarial mutants")
		seed     = fs.Uint64("seed", 1, "mutant sweep seed (same seed ⇒ same mutants ⇒ same verdicts)")
		cert     = fs.Bool("cert", false, "print the digest-keyed verification certificate instead of the full report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	type target struct{ name, src string }
	var targets []target
	switch {
	case *all && fs.NArg() > 0:
		return fmt.Errorf("verify: -all and an explicit description are mutually exclusive")
	case *all:
		for _, m := range nic.All() {
			targets = append(targets, target{m.Name, m.Source})
		}
	case fs.NArg() == 1:
		name, src, err := loadVerifySource(fs.Arg(0))
		if err != nil {
			return err
		}
		targets = append(targets, target{name, src})
	default:
		return fmt.Errorf("verify: pass one description (bundled name or .p4 file) or -all")
	}

	// -all also reports the harness's own throughput, per description and in
	// total: it gates every fleet push, so its cost belongs beside its
	// verdicts. (Single-description output stays byte-stable.)
	throughput := func(what string, cases int, d time.Duration) {
		fmt.Fprintf(out, "%s: %d cases in %.2f ms (%.0f cases/s)\n",
			what, cases, float64(d.Nanoseconds())/1e6, float64(cases)/d.Seconds())
	}
	var totalCases int
	var totalTime time.Duration

	failed := 0
	for _, tgt := range targets {
		if *cert {
			c := diffverify.Certify(tgt.name, tgt.src)
			verdict := "PASS"
			if !c.Passed {
				verdict, failed = "FAIL", failed+1
			}
			fmt.Fprintf(out, "certificate %s %.12s…: %s (%d paths, %d cases, %d checks)\n",
				c.NIC, c.Digest, verdict, c.Paths, c.Cases, c.Checks)
			if c.Reason != "" {
				fmt.Fprintf(out, "  reason: %s\n", c.Reason)
			}
			continue
		}
		start := time.Now()
		rep, err := diffverify.VerifySource(tgt.name, tgt.src, diffverify.Options{BreakAccessor: *breakAcc})
		took := time.Since(start)
		if err != nil {
			fmt.Fprintf(out, "diffverify %s: REJECTED: %v\n", tgt.name, err)
			failed++
			continue
		}
		fmt.Fprint(out, rep)
		if *all {
			throughput("  timing", rep.Cases, took)
			totalCases, totalTime = totalCases+rep.Cases, totalTime+took
		}
		fmt.Fprintln(out)
		if !rep.OK() {
			failed++
		}
		if *mutants > 0 {
			counts := map[string]int{}
			for _, v := range diffverify.Sweep(tgt.name, tgt.src, *seed, *mutants) {
				counts[v.Outcome]++
				if v.Outcome == diffverify.OutcomeDisagree {
					failed++
					fmt.Fprintf(out, "mutant seed %#x (ops %s) DISAGREES: %s\n", v.Seed, v.Ops, v.Reason)
				}
			}
			fmt.Fprintf(out, "mutants %s: %d screened (seed %#x): %d pass, %d rejected, %d disagree, %d mutate-error\n",
				tgt.name, *mutants, *seed, counts[diffverify.OutcomePass], counts[diffverify.OutcomeRejected],
				counts[diffverify.OutcomeDisagree], counts[diffverify.OutcomeMutateError])
		}
	}
	if *all && !*cert {
		throughput(fmt.Sprintf("timing, all %d descriptions", len(targets)), totalCases, totalTime)
	}
	fmt.Fprintln(out, "not covered: meaning. Verification checks bits; a swapped or stripped @semantic label still certifies, and only the fleet's canary bake judges what a field means.")
	if failed > 0 {
		return fmt.Errorf("verify: %d verdict(s) failed", failed)
	}
	return nil
}

// loadVerifySource resolves a bundled model name or .p4 file path into the
// (name, source) pair the harness wants (it reruns the whole frontend
// itself — the certificate must cover exactly what a fleet host would
// publish, not a pre-parsed shortcut).
func loadVerifySource(arg string) (string, string, error) {
	if !strings.ContainsAny(arg, "./") {
		m, err := nic.Load(arg)
		if err != nil {
			return "", "", err
		}
		return m.Name, m.Source, nil
	}
	b, err := os.ReadFile(arg)
	if err != nil {
		return "", "", err
	}
	return strings.TrimSuffix(filepath.Base(arg), ".p4"), string(b), nil
}
