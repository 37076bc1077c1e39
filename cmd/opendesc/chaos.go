package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"opendesc/internal/chaos"
)

// runChaos implements `opendesc chaos`: deterministic whole-stack simulation
// under a seeded virtual-time scheduler.
//
//	opendesc chaos -seed 42 -steps 512              # one run, report the outcome
//	opendesc chaos -cases 1000                      # sweep seeds 1..1000
//	opendesc chaos -seed 42 -bug -shrink            # re-open the resync bug, shrink the failure
//	opendesc chaos -mode tenant -queues 4 -cases 8  # the multi-tenant plane on four cores
//	opendesc chaos -mode fleet -queues 8 -shrink    # the fleet control plane on eight hosts
//	opendesc chaos -replay repro.chaos              # replay a shrunk reproducer spec, any mode
//
// The tenant and fleet modes read none of the driver-queue flags (-nic,
// -sems, -ring, -bug, -dump): setting one is a usage error.
func runChaos(args []string, out, stderr io.Writer) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	// A flag the cell may not read defaults to its field's zero value, so
	// Config.Check sees exactly the flags given.
	var (
		nicName = fs.String("nic", "", "bundled NIC model under test (default e1000e)")
		mode    = fs.String("mode", "harden", "cell under test: harden, evolve, tenant or fleet")
		sems    = fs.String("sems", "", "comma-separated intent semantics (default rss,vlan,pkt_len)")
		queues  = fs.Int("queues", 0, "lanes the scheduler interleaves: driver queues, plane cores or fleet hosts (default 1, 2 or 6)")
		ringSz  = fs.Int("ring", 0, "completion ring entries per device (default 64)")
		steps   = fs.Int("steps", 512, "schedule length per case")
		seed    = fs.Uint64("seed", 1, "schedule seed (single-run mode)")
		cases   = fs.Uint64("cases", 0, "sweep seeds 1..cases instead of a single -seed run")
		shrink  = fs.Bool("shrink", false, "on violation, delta-debug the schedule to a minimal reproducer")
		bug     = fs.Bool("bug", false, "disable the resync path (re-opens the known pre-PR3 liveness bug; canary for the oracles)")
		dumpDir = fs.String("dump", "", "write .odfl flight postmortems of violations into this directory")
		replay  = fs.String("replay", "", "replay a reproducer spec file instead of generating a schedule")
		verbose = fs.Bool("v", false, "print the full event trace of the (first violating) run")
	)
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return usageError{fmt.Errorf("chaos: unexpected arguments %v", fs.Args())}
	}

	cfg := chaos.Config{Queues: *queues, Steps: *steps, NIC: *nicName,
		RingEntries: *ringSz, DisableResync: *bug, DumpDir: *dumpDir}
	if *sems != "" {
		cfg.Semantics = strings.Split(*sems, ",")
	}
	var sched chaos.Schedule
	if *replay != "" {
		text, err := os.ReadFile(*replay)
		if err != nil {
			return err
		}
		dump := cfg.DumpDir
		if cfg, sched, err = chaos.ParseSpec(string(text)); err != nil {
			return err
		}
		cfg.DumpDir = dump
	} else {
		m, err := chaos.ParseMode(*mode)
		if err != nil {
			return usageError{err}
		}
		cfg.Mode = m
	}
	if err := cfg.Check(); err != nil {
		return usageError{fmt.Errorf("chaos: %w", err)}
	}

	if *replay != "" {
		res := chaos.RunSchedule(cfg, sched)
		if *verbose {
			out.Write(res.Trace)
		}
		return chaosReport(out, cfg, sched.Seed, res, *shrink, sched)
	}

	if *cases > 0 {
		violations := 0
		for s := uint64(1); s <= *cases; s++ {
			res := chaos.Run(cfg, s)
			if res.Violation == nil {
				continue
			}
			violations++
			if *verbose {
				out.Write(res.Trace)
			}
			if err := chaosReport(out, cfg, s, res, *shrink, chaos.Generate(cfg, s)); err != nil {
				return err
			}
			// First violation is the report; keep counting the rest silently.
		}
		fmt.Fprintf(out, "chaos sweep: %d cases x %d steps (%s): %d violations\n",
			*cases, *steps, cfg, violations)
		if violations > 0 {
			return fmt.Errorf("chaos: %d of %d cases violated an invariant", violations, *cases)
		}
		return nil
	}

	res := chaos.Run(cfg, *seed)
	if *verbose {
		out.Write(res.Trace)
	}
	return chaosReport(out, cfg, *seed, res, *shrink, chaos.Generate(cfg, *seed))
}

// chaosReport prints a run summary; on a violation it optionally shrinks and
// emits the minimal reproducer spec, and always returns a non-nil error so
// the process exits non-zero.
func chaosReport(out io.Writer, cfg chaos.Config, seed uint64, res *chaos.Result, shrink bool, sched chaos.Schedule) error {
	if res.Violation == nil {
		cell := fmt.Sprintf("switchovers=%d restores=%d quarantined=%d resyncs=%d",
			res.Switchovers, res.Restores, res.Quarantined, res.Resyncs)
		switch cfg.Mode {
		case chaos.ModeTenant:
			cell = fmt.Sprintf("renegs=%d fast-renegs=%d steals=%d", res.Renegs, res.FastRenegs, res.Steals)
		case chaos.ModeFleet:
			cell = fmt.Sprintf("rollouts=%d promotions=%d rollbacks=%d lease-reverts=%d",
				res.Rollouts, res.Promotions, res.Rollbacks, res.LeaseReverts)
		}
		fmt.Fprintf(out, "chaos ok: %s seed=%d events=%d accepted=%d delivered=%d rejected=%d %s\n",
			cfg, seed, res.Events, res.Accepted, res.Delivered, res.Rejected, cell)
		return nil
	}
	fmt.Fprintf(out, "chaos FAIL: %v\n", res.Violation)
	for _, f := range res.DumpFiles {
		fmt.Fprintf(out, "  flight dump: %s\n", f)
	}
	if shrink {
		sh := chaos.ShrinkToSpec(cfg, sched, res.Violation)
		fmt.Fprintf(out, "shrunk to %d events — replay with `opendesc chaos -replay <file>`:\n%s",
			len(sh.Schedule.Events), sh.Spec)
	}
	return res.Violation
}
