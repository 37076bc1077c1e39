package main

// The run mode is the end-to-end demo: it opens the driver facade over a
// simulated NIC, pushes a synthetic workload through it, and checks every
// delivery — exactly once and in order (rxpath.FIFO) — and every metadata
// read against the reference value (rxpath.Want).
//
//	opendesc run -nic qdma -req kv_key,rss -kv
//	opendesc run -nic mlx5 -req rss -stats-addr localhost:9100 # /metrics endpoint
//	opendesc run -nic e1000e -req rss,ip_checksum,vlan,pkt_len \
//	       -evolve -faults corrupt=1e-3,hang=2@5000 -seed 7    # both armings, one driver

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"slices"
	"strings"

	"opendesc"
	"opendesc/internal/faults"
	"opendesc/internal/nic"
	"opendesc/internal/obs"
	"opendesc/internal/obs/flight"
	"opendesc/internal/rxpath"
	"opendesc/internal/workload"
)

// runFlags is what `opendesc run` was asked for.
type runFlags struct {
	nic, req                string
	packets                 int
	kv, verbose, stats      bool
	statsAddr               string
	evolve                  bool
	faults                  string
	seed                    uint64
	flightTrace, flightDump string
}

// runDriver is `opendesc run`: 0 when every packet came back exactly once
// with correct metadata, 1 when one did not or the run could not start, 2
// on a usage error.
func runDriver(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f runFlags
	fs.StringVar(&f.nic, "nic", "mlx5", "NIC model (see opendesc -list)")
	fs.StringVar(&f.req, "req", "rss,vlan,pkt_len", "requested semantics")
	fs.IntVar(&f.packets, "packets", 256, "packets to push through the device")
	fs.BoolVar(&f.kv, "kv", false, "generate key-value request traffic")
	fs.BoolVar(&f.verbose, "v", false, "print every metadata read")
	fs.BoolVar(&f.stats, "stats", false, "dump the ethtool-style counter table on exit")
	fs.StringVar(&f.statsAddr, "stats-addr", "", "serve /metrics (Prometheus), /debug/vars and /debug/flight on this address; blocks after the run until Ctrl-C")
	fs.BoolVar(&f.evolve, "evolve", false, "arm live renegotiation and shift the read mix halfway through the run (composes with -faults)")
	fs.StringVar(&f.faults, "faults", "", "fault-injection spec, e.g. corrupt=1e-3,drop=1e-4,hang=2@5000: arm the hardened driver (deep validation) under injection (composes with -evolve)")
	fs.Uint64Var(&f.seed, "seed", 1, "fault-injection PRNG seed (with -faults)")
	fs.StringVar(&f.flightTrace, "flight", "", "write the flight-recorder Chrome trace (Perfetto-loadable JSON) to this file on exit")
	fs.StringVar(&f.flightDump, "flight-dump", "", "directory for automatic flight-recorder postmortem dumps (.odfl, decode with 'opendesc flight')")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "opendesc run: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if err := drive(f, stdout); err != nil {
		fmt.Fprintf(stderr, "opendesc run: %v\n", err)
		return 1
	}
	return 0
}

// drive opens the driver the flags arm and pushes the workload through it.
// -faults arms the hardened datapath under a fault-injection plan
// (DESIGN.md S21); -evolve arms live renegotiation and flips the
// application's read mix halfway through the run (hot semantic: last
// requested name, then first), printing a line per switchover. Together
// they run the composed driver.
func drive(f runFlags, w io.Writer) error {
	var names []string
	for _, s := range strings.Split(f.req, ",") {
		if s = strings.TrimSpace(s); s != "" {
			names = append(names, s)
		}
	}
	intent, err := opendesc.NewIntent("demo", names...)
	if err != nil {
		return err
	}
	var opts opendesc.OpenOptions
	var inj *faults.Injector
	if f.faults != "" {
		plan, err := faults.ParseSpec(f.faults)
		if err != nil {
			return err
		}
		plan.Seed = f.seed
		inj = faults.New(plan)
		opts.Harden = &opendesc.HardenOptions{Deep: true}
	}
	if f.evolve {
		if len(names) < 2 {
			return fmt.Errorf("-evolve needs at least two requested semantics to shift between")
		}
		opts.Evolve = &opendesc.EvolveOptions{Interval: 256, MinWindow: 128}
	}
	spec := workload.DefaultSpec()
	spec.Packets = f.packets
	if f.kv {
		spec.KVFraction = 1
	}
	tr, err := workload.Generate(spec)
	if err != nil {
		return err
	}
	drv, err := opendesc.OpenWith(f.nic, intent, opts)
	if err != nil {
		return err
	}
	drv.InjectFaults(inj)
	fmt.Fprint(w, drv.Report())

	// Observability: the facade registers device, ring, flight, hardening,
	// injector and (evolving) control-plane and shim counters in one call.
	reg := obs.NewRegistry()
	drv.RegisterMetrics(reg, obs.L("queue", "0"))
	rec := drv.Flight()
	if f.flightDump != "" {
		rec.SetDumpDir(f.flightDump)
	}
	reg.Handle("/debug/flight", rec.Handler())
	if f.statsAddr != "" {
		addr, _, err := reg.Serve(f.statsAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "stats endpoint: http://%s/metrics (Prometheus), http://%s/debug/vars (JSON)\n", addr, addr)
	}

	fmt.Fprintf(w, "\npushing %d packets through %s (completion = %d bytes)...\n", len(tr.Packets), f.nic, drv.CompletionBytes())
	if inj != nil {
		fmt.Fprintf(w, "hardened: fault plan %s (seed %d), deep validation on\n", f.faults, f.seed)
	}
	half := len(tr.Packets) / 2
	hot := names[len(names)-1]
	if f.evolve {
		fmt.Fprintf(w, "evolving: hot read %s, shifting to %s at packet %d\n", hot, names[0], half)
	}

	var fifo rxpath.FIFO
	var disorder error
	delivered, garbage, soft := 0, 0, 0
	h := func(p []byte, meta opendesc.Meta) {
		if !fifo.Pop(p) && disorder == nil {
			disorder = fmt.Errorf("delivery %d out of order or duplicated", delivered)
		}
		for _, n := range names {
			if f.evolve && n != hot && delivered%16 != 0 {
				continue // the application's read mix: the hot field, the rest 1 in 16
			}
			got, ok := meta.Get(n)
			if !ok {
				continue
			}
			if !meta.Hardware(n) {
				soft++
			}
			if want, ok := rxpath.Want(meta, n); ok && got != want {
				garbage++
				if f.verbose {
					fmt.Fprintf(w, "  GARBAGE pkt %d: %s = %#x, want %#x\n", delivered, n, got, want)
				}
			} else if f.verbose {
				fmt.Fprintf(w, "  pkt %4d  %-12s = %#x\n", delivered, n, got)
			}
		}
		delivered++
	}
	gen := drv.Evolution().Generation
	poll := func(i int) int {
		n := drv.Poll(h)
		if st := drv.Evolution(); st.Generation != gen {
			gen = st.Generation
			fmt.Fprintf(w, "pkt %5d: switchover -> generation %d, hardware now %s (%dB), drained %d, latency p50 %dns\n",
				i, gen, drv.Result.HardwareSet(), drv.CompletionBytes(), st.PacketsDrained, st.SwitchLatencyP50)
			if d := drv.LastDiff(); d != nil {
				for _, line := range strings.Split(strings.TrimRight(d.String(), "\n"), "\n") {
					fmt.Fprintf(w, "           %s\n", line)
				}
			}
		}
		return n
	}
	for i, p := range tr.Packets {
		if f.evolve && i == half {
			fmt.Fprintf(w, "pkt %5d: --- feature-mix shift: hot read %s -> %s ---\n", i, hot, names[0])
			hot = names[0]
		}
		for tries := 0; !drv.Rx(p); tries++ {
			if tries > 1<<16 {
				return fmt.Errorf("rx stalled at packet %d", i)
			}
			poll(i)
		}
		fifo.Push(p)
		if i%8 == 7 {
			poll(i)
		}
	}
	for i, idle := 0, 0; i < 1<<20 && idle < 4; i++ {
		if poll(len(tr.Packets)) == 0 {
			idle++
		} else {
			idle = 0
		}
	}

	rx, drops := drv.Stats()
	fmt.Fprintf(w, "\ndone: rx=%d drops=%d\n", rx, drops)
	if f.evolve {
		st := drv.Evolution()
		fmt.Fprintf(w, "control plane: generation=%d renegotiations=%d switchovers=%d rollbacks=%d unsat=%d switch-drops=%d (must be 0)\n",
			st.Generation, st.Renegotiations, st.Switchovers, st.Rollbacks, st.Unsat, st.SwitchDrops)
		fmt.Fprintf(w, "read mix:")
		for _, n := range intent.Fields {
			if c, ok := st.Reads[n.Semantic]; ok {
				fmt.Fprintf(w, " %s=%d", n.Semantic, c)
			}
		}
		fmt.Fprintln(w)
	}
	st := drv.Hardening()
	if inj != nil {
		ist := inj.Stats()
		fmt.Fprintf(w, "injected:")
		for c := faults.Corrupt; c <= faults.Hang; c++ {
			if n := ist.Injected[c]; n > 0 {
				fmt.Fprintf(w, " %s=%d", c, n)
			}
		}
		fmt.Fprintf(w, " (device ops=%d)\n", ist.Ops)
		fmt.Fprintf(w, "detected: quarantined=%d stale=%d resync=%d spurious=%d\n",
			st.Quarantined, st.StaleDrops, st.ResyncDrops, st.SpuriousCompletions)
		for _, class := range slices.Sorted(maps.Keys(st.RejectsByClass)) {
			fmt.Fprintf(w, "          validator rejects[%s]=%d\n", class, st.RejectsByClass[class])
		}
		fmt.Fprintf(w, "recovery: device-faults=%d degraded-enters=%d reset-attempts=%d resets=%d config-retries=%d hardware-restores=%d\n",
			st.DeviceFaults, st.DegradedEnters, st.ResetAttempts, st.Resets, st.ConfigRetries, st.HardwareRestores)
	}
	mode := "hardware"
	if st.Degraded {
		mode = "degraded (SoftNIC)"
	}
	fmt.Fprintf(w, "delivered %d/%d exactly once, in order (%d reads via SoftNIC shims), %d garbage metadata reads; final mode: %s\n",
		delivered, len(tr.Packets), soft, garbage, mode)
	if f.stats {
		fmt.Fprintf(w, "\ncounters (%s):\n%s", f.nic, reg.Table())
	}
	printTxLayouts(w, f.nic)
	if err := finishFlight(w, rec, f.flightTrace); err != nil {
		return err
	}

	switch st := drv.Evolution(); {
	case disorder != nil:
		return disorder
	case delivered != len(tr.Packets) || garbage > 0:
		return fmt.Errorf("delivered %d of %d packets, %d garbage metadata reads", delivered, len(tr.Packets), garbage)
	case st.SwitchDrops != 0:
		return fmt.Errorf("%d packets dropped across switchovers", st.SwitchDrops)
	}
	if f.statsAddr != "" {
		fmt.Fprintln(w, "\nstill serving the stats endpoint; Ctrl-C to exit")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
	return nil
}

// printTxLayouts prints the TX descriptor formats the model's DescParser
// accepts, when it describes one.
func printTxLayouts(w io.Writer, nicName string) {
	model, err := nic.Load(nicName)
	if err != nil {
		return
	}
	if layouts, err := model.TxLayouts(); err == nil && len(layouts) > 0 {
		fmt.Fprintf(w, "\nTX descriptor formats accepted by %s:\n", model.Name)
		for _, l := range layouts {
			fmt.Fprintf(w, "  %2dB  consumes %s", l.SizeBytes(), l.Consumes())
			if len(l.Constraints) > 0 {
				fmt.Fprintf(w, "  when ")
				for i, c := range l.Constraints {
					if i > 0 {
						fmt.Fprint(w, " && ")
					}
					fmt.Fprint(w, c)
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// finishFlight reports the postmortems captured during the run and writes
// the -flight Chrome-trace export.
func finishFlight(w io.Writer, rec *flight.Recorder, traceOut string) error {
	if n := rec.Postmortems(); n > 0 {
		fmt.Fprintf(w, "flight recorder: %d postmortem(s) captured", n)
		if reason, _, ok := rec.LastPostmortem(); ok {
			fmt.Fprintf(w, ", last: %q", reason)
		}
		fmt.Fprintln(w)
		for _, f := range rec.DumpFiles() {
			fmt.Fprintf(w, "  dump: %s\n", f)
		}
	}
	if traceOut == "" {
		return nil
	}
	var b bytes.Buffer
	if err := rec.WriteChromeTrace(&b); err != nil {
		return err
	}
	if err := os.WriteFile(traceOut, b.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "flight trace: %s (open in https://ui.perfetto.dev)\n", traceOut)
	return nil
}
