// Command nicsim runs the end-to-end OpenDesc demo: it compiles an intent
// for a simulated NIC, programs the device's context registers over the
// (simulated) control channel, pushes a synthetic workload through the RX
// pipeline, and reads the metadata back through the generated accessors —
// printing a per-semantic comparison against the golden software values.
//
// Usage:
//
//	nicsim -nic mlx5 -req rss,vlan,timestamp -packets 1000
//	nicsim -nic qdma -req kv_key,rss -kv
//	nicsim -nic mlx5 -req rss,kv_key -stats               # ethtool-style dump
//	nicsim -nic mlx5 -req rss -stats-addr localhost:9100  # /metrics endpoint
//	nicsim -nic e1000e -req rss,vlan,pkt_len \
//	       -faults corrupt=1e-3,hang=2@5000 -seed 7       # hardened driver under injection
//	nicsim -nic e1000e -req rss,ip_checksum,vlan,pkt_len \
//	       -evolve [-faults ...]                          # live renegotiation (hardened too)
//	nicsim -nic mlx5 -tenants 8 -packets 4096             # multi-tenant serving plane
//	nicsim -fleet 13                                      # fleet control plane: inventory,
//	                                                      # canary rollout, auto-rollback
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"opendesc"
	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/faults"
	"opendesc/internal/nic"
	"opendesc/internal/nicsim"
	"opendesc/internal/obs"
	"opendesc/internal/obs/flight"
	"opendesc/internal/rxpath"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
	"opendesc/internal/workload"
)

func main() {
	var (
		nicName   = flag.String("nic", "mlx5", "NIC model (see opendesc -list)")
		req       = flag.String("req", "rss,vlan,pkt_len", "requested semantics")
		packets   = flag.Int("packets", 256, "packets to push through the device")
		kv        = flag.Bool("kv", false, "generate key-value request traffic")
		verbose   = flag.Bool("v", false, "print per-packet metadata")
		stats     = flag.Bool("stats", false, "dump ethtool-style device/ring/shim counters on exit")
		statsAddr = flag.String("stats-addr", "", "serve /metrics (Prometheus) and /debug/vars on this address while running")
		evolveRun = flag.Bool("evolve", false, "run the live-renegotiation demo: shift the read mix mid-run and report switchovers (composes with -faults)")
		faultSpec = flag.String("faults", "", "fault-injection spec, e.g. corrupt=1e-3,drop=1e-4,hang=2@5000: run the hardened driver under injection and report detection/recovery (composes with -evolve)")
		seed      = flag.Uint64("seed", 1, "fault-injection PRNG seed (with -faults)")
		tenants   = flag.Int("tenants", 0, "run the multi-tenant serving-plane demo with this many tenants (jointly-compiled intents, RSS sharding, mid-run renegotiation)")
		fleetN    = flag.Int("fleet", 0, "run the fleet control-plane demo with this many hosts (describe inventory, canary rollout, automatic rollback)")
		fleetTr   = flag.String("trace", "", "with -fleet: write the merged fleet timeline (controller spans + host flight rings) as Chrome trace JSON to this file")
		fleetSp   = flag.String("spans", "", "with -fleet: write the controller's rollout/trial/bake/verdict span tree as schema-versioned JSON (rebuild the timeline offline with 'opendesc fleettrace')")
		fleetFd   = flag.String("dump-flight", "", "with -fleet: write every host's flight ring as <host>.odfl into this directory (merge with 'opendesc flight -merge' or 'opendesc fleettrace')")
	)
	flag.StringVar(&flightTrace, "flight", "", "write the flight-recorder Chrome trace (Perfetto-loadable JSON) to this file on exit")
	flag.StringVar(&flightDump, "flight-dump", "", "directory for automatic flight-recorder postmortem dumps (.odfl, decode with 'opendesc flight')")
	flag.Parse()

	run := byte('x')
	switch {
	case *fleetN > 0:
		run = 'f'
	case *tenants > 0:
		run = 't'
	case *evolveRun || *faultSpec != "":
		run = 'd'
	}
	if err := checkFlags(run); err != nil {
		fmt.Fprintf(os.Stderr, "nicsim: %v\n", err)
		os.Exit(2)
	}

	var names []semantics.Name
	var sems []string
	for _, s := range strings.Split(*req, ",") {
		if s = strings.TrimSpace(s); s != "" {
			names, sems = append(names, semantics.Name(s)), append(sems, s)
		}
	}
	if *fleetN > 0 {
		runFleet(*fleetN, *packets, *stats, *fleetTr, *fleetSp, *fleetFd)
		return
	}
	if *tenants > 0 {
		runTenants(*nicName, *tenants, *packets, *statsAddr, *stats)
		return
	}
	intent, err := core.IntentFromSemantics("demo", semantics.Default, names...)
	if err != nil {
		fatal(err)
	}
	model, err := nic.Load(*nicName)
	if err != nil {
		fatal(err)
	}
	if *evolveRun || *faultSpec != "" {
		runDriver(model.Name, names, sems, *packets, *evolveRun, *faultSpec, *seed, *verbose, *statsAddr, *stats)
		return
	}

	res, err := model.Compile(intent, core.CompileOptions{})
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Report())

	dev, err := nicsim.New(model, nicsim.Config{})
	if err != nil {
		fatal(err)
	}
	if err := dev.ApplyConfig(res.Config); err != nil {
		fatal(err)
	}

	// Observability: register device + ring counters, and (when stats are
	// requested) run the software shims instrumented so their per-semantic
	// call counts and cycle cost show up in the dump / endpoint.
	reg := obs.NewRegistry()
	dev.RegisterMetrics(reg, obs.L("queue", "0"))
	rec := flight.NewRecorder(flight.Config{})
	dev.AttachFlight(rec.Queue("q0"))
	armFlight(rec, reg)
	shimStats := softnic.NewShimStats(reg)
	shimStats.AttachFlight(rec.Queue("q0"))
	soft := softnic.Funcs()
	if *stats || *statsAddr != "" {
		soft = shimStats.Instrument(soft)
	}
	if *statsAddr != "" {
		addr, _, err := reg.Serve(*statsAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("stats endpoint: http://%s/metrics (Prometheus), http://%s/debug/vars (JSON)\n", addr, addr)
	}
	rt := codegen.NewRuntime(res, soft)

	spec := workload.DefaultSpec()
	spec.Packets = *packets
	if *kv {
		spec.KVFraction = 1
	}
	tr, err := workload.Generate(spec)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("\npushing %d packets through simulated %s (completion = %d bytes)...\n",
		len(tr.Packets), model.Name, rt.CompletionBytes)
	mismatches := 0
	checked := 0
	for i, p := range tr.Packets {
		if !dev.RxPacket(p) {
			fatal(fmt.Errorf("rx stalled at packet %d", i))
		}
		dev.CmptRing.Consume(func(cmpt []byte) {
			for _, n := range names {
				got, err := rt.Read(n, cmpt, p)
				if err != nil {
					fatal(err)
				}
				if *verbose {
					fmt.Printf("  pkt %4d  %-12s = %#x\n", i, n, got)
				}
				// Cross-check hardware reads against the reference value.
				if r := rt.Reader(n); r.Hardware {
					if want, ok := softnic.Expect(n, p, dev.Config().QueueID, r.WidthBits); ok {
						checked++
						if got != want {
							mismatches++
						}
					}
				}
			}
		})
	}
	st := dev.Stats()
	fmt.Printf("done: rx=%d drops=%d, %d hardware reads cross-checked, %d mismatches\n",
		st.RxPackets, st.Drops, checked, mismatches)
	if mismatches > 0 {
		os.Exit(1)
	}
	if *stats {
		fmt.Printf("\ndevice/ring/shim counters (%s):\n%s", model.Name, reg.Table())
	}

	// TX direction demo when the model describes a DescParser.
	if layouts, err := model.TxLayouts(); err == nil && len(layouts) > 0 {
		fmt.Printf("\nTX descriptor formats accepted by %s:\n", model.Name)
		for _, l := range layouts {
			fmt.Printf("  %2dB  consumes %s", l.SizeBytes(), l.Consumes())
			if len(l.Constraints) > 0 {
				fmt.Printf("  when ")
				for i, c := range l.Constraints {
					if i > 0 {
						fmt.Print(" && ")
					}
					fmt.Print(c)
				}
			}
			fmt.Println()
		}
	}
	finishFlight(rec)

	if *statsAddr != "" {
		fmt.Println("\nstill serving the stats endpoint; Ctrl-C to exit")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
}

// The four runs a nicsim invocation can be, as a usage error names them, and
// per flag the runs that read it.
var (
	runNames = map[byte]string{
		'x': "the default cross-check run", 'd': "the -evolve/-faults driver run",
		't': "the -tenants demo", 'f': "the -fleet demo",
	}
	flagRuns = map[string]string{
		"nic": "xdt", "req": "xd", "packets": "xdtf", "kv": "x", "v": "xd", "stats": "xdtf", "stats-addr": "xdt",
		"evolve": "d", "faults": "d", "seed": "d", "flight": "xd", "flight-dump": "xd",
		"tenants": "t", "fleet": "f", "trace": "f", "spans": "f", "dump-flight": "f",
	}
)

// checkFlags refuses a flag the chosen run would silently drop, naming it
// and the runs it does apply to.
func checkFlags(run byte) (err error) {
	flag.Visit(func(f *flag.Flag) {
		if runs := flagRuns[f.Name]; err == nil && strings.IndexByte(runs, run) < 0 {
			var homes []string
			for _, r := range []byte(runs) {
				homes = append(homes, runNames[r])
			}
			err = fmt.Errorf("-%s is not read by %s; it applies to %s", f.Name, runNames[run], strings.Join(homes, ", "))
		}
	})
	return err
}

// runDriver drives the public driver facade with what the flags asked for.
// -faults arms the hardened datapath under a fault-injection plan (DESIGN.md
// S21): every accepted packet must come back exactly once, in order, with
// metadata matching the SoftNIC golden values, no matter which faults fire.
// -evolve arms live renegotiation and flips the application's read mix
// halfway through the run (hot semantic: last requested name, then first),
// printing a line per switchover. Together they run the composed driver.
// Exits non-zero if any corruption leaks through or a packet is lost.
func runDriver(nicName string, names []semantics.Name, sems []string, packets int, evolve bool, spec string, seed uint64, verbose bool, statsAddr string, dump bool) {
	intent, err := opendesc.NewIntent("demo", sems...)
	if err != nil {
		fatal(err)
	}
	var opts opendesc.OpenOptions
	var inj *faults.Injector
	if spec != "" {
		plan, err := faults.ParseSpec(spec)
		if err != nil {
			fatal(err)
		}
		plan.Seed = seed
		inj = faults.New(plan)
		opts.Harden = &opendesc.HardenOptions{Deep: true}
	}
	if evolve {
		if len(names) < 2 {
			fatal(fmt.Errorf("-evolve needs at least two requested semantics to shift between"))
		}
		opts.Evolve = &opendesc.EvolveOptions{Interval: 256, MinWindow: 128}
	}
	drv, err := opendesc.OpenWith(nicName, intent, opts)
	if err != nil {
		fatal(err)
	}
	drv.InjectFaults(inj)
	if evolve {
		fmt.Print(drv.Report())
	}

	// Observability: the facade registers hardening, evolution, device and
	// injector counters in one call.
	reg := obs.NewRegistry()
	drv.RegisterMetrics(reg, obs.L("queue", "0"))
	armFlight(drv.Flight(), reg)
	if statsAddr != "" {
		addr, _, err := reg.Serve(statsAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("stats endpoint: http://%s/metrics (Prometheus), http://%s/debug/vars (JSON)\n", addr, addr)
	}

	tr, err := workload.Generate(workload.DefaultSpec())
	if err != nil {
		fatal(err)
	}

	half := packets / 2
	hot := names[len(names)-1]
	if inj != nil {
		fmt.Printf("fault plan: %s (seed %d)\n", spec, seed)
		fmt.Printf("pushing %d packets through hardened %s (deep validation on)...\n", packets, nicName)
	}
	if evolve {
		fmt.Printf("\nevolving %s under %d packets: hot read %s, shifting to %s at packet %d\n",
			nicName, packets, hot, names[0], half)
	}

	var fifo rxpath.FIFO
	delivered, garbage, softCount := 0, 0, 0
	h := func(p []byte, meta opendesc.Meta) {
		if !fifo.Pop(p) {
			fatal(fmt.Errorf("delivery %d out of order or duplicated", delivered))
		}
		for _, n := range names {
			if evolve && n != hot && delivered%16 != 0 {
				continue // the application's read mix: the hot field, the rest 1 in 16
			}
			got, ok := meta.Get(string(n))
			if !ok {
				continue
			}
			if !meta.Hardware(string(n)) {
				softCount++
			}
			if want, ok := rxpath.Want(meta, string(n)); ok && got != want {
				garbage++
				if verbose {
					fmt.Printf("  GARBAGE pkt %d: %s = %#x, want %#x\n", delivered, n, got, want)
				}
			}
		}
		delivered++
	}
	gen := drv.Evolution().Generation
	poll := func(i int) int {
		n := drv.Poll(h)
		if st := drv.Evolution(); st.Generation != gen {
			gen = st.Generation
			fmt.Printf("pkt %5d: switchover -> generation %d, hardware now %s (%dB), drained %d, latency p50 %dns\n",
				i, gen, drv.Result.HardwareSet(), drv.CompletionBytes(), st.PacketsDrained, st.SwitchLatencyP50)
			if d := drv.LastDiff(); d != nil {
				for _, line := range strings.Split(strings.TrimRight(d.String(), "\n"), "\n") {
					fmt.Printf("           %s\n", line)
				}
			}
		}
		return n
	}
	accepted := 0
	for i := 0; i < packets; i++ {
		if evolve && i == half {
			fmt.Printf("pkt %5d: --- feature-mix shift: hot read %s -> %s ---\n", i, hot, names[0])
			hot = names[0]
		}
		p := tr.Packets[i%len(tr.Packets)]
		tries := 0
		for !drv.Rx(p) {
			poll(i)
			if tries++; tries > 1<<16 {
				fatal(fmt.Errorf("rx stalled at packet %d", i))
			}
		}
		accepted++
		fifo.Push(p)
		if i%8 == 7 {
			poll(i)
		}
	}
	idle := 0
	for i := 0; i < 1<<20 && idle < 4; i++ {
		if poll(packets) == 0 {
			idle++
		} else {
			idle = 0
		}
	}

	if evolve {
		st := drv.Evolution()
		rx, drops := drv.Stats()
		fmt.Printf("\ndone: rx=%d drops=%d delivered=%d\n", rx, drops, st.Delivered)
		fmt.Printf("control plane: generation=%d renegotiations=%d switchovers=%d rollbacks=%d unsat=%d switch-drops=%d (must be 0)\n",
			st.Generation, st.Renegotiations, st.Switchovers, st.Rollbacks, st.Unsat, st.SwitchDrops)
		fmt.Printf("read mix:")
		for _, n := range names {
			if c, ok := st.Reads[n]; ok {
				fmt.Printf(" %s=%d", n, c)
			}
		}
		fmt.Println()
		if st.SwitchDrops != 0 {
			fatal(fmt.Errorf("%d packets dropped across switchovers", st.SwitchDrops))
		}
	}
	if inj != nil {
		ist := inj.Stats()
		fmt.Printf("\ninjected:")
		for c := faults.Corrupt; c <= faults.Hang; c++ {
			if n := ist.Injected[c]; n > 0 {
				fmt.Printf(" %s=%d", c, n)
			}
		}
		fmt.Printf(" (device ops=%d)\n", ist.Ops)

		st := drv.Hardening()
		fmt.Printf("detected: quarantined=%d stale=%d resync=%d spurious=%d\n",
			st.Quarantined, st.StaleDrops, st.ResyncDrops, st.SpuriousCompletions)
		for class, n := range st.RejectsByClass {
			fmt.Printf("          validator rejects[%s]=%d\n", class, n)
		}
		fmt.Printf("recovery: device-faults=%d degraded-enters=%d reset-attempts=%d resets=%d config-retries=%d hardware-restores=%d\n",
			st.DeviceFaults, st.DegradedEnters, st.ResetAttempts, st.Resets, st.ConfigRetries, st.HardwareRestores)

		mode := "hardware"
		if st.Degraded {
			mode = "degraded (SoftNIC)"
		}
		fmt.Printf("delivered %d/%d exactly once, in order (%d via SoftNIC shims), %d garbage metadata reads; final mode: %s\n",
			delivered, accepted, softCount, garbage, mode)
	}
	if dump {
		fmt.Printf("\ndriver/device/injector counters (%s):\n%s", nicName, reg.Table())
	}
	finishFlight(drv.Flight())
	if delivered != accepted || garbage > 0 {
		os.Exit(1)
	}
	if statsAddr != "" {
		fmt.Println("\nstill serving the stats endpoint; Ctrl-C to exit")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
}

// flightTrace/flightDump are the -flight / -flight-dump flag values, shared
// by the cross-check and driver runs.
var flightTrace, flightDump string

// armFlight applies the -flight-dump directory and mounts the live
// /debug/flight endpoint next to /metrics.
func armFlight(rec *flight.Recorder, reg *obs.Registry) {
	if flightDump != "" {
		rec.SetDumpDir(flightDump)
	}
	reg.Handle("/debug/flight", rec.Handler())
}

// finishFlight reports postmortems captured during the run and writes the
// -flight Chrome-trace export.
func finishFlight(rec *flight.Recorder) {
	if n := rec.Postmortems(); n > 0 {
		fmt.Printf("flight recorder: %d postmortem(s) captured", n)
		if reason, _, ok := rec.LastPostmortem(); ok {
			fmt.Printf(", last: %q", reason)
		}
		fmt.Println()
		for _, f := range rec.DumpFiles() {
			fmt.Printf("  dump: %s\n", f)
		}
	}
	if flightTrace == "" {
		return
	}
	f, err := os.Create(flightTrace)
	if err != nil {
		fatal(err)
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("flight trace: %s (open in https://ui.perfetto.dev)\n", flightTrace)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "nicsim: %v\n", err)
	os.Exit(1)
}
