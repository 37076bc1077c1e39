package main

// The fleettrace mode merges a controller span file (opendesc-spans/v1 JSON,
// as `opendesc experiments -flight-dump dir e20` writes it) with any number
// of host flight dumps into one Chrome trace: the rollout → trial → bake →
// promote/rollback span tree on the controller process, every host's flight
// ring on its own process, all on the shared virtual timeline.
//
//	opendesc fleettrace spans.json host-a.odfl host-b.odfl > trace.json

import (
	"flag"
	"fmt"
	"io"
	"os"

	"opendesc/internal/fleet/telemetry"
)

// runFleetTrace merges one span file and N flight dumps into a Chrome trace
// on w.
func runFleetTrace(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fleettrace", flag.ContinueOnError)
	outFile := fs.String("o", "", "write the merged trace to this file (default stdout)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: opendesc fleettrace [-o file] spans.json [host.odfl ...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("fleettrace: a controller span file is required (usage: opendesc fleettrace spans.json host.odfl ...)")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	spans, err := telemetry.ReadSpans(f)
	f.Close()
	if err != nil {
		return err
	}
	hosts, err := readDumps(fs.Args()[1:])
	if err != nil {
		return err
	}
	if *outFile != "" {
		out, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		defer out.Close()
		w = out
	}
	return telemetry.WriteFleetTrace(w, spans, hosts)
}
