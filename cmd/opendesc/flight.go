package main

// The flight mode decodes flight-recorder dumps (.odfl files written by the
// driver's automatic postmortems or the /debug/flight?format=bin endpoint):
//
//	opendesc flight dump.odfl             # human-readable event listing
//	opendesc flight -chrome dump.odfl     # Chrome trace_event JSON (Perfetto)
//	opendesc flight -merge a.odfl b.odfl  # N dumps as one time-aligned trace

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"opendesc/internal/obs/flight"
)

// runFlight decodes .odfl dumps to w: the human-readable event listing by
// default, Chrome trace_event JSON with -chrome, or — with -merge — any
// number of dumps combined into one time-aligned Chrome trace, one process
// track per file (events share the hosts' virtual timeline, so cross-host
// causality lines up in Perfetto).
func runFlight(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("flight", flag.ContinueOnError)
	chrome := fs.Bool("chrome", false, "emit Chrome trace_event JSON (load in https://ui.perfetto.dev) instead of text")
	merge := fs.Bool("merge", false, "merge several dumps into one time-aligned Chrome trace (implies -chrome)")
	outFile := fs.String("o", "", "write the decoded output to this file (default stdout)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: opendesc flight [-chrome] [-merge] [-o file] dump.odfl [more.odfl ...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *merge && fs.NArg() < 1:
		return fmt.Errorf("flight: -merge expects one or more dump files")
	case !*merge && fs.NArg() != 1:
		return fmt.Errorf("flight: exactly one dump file expected (usage: opendesc flight [-chrome] [-merge] [-o file] dump.odfl ...)")
	}
	if *outFile != "" {
		out, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		defer out.Close()
		w = out
	}
	if *merge {
		snaps, err := readDumps(fs.Args())
		if err != nil {
			return err
		}
		return flight.WriteMergedChromeTrace(w, snaps)
	}
	snaps, err := readDumps(fs.Args())
	if err != nil {
		return err
	}
	snap := snaps[0].Snap
	if *chrome {
		return snap.WriteChromeTrace(w)
	}
	_, err = io.WriteString(w, snap.Format())
	return err
}

// readDumps loads each .odfl file, naming its track after the file's
// basename (sans extension) — the convention E20's `-flight-dump` fleet
// artifacts and the host postmortem writer both follow, so merged tracks
// read as host names.
func readDumps(paths []string) ([]flight.NamedSnapshot, error) {
	var snaps []flight.NamedSnapshot
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		snap, err := flight.ReadDump(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("flight: decoding %s: %w", p, err)
		}
		name := strings.TrimSuffix(filepath.Base(p), filepath.Ext(p))
		snaps = append(snaps, flight.NamedSnapshot{Name: name, Snap: snap})
	}
	return snaps, nil
}
