package main

// The flight mode decodes flight-recorder dumps (.odfl files written by the
// driver's automatic postmortems or the /debug/flight?format=bin endpoint)
// and merges them with a controller span file:
//
//	opendesc flight dump.odfl                 # human-readable event listing
//	opendesc flight -chrome dump.odfl         # Chrome trace_event JSON (Perfetto)
//	opendesc flight a.odfl b.odfl             # N dumps as one time-aligned trace
//	opendesc flight spans.json a.odfl b.odfl  # ... under the controller's span tree

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"opendesc/internal/fleet/telemetry"
	"opendesc/internal/obs/flight"
)

// runFlight decodes its inputs to w. One dump is the human-readable event
// listing by default or Chrome trace_event JSON with -chrome. More than one
// input, or a controller span file among them, is always one time-aligned
// Chrome trace: the span tree (as `opendesc experiments -flight-dump dir
// e20` writes it, recognised by its schema) on the controller process and
// one process per dump, named by its file (events share the hosts' virtual
// timeline, so cross-host causality lines up in Perfetto).
func runFlight(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("flight", flag.ContinueOnError)
	chrome := fs.Bool("chrome", false, "emit Chrome trace_event JSON (load in https://ui.perfetto.dev) instead of text; implied by a merge")
	outFile := fs.String("o", "", "write the decoded output to this file (default stdout)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: opendesc flight [-chrome] [-o file] [spans.json] dump.odfl [more.odfl ...]")
		fs.PrintDefaults()
	}
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return usageError{fmt.Errorf("flight: one or more input files expected (usage: opendesc flight [-chrome] [-o file] [spans.json] dump.odfl ...)")}
	}
	spans, dumps, err := readInputs(fs.Args())
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
	switch {
	case spans != nil:
		return telemetry.WriteFleetTrace(w, spans, dumps)
	case len(dumps) > 1:
		return flight.WriteMergedChromeTrace(w, dumps)
	case *chrome:
		return dumps[0].Snap.WriteChromeTrace(w)
	}
	_, err = io.WriteString(w, dumps[0].Snap.Format())
	return err
}

// readInputs loads each file as a flight dump or, failing that, as a
// controller span file; at most one span file is accepted. A dump's track
// is named after the file's basename (sans extension) — the convention
// E20's `-flight-dump` fleet artifacts and the host postmortem writer both
// follow, so merged tracks read as host names. A span file's spans are
// non-nil even when it holds none.
func readInputs(paths []string) (spans []telemetry.Span, dumps []flight.NamedSnapshot, err error) {
	spanPath := ""
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		snap, dumpErr := flight.ReadDump(bytes.NewReader(data))
		if dumpErr == nil {
			name := strings.TrimSuffix(filepath.Base(p), filepath.Ext(p))
			dumps = append(dumps, flight.NamedSnapshot{Name: name, Snap: snap})
			continue
		}
		s, spanErr := telemetry.ReadSpans(bytes.NewReader(data))
		if spanErr != nil {
			return nil, nil, fmt.Errorf("flight: %s is neither a flight dump nor a span file: %v; %v", p, dumpErr, spanErr)
		}
		if spanPath != "" {
			return nil, nil, fmt.Errorf("flight: two span files, %s and %s; a trace has one controller", spanPath, p)
		}
		spanPath, spans = p, append([]telemetry.Span{}, s...)
	}
	return spans, dumps, nil
}
