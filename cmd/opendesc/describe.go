package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"opendesc/internal/fleet"
	"opendesc/internal/nic"
)

// runDescribe implements `opendesc describe`: emit the self-describing
// discovery document a fleet host would answer the describe handshake with
// (schema-versioned JSON embedding the P4 description, its content digest,
// and the derived capability model), or — with -check — validate such a
// document exactly as the fleet controller's inventory sweep does and print
// either the derived capabilities or the quarantine reason.
//
//	opendesc describe -nic mlx5                  # emit the discovery document
//	opendesc describe -nic mlx5 -host web-07     # ... under a host name
//	opendesc describe -check desc.json           # controller-side validation
func runDescribe(args []string, out, stderr io.Writer) error {
	fs := flag.NewFlagSet("describe", flag.ContinueOnError)
	var (
		nicName = fs.String("nic", "", "bundled NIC model to describe (see opendesc -list)")
		host    = fs.String("host", "host", "host name stamped into the document")
		check   = fs.String("check", "", "validate a description document (JSON file, '-' for stdin) instead of emitting one")
	)
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return usageError{fmt.Errorf("describe: unexpected arguments %v", fs.Args())}
	}

	if *check != "" {
		data, err := readDoc(*check)
		if err != nil {
			return err
		}
		v, err := fleet.Validate(data)
		if err != nil {
			// The error string is exactly the operator-visible quarantine
			// reason the controller would record.
			fmt.Fprintf(out, "QUARANTINE: %v\n", err)
			return fmt.Errorf("describe: %s quarantined: %w", *check, err)
		}
		fmt.Fprintf(out, "valid %s description from host %q\n", fleet.SchemaVersion, v.Desc.Host)
		fmt.Fprintf(out, "  nic:     %s (%s, %s)\n", v.Desc.NIC, v.Desc.Vendor, v.Desc.Capabilities.Kind)
		fmt.Fprintf(out, "  digest:  %s\n", v.Digest)
		fmt.Fprintf(out, "  paths:   %d completion layouts, sizes %v bytes\n",
			v.Desc.Capabilities.Paths, v.Desc.Capabilities.CompletionBytes)
		sems := append([]string(nil), v.Desc.Capabilities.Semantics...)
		sort.Strings(sems)
		fmt.Fprintf(out, "  semantics: %v\n", sems)
		if v.Desc.Capabilities.Programmable {
			fmt.Fprintf(out, "  pipeline: programmable, stage budget %d\n", v.Desc.Capabilities.StageBudget)
		}
		return nil
	}

	if *nicName == "" {
		return usageError{fmt.Errorf("describe: pass -nic <model> to emit, or -check <file> to validate")}
	}
	m, err := nic.Load(*nicName)
	if err != nil {
		return err
	}
	d, err := fleet.Describe(m, *host)
	if err != nil {
		return err
	}
	data, err := d.Encode()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}

func readDoc(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}
