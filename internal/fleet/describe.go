// Package fleet is the S25 control plane: self-describing hosts, a
// controller that inventories them and compiles layouts through a
// content-addressed cache, and canary rollouts of interface upgrades with
// automatic rollback on oracle violation.
//
// The describe handshake is the paper's thesis operationalized at fleet
// scale: a host IS its P4 description plus a capability model, published as
// schema-versioned machine-actionable JSON. Descriptions arrive over a
// network, so — following P4K's
// framing — they are untrusted input: everything is structurally validated
// (size bound, schema version, content digest, parse, semantic check,
// deparser graph, path enumeration, capability-claim consistency) before a
// single compile runs, and a host whose description fails validation is
// quarantined with an operator-visible reason, never compiled for.
package fleet

import (
	"encoding/json"
	"fmt"
	"strings"

	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/p4/parser"
	"opendesc/internal/p4/sema"
	"opendesc/internal/semantics"
)

// SchemaVersion identifies the describe-document wire format. Consumers
// must reject other versions (forward compatibility is a new version, not
// a silent reinterpretation).
const SchemaVersion = "opendesc-describe/v1"

// maxDescriptionBytes bounds an untrusted describe document before any
// parsing happens. Real interface descriptions are a few KiB; a megabyte
// is already suspicious.
const maxDescriptionBytes = 1 << 20

// Capabilities is the host's machine-readable capability model: what the
// device can deliver in hardware and in which completion shapes. Every
// claim is recomputed from the P4 source during validation — a claim the
// source cannot back is a quarantine reason.
type Capabilities struct {
	// Kind classifies the descriptor regime (fixed/selectable/programmable).
	Kind string `json:"kind"`
	// Semantics is the providable set: every semantic some completion path
	// can carry in hardware, sorted.
	Semantics []string `json:"semantics"`
	// Paths is the number of enumerable completion paths.
	Paths int `json:"paths"`
	// CompletionBytes lists the distinct completion-record sizes, ascending.
	CompletionBytes []int `json:"completion_bytes"`
	// TxParser reports a TX-direction descriptor parser in the description.
	TxParser bool `json:"tx_parser"`
	// Programmable/StageBudget mirror the pipeline resource model.
	Programmable bool `json:"programmable"`
	StageBudget  int  `json:"stage_budget"`
}

// Description is one host's describe answer.
type Description struct {
	Schema string `json:"schema"`
	Host   string `json:"host"`
	NIC    string `json:"nic"`
	Vendor string `json:"vendor,omitempty"`
	// Digest is the self-reported sha256 of P4. The controller recomputes
	// it; a mismatch quarantines the host (and the recomputed value, never
	// this field, keys the compile cache).
	Digest string `json:"digest"`
	// P4 is the full interface description source — the contract itself.
	P4           string       `json:"p4"`
	Capabilities Capabilities `json:"capabilities"`
}

// Encode renders the canonical wire form.
func (d *Description) Encode() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// Describe builds the describe answer for a host backed by a bundled
// model: the exact P4 source, its content digest, and the capability model
// recomputed from the description (so the answer is honest by
// construction; rogue publishers are modeled by mutating the result).
func Describe(m *nic.Model, host string) (*Description, error) {
	prov, err := m.ProvidableSet()
	if err != nil {
		return nil, err
	}
	paths, err := m.Paths()
	if err != nil {
		return nil, err
	}
	sizes, err := m.CompletionSizes()
	if err != nil {
		return nil, err
	}
	sems := make([]string, 0, len(prov))
	for _, n := range prov.Sorted() {
		sems = append(sems, string(n))
	}
	return &Description{
		Schema: SchemaVersion,
		Host:   host,
		NIC:    m.Name,
		Vendor: m.Vendor,
		Digest: core.SourceDigest(m.Source),
		P4:     m.Source,
		Capabilities: Capabilities{
			Kind:            m.Kind.String(),
			Semantics:       sems,
			Paths:           len(paths),
			CompletionBytes: sizes,
			TxParser:        m.TxParserName != "",
			Programmable:    m.Pipeline.Programmable,
			StageBudget:     m.Pipeline.StageBudget,
		},
	}, nil
}

// RewriteSource returns a copy of d publishing src as its interface
// description, with the content digest and every recomputed capability
// claim (semantics, path count, completion sizes) consistent with the new
// source. This models the *structurally honest* rogue publisher: the
// document sails through Validate because nothing in it contradicts itself —
// only the S27 differential-verification gate (or, for pure meaning lies,
// the canary bake) can tell the description is not one to serve on.
func (d *Description) RewriteSource(src string) (*Description, error) {
	v, err := ValidateSource(d.NIC, src)
	if err != nil {
		return nil, fmt.Errorf("fleet: rewrite for %s: %w", d.NIC, err)
	}
	out := *d
	out.P4 = src
	out.Digest = v.Digest
	sems := make([]string, 0, len(v.Providable))
	for _, n := range v.Providable.Sorted() {
		sems = append(sems, string(n))
	}
	out.Capabilities.Semantics = sems
	out.Capabilities.Paths = len(v.Analysis.Paths)
	out.Capabilities.CompletionBytes = v.Analysis.CompletionSizes()
	return &out, nil
}

// Validated is a description that survived structural validation, carrying
// everything a compile needs so the expensive frontend work (parse, sema,
// graph, paths) is never repeated.
type Validated struct {
	Desc *Description
	// Digest is the recomputed content address (cache key component).
	Digest string
	// Analysis is the description-side half (CFG, completion paths) of every
	// compile against this description.
	Analysis *core.Analysis
	// Providable is the union of what its paths provide.
	Providable semantics.Set
}

// ValidateSource structurally validates a bare P4 interface description
// (the inner half of Validate, also used for vendor-pushed description
// updates in an Upgrade): parse, semantic check, deparser graph, path
// enumeration, non-empty providable set.
func ValidateSource(name, src string) (*Validated, error) {
	if len(src) == 0 {
		return nil, fmt.Errorf("empty P4 source")
	}
	if len(src) > maxDescriptionBytes {
		return nil, fmt.Errorf("P4 source exceeds %d bytes", maxDescriptionBytes)
	}
	prog, err := parser.Parse(name+".p4", src)
	if err != nil {
		return nil, fmt.Errorf("parse: %v", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("sema: %v", err)
	}
	a, err := core.Analyze(info, core.EnumerateOptions{})
	if err != nil {
		return nil, err
	}
	if len(a.Paths) == 0 {
		return nil, fmt.Errorf("description has no completion paths")
	}
	prov := a.Providable()
	if len(prov) == 0 {
		return nil, fmt.Errorf("description provides no semantics")
	}
	return &Validated{
		Digest:     core.SourceDigest(src),
		Analysis:   a,
		Providable: prov,
	}, nil
}

// Validate structurally validates one untrusted describe document. The
// returned error string is the operator-visible quarantine reason.
func Validate(data []byte) (*Validated, error) {
	if len(data) > maxDescriptionBytes {
		return nil, fmt.Errorf("description exceeds %d bytes", maxDescriptionBytes)
	}
	var d Description
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("malformed JSON: %v", err)
	}
	if d.Schema != SchemaVersion {
		return nil, fmt.Errorf("schema %q, want %q", d.Schema, SchemaVersion)
	}
	if d.Host == "" || d.NIC == "" {
		return nil, fmt.Errorf("missing host or nic name")
	}
	v, err := ValidateSource(d.NIC, d.P4)
	if err != nil {
		return nil, err
	}
	if d.Digest != v.Digest {
		return nil, fmt.Errorf("digest mismatch: claimed %.12s…, content is %.12s…", d.Digest, v.Digest)
	}
	// Capability claims must match what the source actually provides: a
	// host overstating its capabilities would otherwise steer layout
	// selection toward reads the device cannot back.
	claimed := make(semantics.Set)
	for _, s := range d.Capabilities.Semantics {
		claimed.Add(semantics.Name(s))
	}
	if !claimed.Equal(v.Providable) {
		return nil, fmt.Errorf("capability claim mismatch: claims %v, source provides %v",
			claimed, v.Providable)
	}
	if d.Capabilities.Paths != len(v.Analysis.Paths) {
		return nil, fmt.Errorf("capability claim mismatch: claims %d paths, source has %d",
			d.Capabilities.Paths, len(v.Analysis.Paths))
	}
	want := v.Analysis.CompletionSizes()
	if len(d.Capabilities.CompletionBytes) != len(want) {
		return nil, fmt.Errorf("capability claim mismatch: completion sizes %v, source has %v",
			d.Capabilities.CompletionBytes, want)
	}
	for i, n := range want {
		if d.Capabilities.CompletionBytes[i] != n {
			return nil, fmt.Errorf("capability claim mismatch: completion sizes %v, source has %v",
				d.Capabilities.CompletionBytes, want)
		}
	}
	v.Desc = &d
	return v, nil
}

// Compile maps an intent onto the validated description.
func (v *Validated) Compile(intent *core.Intent, opts core.CompileOptions) (*core.Result, error) {
	name := "description"
	if v.Desc != nil {
		name = v.Desc.NIC
	}
	return v.Analysis.Compile(name, intent, opts)
}

// SwapSemantics returns src with the @semantic("a") and @semantic("b")
// annotations exchanged: a description that stays structurally valid but
// lies about which field carries which meaning. No static validation can
// catch it — only a canary bake against the SoftNIC ground truth can,
// which is exactly what E20's deliberately bad upgrade demonstrates.
func SwapSemantics(src, a, b string) (string, error) {
	ta := fmt.Sprintf("@semantic(%q)", a)
	tb := fmt.Sprintf("@semantic(%q)", b)
	if !strings.Contains(src, ta) || !strings.Contains(src, tb) {
		return "", fmt.Errorf("fleet: source lacks %s or %s", ta, tb)
	}
	const hold = "@semantic(\x00)"
	s := strings.ReplaceAll(src, ta, hold)
	s = strings.ReplaceAll(s, tb, ta)
	s = strings.ReplaceAll(s, hold, tb)
	return s, nil
}

// StripSemantics returns src with the named @semantic annotations removed:
// the fields remain, but the description no longer advertises them, so the
// compiler falls back to SoftNIC shims for those semantics. Deliveries stay
// correct — the shim computes ground truth — but every read pays the soft
// path. Health-counter bakes see zero violations and promote; only the
// flight-evidence latency gate catches the regression (E21's tampered
// upgrade).
func StripSemantics(src string, sems ...string) (string, error) {
	out := src
	for _, s := range sems {
		tag := fmt.Sprintf("@semantic(%q)", s)
		if !strings.Contains(out, tag) {
			return "", fmt.Errorf("fleet: source lacks %s", tag)
		}
		out = strings.ReplaceAll(out, tag, "")
	}
	return out, nil
}
