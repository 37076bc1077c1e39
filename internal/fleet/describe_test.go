package fleet

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/semantics"
)

// TestDescribeRoundTrip: every bundled NIC's describe answer survives the
// wire (encode → validate) with matching digest and capability model, and
// the validated description compiles the fleet intent.
func TestDescribeRoundTrip(t *testing.T) {
	intent, err := core.IntentFromSemantics("fleet", semantics.Default, semantics.RSS, semantics.PktLen)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range nic.All() {
		d, err := Describe(m, "host-"+m.Name)
		if err != nil {
			t.Fatalf("%s: describe: %v", m.Name, err)
		}
		raw, err := d.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Name, err)
		}
		v, err := Validate(raw)
		if err != nil {
			t.Fatalf("%s: validate rejected an honest description: %v", m.Name, err)
		}
		if v.Digest != core.SourceDigest(m.Source) {
			t.Fatalf("%s: digest mismatch after round trip", m.Name)
		}
		prov, _ := m.ProvidableSet()
		if !v.Providable.Equal(prov) {
			t.Fatalf("%s: providable set changed on the wire: %v vs %v", m.Name, v.Providable, prov)
		}
		res, err := v.Compile(intent, core.CompileOptions{})
		if err != nil {
			t.Fatalf("%s: compile from validated description: %v", m.Name, err)
		}
		want, err := m.Compile(intent, core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Selected.Path.ID != want.Selected.Path.ID {
			t.Fatalf("%s: description compile selected path %d, model compile %d",
				m.Name, res.Selected.Path.ID, want.Selected.Path.ID)
		}
		// Validated.Compile re-solves Eq. 1 over the analysis ValidateSource
		// built: same result as the cold pipeline, at the allocation cost of
		// Model.Compile, not of a second graph build and enumeration.
		for _, sel := range []core.SelectOptions{{}, {Alpha: -1}, {Alpha: 1000}} {
			opts := core.CompileOptions{Select: sel}
			warm, werr := v.Compile(intent, opts)
			cold, cerr := core.Compile(m.Name, m.Info, intent, opts)
			if werr != nil || cerr != nil {
				t.Fatalf("%s %+v: warm err %v, cold err %v", m.Name, sel, werr, cerr)
			}
			if warm.Report() != cold.Report() || !reflect.DeepEqual(warm.Accessors, cold.Accessors) ||
				!reflect.DeepEqual(warm.Config, cold.Config) {
				t.Errorf("%s %+v: validated compile differs from cold compile:\n%s\nvs\n%s",
					m.Name, sel, warm.Report(), cold.Report())
			}
			for i := range cold.Scored {
				if warm.Scored[i].Total != cold.Scored[i].Total || !reflect.DeepEqual(warm.Scored[i].Missing, cold.Scored[i].Missing) {
					t.Errorf("%s %+v: scored[%d] differs", m.Name, sel, i)
				}
			}
		}
		fromDesc := testing.AllocsPerRun(20, func() { v.Compile(intent, core.CompileOptions{}) })
		fromModel := testing.AllocsPerRun(20, func() { m.Compile(intent, core.CompileOptions{}) })
		if fromDesc > fromModel+4 {
			t.Errorf("%s: Validated.Compile allocates %.0f, Model.Compile %.0f: the analysis is being redone",
				m.Name, fromDesc, fromModel)
		}
	}
}

// TestValidateQuarantineReasons: each class of untrusted-input failure is
// rejected with an operator-legible reason.
func TestValidateQuarantineReasons(t *testing.T) {
	m := nic.MustLoad("e1000e")
	honest, err := Describe(m, "h1")
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(fn func(*Description)) []byte {
		d := *honest
		fn(&d)
		raw, err := d.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	cases := []struct {
		name   string
		raw    []byte
		reason string
	}{
		{"malformed json", []byte("{nope"), "malformed JSON"},
		{"wrong schema", mutate(func(d *Description) { d.Schema = "opendesc-describe/v9" }), "schema"},
		{"missing host", mutate(func(d *Description) { d.Host = "" }), "missing host"},
		{"digest lie", mutate(func(d *Description) { d.Digest = strings.Repeat("0", 64) }), "digest mismatch"},
		{"source tamper", mutate(func(d *Description) { d.P4 = d.P4 + "\n// trailing" }), "digest mismatch"},
		{"capability overclaim", mutate(func(d *Description) {
			d.Capabilities.Semantics = append(d.Capabilities.Semantics, "payload_hash")
		}), "capability claim mismatch"},
		{"path overclaim", mutate(func(d *Description) { d.Capabilities.Paths++ }), "capability claim mismatch"},
		{"size lie", mutate(func(d *Description) { d.Capabilities.CompletionBytes = []int{1} }), "capability claim mismatch"},
		{"broken p4", mutate(func(d *Description) {
			d.P4 = "parser Broken {"
			d.Digest = core.SourceDigest(d.P4)
		}), "parse"},
		{"oversized", append([]byte(`{"p4":"`), append(make([]byte, maxDescriptionBytes), []byte(`"}`)...)...), "exceeds"},
	}
	for _, c := range cases {
		if _, err := Validate(c.raw); err == nil {
			t.Errorf("%s: accepted, want rejection", c.name)
		} else if !strings.Contains(err.Error(), c.reason) {
			t.Errorf("%s: reason %q does not mention %q", c.name, err, c.reason)
		}
	}
}

// TestValidateIsStructural confirms the JSON layer itself is exercised
// (not just Go struct round trips): a hand-built document validates.
func TestValidateHandBuiltDocument(t *testing.T) {
	m := nic.MustLoad("e1000")
	d, err := Describe(m, "h")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(d) // compact form, different bytes than Encode
	if _, err := Validate(raw); err != nil {
		t.Fatalf("compact JSON rejected: %v", err)
	}
}

// TestSwapSemantics: the tamper helper produces a structurally identical,
// validation-clean description whose fields lie about their meaning — the
// attack only a canary bake can catch.
func TestSwapSemantics(t *testing.T) {
	m := nic.MustLoad("e1000e")
	bad, err := SwapSemantics(m.Source, "ip_checksum", "pkt_len")
	if err != nil {
		t.Fatal(err)
	}
	if bad == m.Source {
		t.Fatal("swap changed nothing")
	}
	v, err := ValidateSource(m.Name, bad)
	if err != nil {
		t.Fatalf("structural validation must pass on the tampered source (that is the point): %v", err)
	}
	honest, err := ValidateSource(m.Name, m.Source)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Analysis.Paths) != len(honest.Analysis.Paths) {
		t.Fatalf("tamper changed path structure: %d vs %d", len(v.Analysis.Paths), len(honest.Analysis.Paths))
	}
	if !v.Providable.Equal(honest.Providable) {
		t.Fatalf("tamper changed providable set: %v vs %v", v.Providable, honest.Providable)
	}
	if _, err := SwapSemantics(m.Source, "rss", "no_such_semantic"); err == nil {
		t.Fatal("swap of an absent annotation must fail")
	}
}

// TestTruncatedSourceRejected: a description whose tail sits behind a comment
// or string that never closes is quarantined with the position it opens at —
// never validated (and later certified) as the smaller program before it.
func TestTruncatedSourceRejected(t *testing.T) {
	m := nic.MustLoad("e1000e")
	for _, tail := range []string{"\n/* fw 2.1 adds:\nheader extra_t { bit<8> x; }\n", "\n@semantic(\"rss\nheader extra_t { bit<8> x; }\n"} {
		v, err := ValidateSource(m.Name, m.Source+tail)
		if err == nil || v != nil || !strings.Contains(err.Error(), "parse: e1000e.p4:") || !strings.Contains(err.Error(), ": unterminated ") {
			t.Errorf("tail %q: validated = %v, err = %v; want a positioned unterminated-literal parse error", tail, v != nil, err)
		}
	}
}
