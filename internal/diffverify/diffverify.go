// Package diffverify is the S27 differential-verification harness. For one
// interface description it enumerates the full completion-path space and
// asserts, for every discriminant branch and a battery of boundary field
// values, that four independently built views of each completion record
// agree bit for bit:
//
//	A. the static layout — core.EnumeratePaths offsets/widths;
//	B. an independent walk of the deparser CFG under a concrete environment,
//	   re-deriving what internal/nicsim's device serializer computes;
//	C. the P4 interpreter re-extracting the record through a synthesized
//	   per-path parser (internal/p4/interp);
//	D. the generated accessor runtime reading the record (internal/codegen);
//
// plus a SoftNIC-golden pass that pushes ground-truth packet metadata
// through the same write→read pipeline. Any disagreement is reported as a
// minimal (NIC, path, field, byte-image) reproducer.
//
// Descriptions the harness cannot soundly verify — semantic-tagged fields
// wider than 64 bits (the accessor runtime's bit reads top out at one word),
// completion-path explosions, conflicting context configurations — are
// rejected with a structured RejectedError rather than silently passed. The
// seeded P4 mutator (mutate.go) screens adversarial descriptions against
// exactly this contract, and fleet provisioning gates on the resulting
// Certificate: a description whose digest has not passed the harness is
// quarantined, never compiled for.
package diffverify

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"

	"opendesc/internal/bitfield"
	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/p4/parser"
	"opendesc/internal/p4/sema"
	"opendesc/internal/pkt"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
)

// Options tune one verification run.
type Options struct {
	// MaxPaths bounds path enumeration (0: core.DefaultMaxPaths). Exceeding
	// it is a structured rejection, not an error.
	MaxPaths int
	// Packets is the number of SoftNIC-golden packets pushed through each
	// path's write→read pipeline (0: 4).
	Packets int
	// MaxCases, when > 0, bounds the total environments checked per run.
	// Zero means exhaustive — the only setting a certificate may be issued
	// under; the cap exists for the fuzz screen, where adversarial switch
	// pyramids would otherwise make a single input arbitrarily slow. A
	// capped run reports how much it covered (Report.Cases), never silently
	// pretends completeness.
	MaxCases int
	// BreakAccessor deliberately mis-offsets the first hardware accessor of
	// every path by one bit — the ablation proving the harness catches a
	// codegen bug as a minimal reproducer.
	BreakAccessor bool
}

// maxDisagreements caps the reproducers collected per run; the first one is
// what matters, the cap only keeps a badly broken triad from flooding.
const maxDisagreements = 16

// RejectedError is a structured refusal to verify: the description is not in
// the harness's soundly-checkable domain. Fleet provisioning treats it like a
// failed certificate (quarantine with this reason); the mutator treats it as
// a legitimate screen outcome.
type RejectedError struct {
	Reason string
}

func (e *RejectedError) Error() string { return "diffverify: rejected: " + e.Reason }

// Disagreement is one four-way divergence, minimized to the smallest
// environment that still reproduces it: every field zero except the failing
// one and the pinned discriminants.
type Disagreement struct {
	NIC         string
	PathID      int
	Constraints []string // pinned discriminants selecting the path
	View        string   // which view diverged: walk, interp, accessor, layout
	Field       string   // dotted layout field name
	Semantic    string
	OffsetBits  int
	WidthBits   int
	Image       []byte // completion byte-image reproducing the divergence
	Want        uint64 // the static view's value
	Got         uint64 // the diverging view's value
	Detail      string
}

// Summary is the one-line form used in certificates and violation reports.
func (d *Disagreement) Summary() string {
	return fmt.Sprintf("path %d field %s bits[%d:%d) view %s: static=%#x got=%#x",
		d.PathID, d.Field, d.OffsetBits, d.OffsetBits+d.WidthBits, d.View, d.Want, d.Got)
}

// String renders the full minimal reproducer.
func (d *Disagreement) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "disagreement: nic=%s path=%d view=%s\n", d.NIC, d.PathID, d.View)
	fmt.Fprintf(&sb, "  field %s", d.Field)
	if d.Semantic != "" {
		fmt.Fprintf(&sb, " (semantic %s)", d.Semantic)
	}
	fmt.Fprintf(&sb, " bits[%d:%d)\n", d.OffsetBits, d.OffsetBits+d.WidthBits)
	if len(d.Constraints) > 0 {
		fmt.Fprintf(&sb, "  when %s\n", strings.Join(d.Constraints, " && "))
	}
	fmt.Fprintf(&sb, "  image %x\n", d.Image)
	fmt.Fprintf(&sb, "  static=%#x %s=%#x", d.Want, d.View, d.Got)
	if d.Detail != "" {
		fmt.Fprintf(&sb, " (%s)", d.Detail)
	}
	sb.WriteString("\n")
	return sb.String()
}

// Report is the outcome of one verification run.
type Report struct {
	NIC   string
	Paths int
	// Cases counts the concrete environments checked (boundary sweeps plus
	// golden packets); Checks counts individual cross-view comparisons.
	Cases  int
	Checks int
	// Skipped counts walk cases whose environment was underdetermined for
	// the focus path (opaque or multi-valued discriminants) and resolved to
	// a different enumerated path — still verified, attributed there.
	Skipped       int
	Disagreements []*Disagreement
}

// OK reports whether all views agreed everywhere.
func (r *Report) OK() bool { return len(r.Disagreements) == 0 }

// String renders the pass/fail report with any reproducers.
func (r *Report) String() string {
	var sb strings.Builder
	verdict := "PASS"
	if !r.OK() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&sb, "diffverify %s: %s (%d paths, %d cases, %d checks, %d underdetermined)\n",
		r.NIC, verdict, r.Paths, r.Cases, r.Checks, r.Skipped)
	for _, d := range r.Disagreements {
		sb.WriteString(d.String())
	}
	return sb.String()
}

// Verify runs the differential harness over one checked description.
// A *RejectedError means the description is outside the harness's domain;
// any other error is an internal failure.
func Verify(name string, spec core.DeparserSpec, opts Options) (*Report, error) {
	a, err := core.Analyze(spec, core.EnumerateOptions{MaxPaths: opts.MaxPaths})
	if err != nil {
		return nil, &RejectedError{Reason: err.Error()}
	}
	g, paths := a.Graph, a.Paths
	rep := &Report{NIC: name, Paths: len(paths)}
	// Wide semantic fields are unverifiable today: bitfield.Read (and hence
	// every generated accessor) reads at most 64 bits, so a semantic-tagged
	// field beyond one word would panic at read time. Rejecting here is the
	// safety net: such a description must never reach a runtime.
	for _, p := range paths {
		for _, f := range p.Fields {
			if f.WidthBits > 64 && f.Semantic != "" {
				return nil, &RejectedError{Reason: fmt.Sprintf(
					"path %d: semantic field %s (%q) is %d bits wide; accessors read at most 64",
					p.ID, f.Name, f.Semantic, f.WidthBits)}
			}
		}
	}
	leaves := flattenParams(g)
	golden := softnic.Funcs()
	for _, p := range paths {
		pc, err := newPathChecker(name, g, paths, p, leaves, golden, opts, rep)
		if err != nil {
			return nil, err
		}
		if err := pc.run(); err != nil {
			return nil, err
		}
		if len(rep.Disagreements) >= maxDisagreements {
			break
		}
	}
	return rep, nil
}

// VerifySource parses and checks a bare P4 interface description and runs
// the harness over it. Parse and sema failures are structured rejections.
func VerifySource(name, src string, opts Options) (*Report, error) {
	prog, err := parser.Parse(name+".p4", src)
	if err != nil {
		return nil, &RejectedError{Reason: fmt.Sprintf("parse: %v", err)}
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, &RejectedError{Reason: fmt.Sprintf("sema: %v", err)}
	}
	return Verify(name, core.DeparserSpec{Info: info}, opts)
}

// VerifyModel runs the harness over a bundled NIC model.
func VerifyModel(m *nic.Model, opts Options) (*Report, error) {
	return Verify(m.Name, m.Deparser, opts)
}

// Certificate is the fleet-facing verdict for one description, keyed by its
// content digest. Reason carries the rejection or the first disagreement
// when the description did not pass — the operator-visible quarantine text.
type Certificate struct {
	Digest string
	NIC    string
	Paths  int
	Cases  int
	Checks int
	Passed bool
	Reason string
}

// Certify runs the harness over a bare P4 source and summarizes the verdict.
func Certify(name, src string) Certificate {
	cert := Certificate{Digest: core.SourceDigest(src), NIC: name}
	rep, err := VerifySource(name, src, Options{})
	if err != nil {
		cert.Reason = err.Error()
		return cert
	}
	cert.Paths, cert.Cases, cert.Checks = rep.Paths, rep.Cases, rep.Checks
	if !rep.OK() {
		cert.Reason = "diffverify: " + rep.Disagreements[0].Summary()
		return cert
	}
	cert.Passed = true
	return cert
}

var (
	certMu    sync.Mutex
	certCache = make(map[string]Certificate)
)

// CertifyCached memoizes Certify by content digest. The fleet controller and
// the chaos diffverify oracle share this cache, so each distinct description
// is verified once per process regardless of fleet size or seed count.
func CertifyCached(name, src string) Certificate {
	digest := core.SourceDigest(src)
	certMu.Lock()
	c, ok := certCache[digest]
	certMu.Unlock()
	if ok {
		return c
	}
	c = Certify(name, src)
	certMu.Lock()
	certCache[digest] = c
	certMu.Unlock()
	return c
}

// leaf is one flattened ≤64-bit leaf field of a deparser parameter, the unit
// of the concrete environments the walk and the serializers run under.
type leaf struct {
	name  string // dotted, e.g. "pipe_meta.rss" or "ctx.use_rss"
	width int
}

// flattenParams collects every fixed-width leaf field of every composite
// deparser parameter (metadata and context alike) under its dotted name.
// Fields wider than 64 bits carry no environment value — exactly as in the
// device serializer they feed — but still occupy layout bits.
func flattenParams(g *core.Graph) []leaf {
	var out []leaf
	var rec func(prefix string, ct *sema.CompositeType)
	rec = func(prefix string, ct *sema.CompositeType) {
		for _, f := range ct.Fields {
			name := prefix + "." + f.Name
			if nested, ok := f.Type.(*sema.CompositeType); ok {
				rec(name, nested)
				continue
			}
			w := f.Type.BitWidth()
			if w <= 0 || w > 64 {
				continue
			}
			out = append(out, leaf{name: name, width: w})
		}
	}
	for _, p := range g.Instance().Params {
		if ct, ok := p.Type.(*sema.CompositeType); ok {
			rec(p.Name, ct)
		}
	}
	return out
}

// widthMask returns the w-bit all-ones mask (w in 1..64).
func widthMask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// boundaryPatterns is the per-width value battery: zero, all-ones, LSB, sign
// bit, and the two alternating cross-word patterns, deduplicated.
func boundaryPatterns(w int) []uint64 {
	mask := widthMask(w)
	cand := []uint64{
		0,
		mask,
		1,
		uint64(1) << (w - 1),
		0x5555555555555555 & mask,
		0xAAAAAAAAAAAAAAAA & mask,
	}
	var out []uint64
	seen := make(map[uint64]bool, len(cand))
	for _, v := range cand {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// mix is the splitmix64 finalizer: the repo-standard deterministic stream
// for filler values (no global RNG state, so reports are reproducible).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pathChecker verifies one enumerated path under many environments.
type pathChecker struct {
	name   string
	g      *core.Graph
	paths  []*core.Path
	p      *core.Path
	leaves []leaf
	golden map[semantics.Name]codegen.SoftFunc
	opts   Options
	rep    *Report

	// uniq is the path's emitted ≤64-bit leaf set (first occurrence order);
	// fields may repeat in the layout (duplicate emits) but share one value.
	uniq []leaf
	// pins is the context assignment selecting this path.
	pins map[string]uint64
	// ip re-extracts the record through a synthesized per-path parser.
	ip *pathInterp
	// rt reads the record through per-path generated accessors.
	rt        *codegen.Runtime
	accessors []core.Accessor
}

func newPathChecker(name string, g *core.Graph, paths []*core.Path, p *core.Path,
	leaves []leaf, golden map[semantics.Name]codegen.SoftFunc, opts Options, rep *Report) (*pathChecker, error) {
	pins, err := core.ConfigAssignment(p.Constraints)
	if err != nil {
		return nil, &RejectedError{Reason: fmt.Sprintf("path %d: %v", p.ID, err)}
	}
	c := &pathChecker{
		name: name, g: g, paths: paths, p: p,
		leaves: leaves, golden: golden, opts: opts, rep: rep,
		pins: pins,
	}
	seen := make(map[string]bool)
	for _, f := range p.Fields {
		if f.WidthBits > 64 || seen[f.Name] {
			continue
		}
		seen[f.Name] = true
		c.uniq = append(c.uniq, leaf{name: f.Name, width: f.WidthBits})
	}
	if len(p.Fields) > 0 {
		c.ip, err = newPathInterp(name, p)
		if err != nil {
			return nil, fmt.Errorf("diffverify %s path %d: %w", name, p.ID, err)
		}
	}
	c.accessors = pathAccessors(p, opts.BreakAccessor)
	c.rt = codegen.NewRuntime(&core.Result{
		NIC:      name,
		Control:  g.Control,
		Graph:    g,
		Paths:    paths,
		Selected: core.Scored{Path: p},
		Config:   p.Constraints,
		Intent:   &core.Intent{Name: "diffverify"},
		Accessors: c.accessors,
	}, nil)
	return c, nil
}

// pathAccessors synthesizes one hardware accessor per semantic the path
// provides (first occurrence, like core's accessor synthesis). breakOne
// shifts the first accessor's window by one bit — the injected-bug ablation.
func pathAccessors(p *core.Path, breakOne bool) []core.Accessor {
	seen := make(map[semantics.Name]bool)
	var acc []core.Accessor
	for _, f := range p.Fields {
		if f.Semantic == "" || f.WidthBits > 64 || seen[f.Semantic] {
			continue
		}
		seen[f.Semantic] = true
		acc = append(acc, core.Accessor{
			Semantic:   f.Semantic,
			FieldName:  f.Name,
			OffsetBits: f.OffsetBits,
			WidthBits:  f.WidthBits,
			Hardware:   true,
		})
	}
	if breakOne && len(acc) > 0 {
		a := &acc[0]
		switch {
		case a.OffsetBits+a.WidthBits < p.SizeBits():
			a.OffsetBits++
		case a.OffsetBits > 0:
			a.OffsetBits--
		}
	}
	return acc
}

// capped reports whether the optional case budget is exhausted.
func (c *pathChecker) capped() bool {
	return c.opts.MaxCases > 0 && c.rep.Cases >= c.opts.MaxCases
}

// run sweeps the path: one all-filler baseline, a boundary battery focused
// on each emitted field, and the SoftNIC-golden packet pass.
func (c *pathChecker) run() error {
	if c.capped() {
		return nil
	}
	base := uint64(c.p.ID)<<32 ^ 0x51c3a9b2
	if err := c.checkCase(c.fillerVals(mix(base))); err != nil {
		return err
	}
	c.rep.Cases++
	for fi, f := range c.uniq {
		if _, pinned := c.pins[f.name]; pinned {
			continue
		}
		for pi, pat := range boundaryPatterns(f.width) {
			if c.capped() {
				return nil
			}
			vals := c.fillerVals(mix(base ^ uint64(fi)<<16 ^ uint64(pi)<<8))
			vals[f.name] = pat
			for k, v := range c.pins {
				vals[k] = v
			}
			if err := c.checkCase(vals); err != nil {
				return err
			}
			c.rep.Cases++
			if len(c.rep.Disagreements) >= maxDisagreements {
				return nil
			}
		}
	}
	return c.runGolden()
}

// runGolden pushes ground-truth packet metadata through the write→read
// pipeline: SoftNIC computes each semantic from a deterministic packet, the
// record is serialized with those values, and every view must read them
// back (masked to the field width, the documented truncation semantics).
func (c *pathChecker) runGolden() error {
	n := c.opts.Packets
	if n <= 0 {
		n = 4
	}
	for j := 0; j < n; j++ {
		if c.capped() {
			return nil
		}
		packet := goldenPacket(c.p.ID, j)
		vals := make(map[string]uint64, len(c.leaves))
		for _, l := range c.leaves {
			vals[l.name] = 0
		}
		for _, f := range c.p.Fields {
			if f.Semantic == "" || f.WidthBits > 64 {
				continue
			}
			if fn := c.golden[f.Semantic]; fn != nil {
				vals[f.Name] = fn(packet)
			}
		}
		for k, v := range c.pins {
			vals[k] = v
		}
		if err := c.checkCase(vals); err != nil {
			return err
		}
		c.rep.Cases++
		if len(c.rep.Disagreements) >= maxDisagreements {
			return nil
		}
	}
	return nil
}

func goldenPacket(pathID, j int) []byte {
	return pkt.NewBuilder().
		WithIPv4([4]byte{10, byte(pathID), byte(j >> 8), byte(j)}, [4]byte{10, 0, 0, 1}).
		WithUDP(uint16(2000+j%251), uint16(53+j%7)).
		WithPayload(make([]byte, 16+(pathID*7+j*3)%96)).
		Build()
}

// fillerVals builds a deterministic full environment: every leaf gets a
// seeded splitmix value masked to its width, then the pins overlay.
func (c *pathChecker) fillerVals(seed uint64) map[string]uint64 {
	vals := make(map[string]uint64, len(c.leaves))
	for i, l := range c.leaves {
		vals[l.name] = mix(seed^uint64(i)) & widthMask(l.width)
	}
	for k, v := range c.pins {
		vals[k] = v
	}
	return vals
}

// env converts a value map into the evaluation environment the walk and the
// branch conditions see: each leaf masked to its declared width.
func (c *pathChecker) env(vals map[string]uint64) sema.MapEnv {
	env := make(sema.MapEnv, len(c.leaves))
	for _, l := range c.leaves {
		env[l.name] = sema.UintValue(vals[l.name]&widthMask(l.width), l.width)
	}
	return env
}

// staticImage serializes view A: each layout field's value written at its
// statically computed offset (fields beyond 64 bits stay zero, as in the
// device serializer).
func staticImage(p *core.Path, vals map[string]uint64) []byte {
	img := make([]byte, p.SizeBytes())
	for _, f := range p.Fields {
		if f.WidthBits > 64 {
			continue
		}
		bitfield.Write(img, f.OffsetBits, f.WidthBits, vals[f.Name]&widthMask(f.WidthBits))
	}
	return img
}

// checkCase runs all four views under one environment.
func (c *pathChecker) checkCase(vals map[string]uint64) error {
	img := staticImage(c.p, vals)
	c.checkInterp(img, vals)
	c.checkAccessors(img, vals)
	return c.checkWalk(img, vals)
}

// checkInterp re-extracts the static image through the synthesized per-path
// parser and compares every field value, the consumed bit count, and the
// accept verdict against the static view.
func (c *pathChecker) checkInterp(img []byte, vals map[string]uint64) {
	if c.ip == nil {
		return
	}
	res, err := c.ip.run(img)
	c.rep.Checks++
	if err != nil || !res.Accepted {
		detail := "parser rejected the record"
		if err != nil {
			detail = err.Error()
		}
		c.fail("interp", 0, img, vals, 0, 0, detail)
		return
	}
	if res.BitsConsumed != c.p.SizeBits() {
		c.fail("interp", 0, img, vals, uint64(c.p.SizeBits()), uint64(res.BitsConsumed),
			"consumed bit count diverges from static layout size")
		return
	}
	for i, f := range c.p.Fields {
		if f.WidthBits > 64 {
			continue
		}
		want := vals[f.Name] & widthMask(f.WidthBits)
		got := res.Values[c.ip.fieldName(i)]
		c.rep.Checks++
		if got != want {
			c.fail("interp", i, img, vals, want, got, "")
		}
	}
}

// checkAccessors reads every synthesized hardware accessor off the static
// image and compares against the environment value (view D).
func (c *pathChecker) checkAccessors(img []byte, vals map[string]uint64) {
	for _, a := range c.accessors {
		r := c.rt.Reader(a.Semantic)
		got := r.Read(img, nil)
		lf := c.p.Field(a.Semantic)
		want := vals[lf.Name] & widthMask(lf.WidthBits)
		c.rep.Checks++
		if got != want {
			fi := c.fieldIndex(lf)
			c.fail("accessor", fi, img, vals, want, got, string(a.Semantic))
		}
	}
}

// checkWalk serializes the record by independently walking the deparser CFG
// under the environment (view B) and compares layout and bytes against the
// static view of whichever enumerated path the walk resolves to.
func (c *pathChecker) checkWalk(img []byte, vals map[string]uint64) error {
	fields, wimg, err := walkSerialize(c.g, c.env(vals))
	if err != nil {
		// The walk cannot evaluate a discriminant (opaque condition over
		// values outside the environment): not verifiable, not a bug.
		return &RejectedError{Reason: fmt.Sprintf("path %d walk: %v", c.p.ID, err)}
	}
	q := matchPath(c.paths, fields)
	c.rep.Checks++
	if q == nil {
		c.fail("layout", 0, wimg, vals, 0, 0,
			fmt.Sprintf("walked layout (%d fields, %d bits) matches no enumerated path",
				len(fields), sizeBitsOf(fields)))
		return nil
	}
	qimg := img
	if q.ID != c.p.ID {
		// Underdetermined environment (multi-valued or opaque discriminant):
		// the walk took a sibling path. Verify it there and count the skip.
		c.rep.Skipped++
		qimg = staticImage(q, vals)
	}
	if !bytes.Equal(wimg, qimg) {
		_, f := firstImageDiff(q, wimg, qimg)
		d := &Disagreement{
			NIC:         c.name,
			PathID:      q.ID,
			Constraints: constraintStrings(q),
			View:        "walk",
			Field:       f.Name,
			Semantic:    string(f.Semantic),
			OffsetBits:  f.OffsetBits,
			WidthBits:   f.WidthBits,
			Image:       qimg,
			Want:        readField(qimg, f),
			Got:         readField(wimg, f),
			Detail:      "independent CFG-walk serialization diverges from static layout",
		}
		c.rep.Disagreements = append(c.rep.Disagreements, d)
	}
	return nil
}

func (c *pathChecker) fieldIndex(lf *core.LayoutField) int {
	for i := range c.p.Fields {
		if &c.p.Fields[i] == lf {
			return i
		}
	}
	return 0
}

// fail records a disagreement for field index fi, first shrinking the
// environment to the minimal one that still reproduces it: everything zero
// except the failing field and the pinned discriminants.
func (c *pathChecker) fail(view string, fi int, img []byte, vals map[string]uint64, want, got uint64, detail string) {
	f := c.p.Fields[fi]
	min := make(map[string]uint64, len(c.pins)+1)
	for _, l := range c.leaves {
		min[l.name] = 0
	}
	for k, v := range c.pins {
		min[k] = v
	}
	min[f.Name] = vals[f.Name]
	if mgot, fails := c.reproduce(view, fi, min); fails {
		vals = min
		img = staticImage(c.p, min)
		want = min[f.Name] & widthMask(f.WidthBits)
		got = mgot
	}
	d := &Disagreement{
		NIC:         c.name,
		PathID:      c.p.ID,
		Constraints: constraintStrings(c.p),
		View:        view,
		Field:       f.Name,
		Semantic:    string(f.Semantic),
		OffsetBits:  f.OffsetBits,
		WidthBits:   f.WidthBits,
		Image:       img,
		Want:        want,
		Got:         got,
		Detail:      detail,
	}
	c.rep.Disagreements = append(c.rep.Disagreements, d)
}

// reproduce recomputes one view's value for one field under a candidate
// minimal environment, reporting whether the divergence persists.
func (c *pathChecker) reproduce(view string, fi int, vals map[string]uint64) (uint64, bool) {
	f := c.p.Fields[fi]
	if f.WidthBits > 64 {
		return 0, false
	}
	img := staticImage(c.p, vals)
	want := vals[f.Name] & widthMask(f.WidthBits)
	switch view {
	case "interp":
		if c.ip == nil {
			return 0, false
		}
		res, err := c.ip.run(img)
		if err != nil || !res.Accepted {
			return 0, false
		}
		got := res.Values[c.ip.fieldName(fi)]
		return got, got != want
	case "accessor":
		if f.Semantic == "" {
			return 0, false
		}
		r := c.rt.Reader(f.Semantic)
		if r == nil {
			return 0, false
		}
		got := r.Read(img, nil)
		return got, got != want
	}
	return 0, false
}

// matchPath finds the enumerated path whose layout equals the walked field
// sequence (names, offsets, widths in order), or nil.
func matchPath(paths []*core.Path, fields []core.LayoutField) *core.Path {
	for _, p := range paths {
		if len(p.Fields) != len(fields) {
			continue
		}
		same := true
		for i := range fields {
			a, b := p.Fields[i], fields[i]
			if a.Name != b.Name || a.OffsetBits != b.OffsetBits || a.WidthBits != b.WidthBits {
				same = false
				break
			}
		}
		if same {
			return p
		}
	}
	return nil
}

func sizeBitsOf(fields []core.LayoutField) int {
	n := 0
	for _, f := range fields {
		n += f.WidthBits
	}
	return n
}

// firstImageDiff locates the first layout field whose bits differ between
// the two images (falling back to the path's first field).
func firstImageDiff(p *core.Path, a, b []byte) (int, core.LayoutField) {
	for i, f := range p.Fields {
		if f.WidthBits > 64 {
			continue
		}
		if readField(a, f) != readField(b, f) {
			return i, f
		}
	}
	if len(p.Fields) > 0 {
		return 0, p.Fields[0]
	}
	return 0, core.LayoutField{}
}

func readField(img []byte, f core.LayoutField) uint64 {
	if f.WidthBits <= 0 || f.WidthBits > 64 || f.OffsetBits+f.WidthBits > len(img)*8 {
		return 0
	}
	return bitfield.Read(img, f.OffsetBits, f.WidthBits)
}

func constraintStrings(p *core.Path) []string {
	out := make([]string, 0, len(p.Constraints))
	for _, cc := range p.Constraints {
		out = append(out, cc.String())
	}
	sort.Strings(out)
	return out
}
