// Package diffverify is the S27 differential-verification harness. For one
// interface description it enumerates the full completion-path space and
// asserts, for every discriminant branch and a battery of boundary field
// values, that three independently built views of each completion record
// agree bit for bit:
//
//	A. the static layout — core.EnumeratePaths offsets/widths over the
//	   compiler's CFG of the deparser;
//	B. the P4 interpreter running the deparser's apply block from the source
//	   under a concrete environment (interp.Deparser), which shares no code
//	   with the compiler's lowering: it derives the branch taken, every field
//	   offset and the record bytes on its own;
//	C. the generated accessor runtime reading the record (internal/codegen);
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
	"slices"
	"sort"
	"strings"

	"opendesc/internal/bitfield"
	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/p4/interp"
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

// Disagreement is one cross-view divergence. An accessor divergence is
// minimized to the smallest environment that still reproduces it: every
// field zero except the failing one and the pinned discriminants.
type Disagreement struct {
	NIC         string
	PathID      int
	Constraints []string // pinned discriminants selecting the path
	View        string   // which view diverged: interp, accessor, layout
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
	// Skipped counts cases whose environment was underdetermined for the
	// focus path (opaque or multi-valued discriminants) even after their
	// free leaves were drawn again: the interpreter's record has another
	// enumerated path's layout, and the environment satisfies that path's
	// constraints too — still verified, attributed there.
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

// VerifyModel runs the differential harness over one description, on the
// model's own analysis: built once per model, so verifying a bundled model
// reuses what opening it built. A *RejectedError means the description is
// outside the harness's domain; any other error is an internal failure.
func VerifyModel(m *nic.Model, opts Options) (*Report, error) {
	g, paths, err := enumerate(m, opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{NIC: m.Name, Paths: len(paths)}
	ck, err := newChecker(m.Name, g, paths, opts, rep)
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		pc, err := ck.bindPath(p)
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

// enumerate reads the description's analysis and refuses what the harness
// cannot soundly check.
func enumerate(m *nic.Model, opts Options) (*core.Graph, []*core.Path, error) {
	a, err := m.Analysis(core.EnumerateOptions{MaxPaths: opts.MaxPaths})
	if err != nil {
		return nil, nil, &RejectedError{Reason: err.Error()}
	}
	// Wide semantic fields are unverifiable today: bitfield.Read (and hence
	// every generated accessor) reads at most 64 bits, so a semantic-tagged
	// field beyond one word would panic at read time. Rejecting here is the
	// safety net: such a description must never reach a runtime.
	for _, p := range a.Paths {
		for _, f := range p.Fields {
			if f.WidthBits > 64 && f.Semantic != "" {
				return nil, nil, &RejectedError{Reason: fmt.Sprintf(
					"path %d: semantic field %s (%q) is %d bits wide; accessors read at most 64",
					p.ID, f.Name, f.Semantic, f.WidthBits)}
			}
		}
	}
	return a.Graph, a.Paths, nil
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

// Certify runs the frontend and the harness over a bare P4 source and
// summarizes the verdict; a description the frontend refuses is rejected.
func Certify(name, src string) Certificate {
	cert := Certificate{Digest: core.SourceDigest(src), NIC: name}
	m, err := nic.Parse(name+".p4", src)
	if err != nil {
		cert.Reason = (&RejectedError{Reason: err.Error()}).Error()
		return cert
	}
	rep, err := VerifyModel(m, Options{})
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

var certCache core.Memo[string, Certificate]

// CertifyCached memoizes Certify by content digest. The fleet controller and
// the chaos diffverify oracle share this cache, so each distinct description
// is verified once per process regardless of fleet size, seed count or how
// many goroutines ask at once.
func CertifyCached(name, src string) Certificate {
	cert, _ := certCache.Get(core.SourceDigest(src), func() (Certificate, error) { return Certify(name, src), nil })
	return cert
}

// slotEnv is one concrete environment: a value per leaf of the graph's leaf
// table, held by leaf index and masked to the leaf's declared width. A case
// rewrites vals and nothing else.
type slotEnv struct {
	g    *core.Graph
	vals []uint64
}

func (e *slotEnv) set(leaf int, v uint64) {
	e.vals[leaf] = e.g.Leaves[leaf].Mask(v)
}

// Lookup implements sema.Env: what the interpreter's conditions and emits
// see of the environment, typed as the leaf is declared — a bool leaf reads
// as a bool.
func (e *slotEnv) Lookup(path string) (sema.Value, bool) {
	i := e.g.Leaf(path)
	if i < 0 {
		return sema.Value{}, false
	}
	return e.g.Leaves[i].Value(e.vals[i]), true
}

// widthMask returns the w-bit all-ones mask (w in 1..64).
func widthMask(w int) uint64 { return ^uint64(0) >> (64 - w) }

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

// checker is what one Verify run binds once per description and shares
// between its paths: the environment over the graph's leaf table (a layout
// field's value is its Leaf's), the bound deparser, the boundary batteries
// by width, and the buffers every case reuses. Only the representation of the environment is
// shared — each view still derives its own offsets, widths and branch
// decisions.
type checker struct {
	name  string
	g     *core.Graph
	paths []*core.Path
	soft  map[semantics.Name]codegen.SoftFunc // the SoftNIC golden
	opts  Options
	rep   *Report

	env     slotEnv
	battery [65][]uint64 // boundaryPatterns by width, built on first use

	img []byte           // view A: the focus path's static image
	sib []byte           // view A for the sibling path an underdetermined case resolved to
	dp  *interp.Deparser // view B: the deparser, bound from the source
	rec interp.Record    // view B: the interpreted record
}

func newChecker(name string, g *core.Graph, paths []*core.Path, opts Options, rep *Report) (*checker, error) {
	dp, err := interp.NewDeparser(g.Info(), g.Instance())
	if err != nil {
		return nil, &RejectedError{Reason: err.Error()}
	}
	return &checker{
		name: name, g: g, paths: paths, soft: softnic.Funcs(), opts: opts, rep: rep,
		env: slotEnv{g: g, vals: make([]uint64, len(g.Leaves))},
		dp:  dp,
	}, nil
}

func (ck *checker) patterns(w int) []uint64 {
	if ck.battery[w] == nil {
		ck.battery[w] = boundaryPatterns(w)
	}
	return ck.battery[w]
}

// pin is one context register the path's constraints fix: a leaf and its
// value.
type pin struct {
	leaf int
	val  uint64
}

// accessorRead is one synthesized hardware accessor with the layout field
// it must agree with.
type accessorRead struct {
	reader *codegen.Reader
	field  int // index into the path's Fields
}

// goldenField is one semantic-tagged leaf and the SoftNIC function that
// computes its ground truth from a packet.
type goldenField struct {
	leaf int
	fn   codegen.SoftFunc
}

// pathChecker verifies one enumerated path under many environments. All it
// holds is a function of the path, resolved once in bindPath.
type pathChecker struct {
	*checker
	p *core.Path

	// uniq indexes the first occurrence of each emitted ≤64-bit field in
	// p.Fields; fields may repeat in the layout (duplicate emits) but share
	// one value.
	uniq []int
	// pins is the context assignment selecting this path.
	pins   []pin
	golden []goldenField
	// goldenLeaves are golden's leaves: the focus of a golden case.
	goldenLeaves []int
	// reads are the per-path generated accessors, one per provided semantic.
	reads []accessorRead
}

func (ck *checker) bindPath(p *core.Path) (*pathChecker, error) {
	assign, err := core.ConfigAssignment(p.Constraints)
	if err != nil {
		return nil, &RejectedError{Reason: fmt.Sprintf("path %d: %v", p.ID, err)}
	}
	c := &pathChecker{checker: ck, p: p}
	for name, v := range assign {
		// A pinned name outside the leaf table is invisible to every view.
		if l := ck.g.Leaf(name); l >= 0 {
			c.pins = append(c.pins, pin{leaf: l, val: v})
		}
	}
	seen := make(map[int]bool)
	for k, f := range p.Fields {
		s := f.Leaf
		if s < 0 {
			continue
		}
		if !seen[s] {
			seen[s] = true
			c.uniq = append(c.uniq, k)
		}
		if fn := ck.soft[f.Semantic]; fn != nil {
			c.golden = append(c.golden, goldenField{leaf: s, fn: fn})
			c.goldenLeaves = append(c.goldenLeaves, s)
		}
	}
	accessors, fields := pathAccessors(p, ck.opts.BreakAccessor)
	rt := codegen.NewRuntime(&core.Result{
		NIC:       ck.name,
		Control:   ck.g.Control,
		Graph:     ck.g,
		Paths:     ck.paths,
		Selected:  core.Scored{Path: p},
		Config:    p.Constraints,
		Intent:    &core.Intent{Name: "diffverify"},
		Accessors: accessors,
	}, nil)
	for i, a := range accessors {
		c.reads = append(c.reads, accessorRead{reader: rt.Reader(a.Semantic), field: fields[i]})
	}
	return c, nil
}

// pathAccessors synthesizes one hardware accessor per semantic the path
// provides (first occurrence, like core's accessor synthesis), and returns
// beside each the index of the layout field it reads. breakOne shifts the
// first accessor's window by one bit — the injected-bug ablation.
func pathAccessors(p *core.Path, breakOne bool) ([]core.Accessor, []int) {
	seen := make(map[semantics.Name]bool)
	var acc []core.Accessor
	var fields []int
	for k, f := range p.Fields {
		if f.Semantic == "" || f.WidthBits > 64 || seen[f.Semantic] {
			continue
		}
		seen[f.Semantic] = true
		fields = append(fields, k)
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
	return acc, fields
}

// capped reports whether the optional case budget is exhausted.
func (c *pathChecker) capped() bool {
	return c.opts.MaxCases > 0 && c.rep.Cases >= c.opts.MaxCases
}

func (c *pathChecker) pinned(leaf int) bool {
	for _, p := range c.pins {
		if p.leaf == leaf {
			return true
		}
	}
	return false
}

func (c *pathChecker) applyPins() {
	for _, p := range c.pins {
		c.env.set(p.leaf, p.val)
	}
}

// run sweeps the path: one all-filler baseline, a boundary battery focused
// on each emitted field, and the SoftNIC-golden packet pass.
func (c *pathChecker) run() error {
	if c.capped() {
		return nil
	}
	base := uint64(c.p.ID)<<32 ^ 0x51c3a9b2
	c.fill(mix(base))
	c.applyPins()
	if err := c.checkCase(); err != nil {
		return err
	}
	c.rep.Cases++
	for ui, k := range c.uniq {
		if c.pinned(c.p.Fields[k].Leaf) {
			continue
		}
		for pi, pat := range c.patterns(c.p.Fields[k].WidthBits) {
			if c.capped() {
				return nil
			}
			c.fill(mix(base ^ uint64(ui)<<16 ^ uint64(pi)<<8))
			c.env.set(c.p.Fields[k].Leaf, pat)
			c.applyPins()
			if err := c.checkCase(c.p.Fields[k].Leaf); err != nil {
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
		clear(c.env.vals)
		for _, g := range c.golden {
			c.env.set(g.leaf, g.fn(packet))
		}
		c.applyPins()
		if err := c.checkCase(c.goldenLeaves...); err != nil {
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

// fill makes the environment a deterministic filler: every leaf gets a
// seeded splitmix value masked to its width.
func (c *pathChecker) fill(seed uint64) {
	for i := range c.env.vals {
		c.env.set(i, mix(seed^uint64(i)))
	}
}

// staticImage serializes view A into dst: each layout field's value, its
// leaf's in vals, written at its statically computed offset (fields beyond
// 64 bits have no leaf and stay zero, as in the device serializer).
func staticImage(dst []byte, p *core.Path, vals []uint64) []byte {
	dst = append(dst[:0], make([]byte, p.SizeBytes())...)
	for _, f := range p.Fields {
		if f.Leaf >= 0 {
			bitfield.Write(dst, f.OffsetBits, f.WidthBits, vals[f.Leaf])
		}
	}
	return dst
}

// redraws bounds how often an underdetermined case draws its free leaves
// again (redrawValue).
const redraws = 4

// redrawValue is draw r of free leaf i of a w-bit leaf in the case counted
// before it: zero, then all-ones, then filler. The two boundaries settle an
// opaque condition such as `a != 0 && b < k` either way it can go.
func redrawValue(r, i, w, pathID, cases int) uint64 {
	switch r {
	case 0:
		return 0
	case 1:
		return widthMask(w)
	}
	return mix(mix(uint64(pathID)<<32^uint64(cases)<<4^uint64(r))^uint64(i)) & widthMask(w)
}

// checkCase runs all three views under the current environment. When the
// interpreted record belongs to a sibling path, the case is underdetermined
// for its focus: it draws its free leaves — neither pinned nor in focus —
// again, up to redraws times, until the record is the focus path's, and is
// then checked wherever its record belongs.
func (c *pathChecker) checkCase(focus ...int) error {
	qi, err := c.interpret()
	for r := 0; err == nil && qi >= 0 && c.paths[qi] != c.p && r < redraws; r++ {
		for i, l := range c.g.Leaves {
			if !c.pinned(i) && !slices.Contains(focus, i) {
				c.env.set(i, redrawValue(r, i, l.Width, c.p.ID, c.rep.Cases))
			}
		}
		qi, err = c.interpret()
	}
	if err != nil {
		return err
	}
	c.img = staticImage(c.img, c.p, c.env.vals)
	c.checkAccessors()
	c.checkRecord(qi)
	return nil
}

// checkAccessors reads every synthesized hardware accessor off the static
// image and compares against the environment value, its field's leaf's
// (view C). A failure is reported under the minimal environment when it
// reproduces there.
func (c *pathChecker) checkAccessors() {
	for _, a := range c.reads {
		want, got := c.env.vals[c.p.Fields[a.field].Leaf], a.reader.Read(c.img, nil)
		c.rep.Checks++
		if got != want {
			img := c.img
			if mimg, mwant, mgot := c.minimal(a); mgot != mwant {
				img, want, got = mimg, mwant, mgot
			}
			c.fail(c.p, "accessor", a.field, img, want, got, string(a.reader.Semantic))
		}
	}
}

// interpret runs the deparser's apply block through the interpreter under
// the environment (view B) into c.rec and returns the enumerated path the
// record belongs to (matchPath).
func (c *pathChecker) interpret() (int, error) {
	if err := c.dp.RunInto(&c.rec, &c.env); err != nil {
		// The interpreter cannot evaluate a discriminant (opaque condition
		// over values outside the environment): not verifiable, not a bug.
		return -1, &RejectedError{Reason: fmt.Sprintf("path %d interp: %v", c.p.ID, err)}
	}
	return matchPath(c.paths, c.p, c.rec.Fields, &c.env), nil
}

// checkRecord compares the interpreted record's layout and bytes against
// the static view of path qi, the enumerated path it belongs to.
func (c *pathChecker) checkRecord(qi int) {
	c.rep.Checks++
	if qi < 0 {
		c.fail(c.p, "layout", 0, c.rec.Image, 0, 0,
			fmt.Sprintf("interpreted layout (%d fields, %d bits) matches no enumerated path the environment selects",
				len(c.rec.Fields), c.rec.Bits))
		return
	}
	q, qimg := c.paths[qi], c.img
	if q != c.p {
		// Underdetermined environment (multi-valued or opaque discriminant)
		// that no redraw settled: the record belongs to a sibling path.
		// Verify it there and count the skip.
		c.rep.Skipped++
		c.sib = staticImage(c.sib, q, c.env.vals)
		qimg = c.sib
	}
	if !bytes.Equal(c.rec.Image, qimg) {
		// Unequal images are not empty, so q has a field k.
		k := firstImageDiff(q, c.rec.Image, qimg)
		c.fail(q, "interp", k, qimg, readField(qimg, q.Fields[k]), readField(c.rec.Image, q.Fields[k]),
			"interpreted deparser record diverges from static layout")
	}
}

// fail records a disagreement for layout field k of path p (no field when
// p has none). img is a per-case buffer, so the reproducer keeps its own
// copy.
func (c *pathChecker) fail(p *core.Path, view string, k int, img []byte, want, got uint64, detail string) {
	var f core.LayoutField
	if k < len(p.Fields) {
		f = p.Fields[k]
	}
	c.rep.Disagreements = append(c.rep.Disagreements, &Disagreement{
		NIC:         c.name,
		PathID:      p.ID,
		Constraints: constraintStrings(p),
		View:        view,
		Field:       f.Name,
		Semantic:    string(f.Semantic),
		OffsetBits:  f.OffsetBits,
		WidthBits:   f.WidthBits,
		Image:       bytes.Clone(img),
		Want:        want,
		Got:         got,
		Detail:      detail,
	})
}

// minimal re-reads accessor a under the minimal environment: everything zero
// except a's field and the pinned discriminants. It runs in the middle of a
// case, so it touches none of the per-case buffers.
func (c *pathChecker) minimal(a accessorRead) (img []byte, want, got uint64) {
	min := make([]uint64, len(c.env.vals))
	for _, p := range c.pins {
		min[p.leaf] = c.env.vals[p.leaf] // every case applies the pins last
	}
	s := c.p.Fields[a.field].Leaf
	min[s] = c.env.vals[s]
	img = staticImage(nil, c.p, min)
	return img, min[s], a.reader.Read(img, nil)
}

// matchPath finds the enumerated path an interpreted record belongs to: the
// focus path if its layout equals the record's (names, offsets, widths in
// order), else another path with an equal layout whose constraints env
// satisfies, else -1. Preferring the focus keeps two paths with identical
// layouts apart; the constraint test keeps a mis-lowered graph, whose
// branches lead to the wrong layouts, from certifying as underdetermined.
func matchPath(paths []*core.Path, focus *core.Path, fields []interp.Field, env sema.Env) int {
	match := -1
paths:
	for qi, q := range paths {
		if len(q.Fields) != len(fields) {
			continue
		}
		for i, f := range fields {
			if a := q.Fields[i]; a.Name != f.Name || a.OffsetBits != f.OffsetBits || a.WidthBits != f.WidthBits {
				continue paths
			}
		}
		if q == focus {
			return qi
		}
		if match < 0 && satisfies(q, env) {
			match = qi
		}
	}
	return match
}

// satisfies reports whether env holds every constraint of p.
func satisfies(p *core.Path, env sema.Env) bool {
	for _, cc := range p.Constraints {
		v, ok := env.Lookup(cc.Var)
		if !ok || v.Equal(cc.Val) != cc.Equal {
			return false
		}
	}
	return true
}

// firstImageDiff indexes the first layout field whose bits differ between
// the two images (falling back to the path's first field).
func firstImageDiff(p *core.Path, a, b []byte) int {
	for k, f := range p.Fields {
		if f.WidthBits <= 64 && readField(a, f) != readField(b, f) {
			return k
		}
	}
	return 0
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
