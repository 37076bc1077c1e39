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
	"opendesc/internal/p4/interp"
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
func Verify(name string, info *sema.Info, opts Options) (*Report, error) {
	g, paths, err := enumerate(info, opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{NIC: name, Paths: len(paths)}
	ck, err := newChecker(name, g, paths, opts, rep)
	if err != nil {
		return nil, err
	}
	for i, p := range paths {
		pc, err := ck.bindPath(i, p)
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

// enumerate analyses the description and refuses what the harness cannot
// soundly check.
func enumerate(info *sema.Info, opts Options) (*core.Graph, []*core.Path, error) {
	a, err := core.Analyze(info, core.EnumerateOptions{MaxPaths: opts.MaxPaths})
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

// VerifySource parses and checks a bare P4 interface description and runs
// the harness over it. Parse and sema failures are structured rejections.
func VerifySource(name, src string, opts Options) (*Report, error) {
	info, err := sourceInfo(name, src)
	if err != nil {
		return nil, err
	}
	return Verify(name, info, opts)
}

// sourceInfo runs the frontend over a bare description.
func sourceInfo(name, src string) (*sema.Info, error) {
	prog, err := parser.Parse(name+".p4", src)
	if err != nil {
		return nil, &RejectedError{Reason: fmt.Sprintf("parse: %v", err)}
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, &RejectedError{Reason: fmt.Sprintf("sema: %v", err)}
	}
	return info, nil
}

// VerifyModel runs the harness over a bundled NIC model.
func VerifyModel(m *nic.Model, opts Options) (*Report, error) {
	return Verify(m.Name, m.Info, opts)
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

// certMemo memoizes certificates by content digest. Goroutines that miss on
// the same digest together share one harness run: the first runs it, the
// others wait for its certificate.
type certMemo struct {
	mu      sync.Mutex
	entries map[string]*certEntry
}

type certEntry struct {
	once sync.Once
	cert Certificate
}

func (m *certMemo) get(digest string, certify func() Certificate) Certificate {
	m.mu.Lock()
	e := m.entries[digest]
	if e == nil {
		if m.entries == nil {
			m.entries = make(map[string]*certEntry)
		}
		e = new(certEntry)
		m.entries[digest] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.cert = certify() })
	return e.cert
}

var certCache certMemo

// CertifyCached memoizes Certify by content digest. The fleet controller and
// the chaos diffverify oracle share this cache, so each distinct description
// is verified once per process regardless of fleet size, seed count or how
// many goroutines ask at once.
func CertifyCached(name, src string) Certificate {
	return certCache.get(core.SourceDigest(src), func() Certificate { return Certify(name, src) })
}

// leaf is one flattened ≤64-bit leaf field of a deparser parameter: one slot
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

// slotEnv is one concrete environment: a value per leaf, held by leaf index
// and masked to the leaf's declared width. Names are bound to slots once per
// description; a case rewrites vals and nothing else.
type slotEnv struct {
	leaves []leaf
	slots  map[string]int // leaf name → index into leaves and vals
	vals   []uint64
}

func newSlotEnv(leaves []leaf) *slotEnv {
	e := &slotEnv{leaves: leaves, slots: make(map[string]int, len(leaves)), vals: make([]uint64, len(leaves))}
	for i, l := range leaves {
		e.slots[l.name] = i
	}
	return e
}

func (e *slotEnv) set(slot int, v uint64) {
	e.vals[slot] = v & widthMask(e.leaves[slot].width)
}

// Lookup implements sema.Env: what the walk's branch conditions and emits
// see of the environment.
func (e *slotEnv) Lookup(path string) (sema.Value, bool) {
	i, ok := e.slots[path]
	if !ok {
		return sema.Value{}, false
	}
	return sema.UintValue(e.vals[i], e.leaves[i].width), true
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

// checker is what one Verify run binds once per description and shares
// between its paths: the slot environment, each path's layout field → slot
// table, the boundary batteries by width, and the buffers every case
// reuses. Only the representation of the environment is shared — each view
// still derives its own offsets, widths and branch decisions.
type checker struct {
	name  string
	g     *core.Graph
	paths []*core.Path
	soft  map[semantics.Name]codegen.SoftFunc // the SoftNIC golden
	opts  Options
	rep   *Report

	env *slotEnv
	// slots[i][k] is the slot of paths[i].Fields[k], or -1 for a field wider
	// than 64 bits (it occupies layout bits but carries no value).
	slots   [][]int
	battery [65][]uint64 // boundaryPatterns by width, built on first use

	img  []byte        // view A: the focus path's static image
	sib  []byte        // view A for the sibling path an underdetermined walk resolved to
	walk walker        // view B: the walked layout and its image
	res  interp.Result // view C: the re-extracted record
}

func newChecker(name string, g *core.Graph, paths []*core.Path, opts Options, rep *Report) (*checker, error) {
	ck := &checker{
		name: name, g: g, paths: paths, soft: softnic.Funcs(), opts: opts, rep: rep,
		env:   newSlotEnv(flattenParams(g)),
		slots: make([][]int, len(paths)),
	}
	for i, p := range paths {
		ck.slots[i] = make([]int, len(p.Fields))
		for k, f := range p.Fields {
			if f.WidthBits > 64 {
				ck.slots[i][k] = -1
				continue
			}
			// Emits are rooted at composite deparser parameters, so every
			// ≤64-bit layout field is a flattened leaf.
			s, ok := ck.env.slots[f.Name]
			if !ok {
				return nil, fmt.Errorf("diffverify %s path %d: layout field %s is no deparser parameter leaf", name, p.ID, f.Name)
			}
			ck.slots[i][k] = s
		}
	}
	return ck, nil
}

func (ck *checker) patterns(w int) []uint64 {
	if ck.battery[w] == nil {
		ck.battery[w] = boundaryPatterns(w)
	}
	return ck.battery[w]
}

// pin is one context register the path's constraints fix.
type pin struct {
	slot int
	val  uint64
}

// accessorRead is one synthesized hardware accessor with the layout field
// it must agree with.
type accessorRead struct {
	reader *codegen.Reader
	field  int // index into the path's Fields
}

// goldenField is one semantic-tagged slot and the SoftNIC function that
// computes its ground truth from a packet.
type goldenField struct {
	slot int
	fn   codegen.SoftFunc
}

// pathChecker verifies one enumerated path under many environments. All it
// holds is a function of the path, resolved once in bindPath.
type pathChecker struct {
	*checker
	p    *core.Path
	slot []int // this path's row of checker.slots

	// uniq indexes the first occurrence of each emitted ≤64-bit field in
	// p.Fields; fields may repeat in the layout (duplicate emits) but share
	// one value.
	uniq []int
	// pins is the context assignment selecting this path.
	pins   []pin
	golden []goldenField
	// ip re-extracts the record through a synthesized per-path parser.
	ip *pathInterp
	// reads are the per-path generated accessors, one per provided semantic.
	reads []accessorRead
}

func (ck *checker) bindPath(i int, p *core.Path) (*pathChecker, error) {
	assign, err := core.ConfigAssignment(p.Constraints)
	if err != nil {
		return nil, &RejectedError{Reason: fmt.Sprintf("path %d: %v", p.ID, err)}
	}
	c := &pathChecker{checker: ck, p: p, slot: ck.slots[i]}
	for name, v := range assign {
		// A pinned name outside the leaf table is invisible to every view.
		if s, ok := ck.env.slots[name]; ok {
			c.pins = append(c.pins, pin{slot: s, val: v})
		}
	}
	seen := make(map[int]bool)
	for k, f := range p.Fields {
		s := c.slot[k]
		if s < 0 {
			continue
		}
		if !seen[s] {
			seen[s] = true
			c.uniq = append(c.uniq, k)
		}
		if fn := ck.soft[f.Semantic]; fn != nil {
			c.golden = append(c.golden, goldenField{slot: s, fn: fn})
		}
	}
	if len(p.Fields) > 0 {
		c.ip, err = newPathInterp(ck.name, p)
		if err != nil {
			return nil, fmt.Errorf("diffverify %s path %d: %w", ck.name, p.ID, err)
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

func (c *pathChecker) pinned(slot int) bool {
	for _, p := range c.pins {
		if p.slot == slot {
			return true
		}
	}
	return false
}

func (c *pathChecker) applyPins() {
	for _, p := range c.pins {
		c.env.set(p.slot, p.val)
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
		if c.pinned(c.slot[k]) {
			continue
		}
		for pi, pat := range c.patterns(c.p.Fields[k].WidthBits) {
			if c.capped() {
				return nil
			}
			c.fill(mix(base ^ uint64(ui)<<16 ^ uint64(pi)<<8))
			c.env.set(c.slot[k], pat)
			c.applyPins()
			if err := c.checkCase(); err != nil {
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
			c.env.set(g.slot, g.fn(packet))
		}
		c.applyPins()
		if err := c.checkCase(); err != nil {
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

// zeroed returns buf resized to n zero bytes, reusing its storage when it is
// large enough.
func zeroed(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// staticImage serializes view A into dst: each layout field's value written
// at its statically computed offset (fields beyond 64 bits stay zero, as in
// the device serializer). slots is p's layout field → slot table.
func staticImage(dst []byte, p *core.Path, slots []int, vals []uint64) []byte {
	dst = zeroed(dst, p.SizeBytes())
	for k, f := range p.Fields {
		if s := slots[k]; s >= 0 {
			bitfield.Write(dst, f.OffsetBits, f.WidthBits, vals[s]&widthMask(f.WidthBits))
		}
	}
	return dst
}

// want is the static view's value of layout field k under the current
// environment.
func (c *pathChecker) want(k int) uint64 {
	return c.env.vals[c.slot[k]] & widthMask(c.p.Fields[k].WidthBits)
}

// checkCase runs all four views under the current environment.
func (c *pathChecker) checkCase() error {
	c.img = staticImage(c.img, c.p, c.slot, c.env.vals)
	c.checkInterp()
	c.checkAccessors()
	return c.checkWalk()
}

// checkInterp re-extracts the static image through the synthesized per-path
// parser and compares every field value, the consumed bit count, and the
// accept verdict against the static view.
func (c *pathChecker) checkInterp() {
	if c.ip == nil {
		return
	}
	err := c.ip.parser.RunInto(&c.res, c.img, nil)
	c.rep.Checks++
	if err != nil || !c.res.Accepted {
		detail := "parser rejected the record"
		if err != nil {
			detail = err.Error()
		}
		c.fail("interp", 0, c.img, 0, 0, detail)
		return
	}
	if c.res.BitsConsumed != c.p.SizeBits() {
		c.fail("interp", 0, c.img, uint64(c.p.SizeBits()), uint64(c.res.BitsConsumed),
			"consumed bit count diverges from static layout size")
		return
	}
	for k := range c.p.Fields {
		if c.slot[k] < 0 {
			continue
		}
		want, got := c.want(k), c.res.Values[c.ip.keys[k]]
		c.rep.Checks++
		if got != want {
			c.fail("interp", k, c.img, want, got, "")
		}
	}
}

// checkAccessors reads every synthesized hardware accessor off the static
// image and compares against the environment value (view D).
func (c *pathChecker) checkAccessors() {
	for _, a := range c.reads {
		want, got := c.want(a.field), a.reader.Read(c.img, nil)
		c.rep.Checks++
		if got != want {
			c.fail("accessor", a.field, c.img, want, got, string(a.reader.Semantic))
		}
	}
}

// checkWalk serializes the record by independently walking the deparser CFG
// under the environment (view B) and compares layout and bytes against the
// static view of whichever enumerated path the walk resolves to.
func (c *pathChecker) checkWalk() error {
	if err := c.walk.serialize(c.g, c.env); err != nil {
		// The walk cannot evaluate a discriminant (opaque condition over
		// values outside the environment): not verifiable, not a bug.
		return &RejectedError{Reason: fmt.Sprintf("path %d walk: %v", c.p.ID, err)}
	}
	fields, wimg := c.walk.fields, c.walk.img
	qi := matchPath(c.paths, fields)
	c.rep.Checks++
	if qi < 0 {
		c.fail("layout", 0, wimg, 0, 0,
			fmt.Sprintf("walked layout (%d fields, %d bits) matches no enumerated path",
				len(fields), sizeBitsOf(fields)))
		return nil
	}
	q, qimg := c.paths[qi], c.img
	if q.ID != c.p.ID {
		// Underdetermined environment (multi-valued or opaque discriminant):
		// the walk took a sibling path. Verify it there and count the skip.
		c.rep.Skipped++
		c.sib = staticImage(c.sib, q, c.slots[qi], c.env.vals)
		qimg = c.sib
	}
	if !bytes.Equal(wimg, qimg) {
		f := firstImageDiff(q, wimg, qimg)
		c.rep.Disagreements = append(c.rep.Disagreements, &Disagreement{
			NIC:         c.name,
			PathID:      q.ID,
			Constraints: constraintStrings(q),
			View:        "walk",
			Field:       f.Name,
			Semantic:    string(f.Semantic),
			OffsetBits:  f.OffsetBits,
			WidthBits:   f.WidthBits,
			Image:       bytes.Clone(qimg),
			Want:        readField(qimg, f),
			Got:         readField(wimg, f),
			Detail:      "independent CFG-walk serialization diverges from static layout",
		})
	}
	return nil
}

// fail records a disagreement for layout field k, first shrinking the
// environment to the minimal one that still reproduces it: everything zero
// except the failing field and the pinned discriminants. img is a per-case
// buffer, so the reproducer keeps its own copy.
func (c *pathChecker) fail(view string, k int, img []byte, want, got uint64, detail string) {
	f := c.p.Fields[k]
	min := make([]uint64, len(c.env.vals))
	for _, p := range c.pins {
		min[p.slot] = c.env.vals[p.slot] // every case applies the pins last
	}
	if s := c.slot[k]; s >= 0 {
		min[s] = c.env.vals[s]
	}
	if mimg, mgot, fails := c.reproduce(view, k, min); fails {
		img, want, got = mimg, min[c.slot[k]]&widthMask(f.WidthBits), mgot
	} else {
		img = bytes.Clone(img)
	}
	c.rep.Disagreements = append(c.rep.Disagreements, &Disagreement{
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
	})
}

// reproduce recomputes one view's value for layout field k under a candidate
// minimal environment, reporting the image it read and whether the
// divergence persists. It runs in the middle of a case, so it touches none
// of the per-case buffers.
func (c *pathChecker) reproduce(view string, k int, vals []uint64) ([]byte, uint64, bool) {
	f := c.p.Fields[k]
	if f.WidthBits > 64 {
		return nil, 0, false
	}
	img := staticImage(nil, c.p, c.slot, vals)
	want := vals[c.slot[k]] & widthMask(f.WidthBits)
	switch view {
	case "interp":
		if c.ip == nil {
			return nil, 0, false
		}
		res, err := c.ip.parser.Run(img, nil)
		if err != nil || !res.Accepted {
			return nil, 0, false
		}
		got := res.Values[c.ip.keys[k]]
		return img, got, got != want
	case "accessor":
		if f.Semantic == "" {
			return nil, 0, false
		}
		for _, a := range c.reads {
			if a.reader.Semantic == f.Semantic {
				got := a.reader.Read(img, nil)
				return img, got, got != want
			}
		}
	}
	return nil, 0, false
}

// matchPath finds the index of the enumerated path whose layout equals the
// walked field sequence (names, offsets, widths in order), or -1.
func matchPath(paths []*core.Path, fields []core.LayoutField) int {
	for pi, p := range paths {
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
			return pi
		}
	}
	return -1
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
func firstImageDiff(p *core.Path, a, b []byte) core.LayoutField {
	for _, f := range p.Fields {
		if f.WidthBits > 64 {
			continue
		}
		if readField(a, f) != readField(b, f) {
			return f
		}
	}
	if len(p.Fields) > 0 {
		return p.Fields[0]
	}
	return core.LayoutField{}
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
