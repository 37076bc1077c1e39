package diffverify

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"opendesc/internal/bitfield"
	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/p4/sema"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
)

// refVerify is Verify over the reference checker.
func refVerify(name string, info *sema.Info, opts Options) (*Report, error) {
	g, paths, err := enumerate(info, opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{NIC: name, Paths: len(paths)}
	leaves := flattenParams(g)
	golden := softnic.Funcs()
	for _, p := range paths {
		pc, err := newRefPathChecker(name, g, paths, p, leaves, golden, opts, rep)
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

// refPathChecker is the harness's checker as it stood before the slot
// environment: every case builds a map[string]uint64 of values and a
// sema.MapEnv from it, every view looks its fields up by name, and nothing
// is reused between cases. It is kept, unchanged but for its name, as the
// oracle the slot-indexed checker must agree with report for report.
type refPathChecker struct {
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

func newRefPathChecker(name string, g *core.Graph, paths []*core.Path, p *core.Path,
	leaves []leaf, golden map[semantics.Name]codegen.SoftFunc, opts Options, rep *Report) (*refPathChecker, error) {
	pins, err := core.ConfigAssignment(p.Constraints)
	if err != nil {
		return nil, &RejectedError{Reason: fmt.Sprintf("path %d: %v", p.ID, err)}
	}
	c := &refPathChecker{
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
	c.accessors, _ = pathAccessors(p, opts.BreakAccessor)
	c.rt = codegen.NewRuntime(&core.Result{
		NIC:       name,
		Control:   g.Control,
		Graph:     g,
		Paths:     paths,
		Selected:  core.Scored{Path: p},
		Config:    p.Constraints,
		Intent:    &core.Intent{Name: "diffverify"},
		Accessors: c.accessors,
	}, nil)
	return c, nil
}

// capped reports whether the optional case budget is exhausted.
func (c *refPathChecker) capped() bool {
	return c.opts.MaxCases > 0 && c.rep.Cases >= c.opts.MaxCases
}

// run sweeps the path: one all-filler baseline, a boundary battery focused
// on each emitted field, and the SoftNIC-golden packet pass.
func (c *refPathChecker) run() error {
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
func (c *refPathChecker) runGolden() error {
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

// fillerVals builds a deterministic full environment: every leaf gets a
// seeded splitmix value masked to its width, then the pins overlay.
func (c *refPathChecker) fillerVals(seed uint64) map[string]uint64 {
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
func (c *refPathChecker) env(vals map[string]uint64) sema.MapEnv {
	env := make(sema.MapEnv, len(c.leaves))
	for _, l := range c.leaves {
		env[l.name] = sema.UintValue(vals[l.name]&widthMask(l.width), l.width)
	}
	return env
}

// refStaticImage serializes view A: each layout field's value written at its
// statically computed offset (fields beyond 64 bits stay zero, as in the
// device serializer).
func refStaticImage(p *core.Path, vals map[string]uint64) []byte {
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
func (c *refPathChecker) checkCase(vals map[string]uint64) error {
	img := refStaticImage(c.p, vals)
	c.checkInterp(img, vals)
	c.checkAccessors(img, vals)
	return c.checkWalk(img, vals)
}

// checkInterp re-extracts the static image through the synthesized per-path
// parser and compares every field value, the consumed bit count, and the
// accept verdict against the static view.
func (c *refPathChecker) checkInterp(img []byte, vals map[string]uint64) {
	if c.ip == nil {
		return
	}
	res, err := c.ip.parser.Run(img, nil)
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
		got := res.Values[fmt.Sprintf("hdr.f%d", i)]
		c.rep.Checks++
		if got != want {
			c.fail("interp", i, img, vals, want, got, "")
		}
	}
}

// checkAccessors reads every synthesized hardware accessor off the static
// image and compares against the environment value (view D).
func (c *refPathChecker) checkAccessors(img []byte, vals map[string]uint64) {
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
func (c *refPathChecker) checkWalk(img []byte, vals map[string]uint64) error {
	var w walker
	if err := w.serialize(c.g, c.env(vals)); err != nil {
		// The walk cannot evaluate a discriminant (opaque condition over
		// values outside the environment): not verifiable, not a bug.
		return &RejectedError{Reason: fmt.Sprintf("path %d walk: %v", c.p.ID, err)}
	}
	fields, wimg := w.fields, w.img
	qi := matchPath(c.paths, fields)
	c.rep.Checks++
	if qi < 0 {
		c.fail("layout", 0, wimg, vals, 0, 0,
			fmt.Sprintf("walked layout (%d fields, %d bits) matches no enumerated path",
				len(fields), sizeBitsOf(fields)))
		return nil
	}
	q, qimg := c.paths[qi], img
	if q.ID != c.p.ID {
		// Underdetermined environment (multi-valued or opaque discriminant):
		// the walk took a sibling path. Verify it there and count the skip.
		c.rep.Skipped++
		qimg = refStaticImage(q, vals)
	}
	if !bytes.Equal(wimg, qimg) {
		f := firstImageDiff(q, wimg, qimg)
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

func (c *refPathChecker) fieldIndex(lf *core.LayoutField) int {
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
func (c *refPathChecker) fail(view string, fi int, img []byte, vals map[string]uint64, want, got uint64, detail string) {
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
		img = refStaticImage(c.p, min)
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
func (c *refPathChecker) reproduce(view string, fi int, vals map[string]uint64) (uint64, bool) {
	f := c.p.Fields[fi]
	if f.WidthBits > 64 {
		return 0, false
	}
	img := refStaticImage(c.p, vals)
	want := vals[f.Name] & widthMask(f.WidthBits)
	switch view {
	case "interp":
		if c.ip == nil {
			return 0, false
		}
		res, err := c.ip.parser.Run(img, nil)
		if err != nil || !res.Accepted {
			return 0, false
		}
		got := res.Values[fmt.Sprintf("hdr.f%d", fi)]
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

// sameOutcome fails the test unless the slot checker and the reference
// produced the same report (every count, every Disagreement field, the
// minimised images byte for byte) or the same refusal.
func sameOutcome(t *testing.T, what string, got *Report, gotErr error, want *Report, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: report diverges from the reference\n got: %s\nwant: %s", what, got, want)
	}
}

// TestMatchesReference: on the six bundled NICs the slot-indexed checker and
// the map-based reference yield identical reports — exhaustive, under the
// accessor ablation (sixteen minimised reproducers each), under case caps
// that cut a path mid-battery, and with a longer golden pass.
func TestMatchesReference(t *testing.T) {
	for _, m := range nic.All() {
		for _, opts := range []Options{
			{},
			{BreakAccessor: true},
			{MaxCases: 1},
			{MaxCases: 23},
			{MaxCases: 23, BreakAccessor: true},
			{Packets: 9},
		} {
			got, gotErr := VerifyModel(m, opts)
			want, wantErr := refVerify(m.Name, m.Info, opts)
			sameOutcome(t, fmt.Sprintf("%s %+v", m.Name, opts), got, gotErr, want, wantErr)
		}
		if rep, _ := VerifyModel(m, Options{BreakAccessor: true}); len(rep.Disagreements) == 0 || len(rep.Disagreements[0].Image) == 0 {
			t.Errorf("%s: ablation run compared no reproducer image", m.Name)
		}
	}
}

// TestMatchesReferenceOnMutants: the same, over the seed-1 sweep's mutants —
// descriptions with reordered, resized, duplicated and re-nested fields,
// most of which neither checker was written against.
func TestMatchesReferenceOnMutants(t *testing.T) {
	const perNIC = 32
	verified := 0
	for _, m := range nic.All() {
		r := &mrand{s: 1}
		for i := 0; i < perNIC; i++ {
			seed := r.next()
			src, ops, err := Mutate(m.Source, seed)
			if err != nil {
				continue
			}
			got, gotErr := VerifySource(m.Name, src, Options{})
			var want *Report
			info, wantErr := sourceInfo(m.Name, src)
			if wantErr == nil {
				want, wantErr = refVerify(m.Name, info, Options{})
			}
			sameOutcome(t, fmt.Sprintf("%s seed %#x ops %s", m.Name, seed, ops), got, gotErr, want, wantErr)
			if gotErr == nil {
				verified++
			}
		}
	}
	if verified < perNIC {
		t.Errorf("only %d mutants reached the checkers", verified)
	}
}

// TestDisagreementSurvivesBufferReuse: a recorded Disagreement owns its
// image and values — minimised or not, nothing in it aliases the buffers
// later cases overwrite.
func TestDisagreementSurvivesBufferReuse(t *testing.T) {
	m := nic.MustLoad("e1000e")
	a, err := core.Analyze(m.Info, core.EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{NIC: m.Name, Paths: len(a.Paths)}
	ck, err := newChecker(m.Name, a.Graph, a.Paths, Options{BreakAccessor: true}, rep)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := ck.bindPath(0, a.Paths[0])
	if err != nil {
		t.Fatal(err)
	}
	pc.fill(1)
	pc.applyPins()
	if err := pc.checkCase(); err != nil { // the ablation: a minimised reproducer
		t.Fatal(err)
	}
	// Two failures that do not reproduce under the minimal environment keep
	// the case's own images: the static one and the walked one.
	pc.fail("interp", 0, pc.img, 1, 2, "forced")
	pc.fail("layout", 0, pc.walk.img, 3, 4, "forced")
	if len(rep.Disagreements) != 3 {
		t.Fatalf("%d disagreements recorded, want 3", len(rep.Disagreements))
	}
	var before []Disagreement
	for _, d := range rep.Disagreements {
		cp := *d
		cp.Image = bytes.Clone(d.Image)
		cp.Constraints = append([]string(nil), d.Constraints...)
		before = append(before, cp)
		if len(d.Image) == 0 || bytes.Equal(d.Image, make([]byte, len(d.Image))) {
			t.Fatalf("reproducer image is empty or all zero: %s", d)
		}
	}
	for i, p := range a.Paths {
		pc, err := ck.bindPath(i, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := pc.run(); err != nil {
			t.Fatal(err)
		}
	}
	if rep.Cases < len(a.Paths) {
		t.Fatalf("only %d cases ran after the snapshot", rep.Cases)
	}
	for i, want := range before {
		if got := *rep.Disagreements[i]; !reflect.DeepEqual(got, want) {
			t.Errorf("disagreement %d changed after later cases:\n got: %s\nwant: %s", i, &got, &want)
		}
	}
}
