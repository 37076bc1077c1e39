package diffverify

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"opendesc/internal/bitfield"
	"opendesc/internal/codegen"
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/p4/interp"
	"opendesc/internal/p4/sema"
	"opendesc/internal/semantics"
	"opendesc/internal/softnic"
)

// refVerify is VerifyModel over the reference checker.
func refVerify(m *nic.Model, opts Options) (*Report, error) {
	name := m.Name
	g, paths, err := enumerate(m, opts)
	if err != nil {
		return nil, err
	}
	dp, err := interp.NewDeparser(g.Info(), g.Instance())
	if err != nil {
		return nil, &RejectedError{Reason: err.Error()}
	}
	rep := &Report{NIC: name, Paths: len(paths)}
	leaves := refLeaves(g)
	golden := softnic.Funcs()
	for _, p := range paths {
		pc, err := newRefPathChecker(name, g, dp, paths, p, leaves, golden, opts, rep)
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

// refLeaf is one fixed-width leaf field of at most 64 bits under a
// composite deparser parameter, found by the reference's own walk of the
// parameters' types.
type refLeaf struct {
	name   string
	width  int
	isBool bool
}

// refLeaves walks every composite deparser parameter, nested composites in
// place.
func refLeaves(g *core.Graph) []refLeaf {
	var out []refLeaf
	var walk func(prefix string, ct *sema.CompositeType)
	walk = func(prefix string, ct *sema.CompositeType) {
		for _, f := range ct.Fields {
			name := prefix + "." + f.Name
			if nested, ok := f.Type.(*sema.CompositeType); ok {
				walk(name, nested)
				continue
			}
			if w := f.Type.BitWidth(); w > 0 && w <= 64 {
				_, isBool := f.Type.(*sema.BoolType)
				out = append(out, refLeaf{name: name, width: w, isBool: isBool})
			}
		}
	}
	for _, p := range g.Instance().Params {
		if ct, ok := p.Type.(*sema.CompositeType); ok {
			walk(p.Name, ct)
		}
	}
	return out
}

// refPathChecker is the harness's checker as it stood before the slot
// environment: every case builds a map[string]uint64 of values and a
// sema.MapEnv from it, every view looks its fields up by name, and nothing
// is reused between cases. It is kept as the oracle the slot-indexed checker
// must agree with report for report, and changes only where the harness's
// views do.
type refPathChecker struct {
	name   string
	g      *core.Graph
	dp     *interp.Deparser
	paths  []*core.Path
	p      *core.Path
	leaves []refLeaf
	golden map[semantics.Name]codegen.SoftFunc
	opts   Options
	rep    *Report

	// uniq is the path's emitted ≤64-bit leaf set (first occurrence order);
	// fields may repeat in the layout (duplicate emits) but share one value.
	uniq []refLeaf
	// pins is the context assignment selecting this path.
	pins map[string]uint64
	// rt reads the record through per-path generated accessors.
	rt        *codegen.Runtime
	accessors []core.Accessor
}

func newRefPathChecker(name string, g *core.Graph, dp *interp.Deparser, paths []*core.Path, p *core.Path,
	leaves []refLeaf, golden map[semantics.Name]codegen.SoftFunc, opts Options, rep *Report) (*refPathChecker, error) {
	pins, err := core.ConfigAssignment(p.Constraints)
	if err != nil {
		return nil, &RejectedError{Reason: fmt.Sprintf("path %d: %v", p.ID, err)}
	}
	c := &refPathChecker{
		name: name, g: g, dp: dp, paths: paths, p: p,
		leaves: leaves, golden: golden, opts: opts, rep: rep,
		pins: pins,
	}
	seen := make(map[string]bool)
	for _, f := range p.Fields {
		if f.WidthBits > 64 || seen[f.Name] {
			continue
		}
		seen[f.Name] = true
		c.uniq = append(c.uniq, refLeaf{name: f.Name, width: f.WidthBits})
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
			if err := c.checkCase(vals, f.name); err != nil {
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
		var focus []string
		for _, f := range c.p.Fields {
			if f.Semantic == "" || f.WidthBits > 64 {
				continue
			}
			if fn := c.golden[f.Semantic]; fn != nil {
				vals[f.Name] = fn(packet)
				focus = append(focus, f.Name)
			}
		}
		for k, v := range c.pins {
			vals[k] = v
		}
		if err := c.checkCase(vals, focus...); err != nil {
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

// env converts a value map into the environment the interpreter sees: each
// leaf masked to its declared width, a bool leaf as a bool.
func (c *refPathChecker) env(vals map[string]uint64) sema.MapEnv {
	env := make(sema.MapEnv, len(c.leaves))
	for _, l := range c.leaves {
		env[l.name] = sema.UintValue(vals[l.name]&widthMask(l.width), l.width)
		if l.isBool {
			env[l.name] = sema.BoolValue(vals[l.name]&1 != 0)
		}
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

// checkCase runs all three views under one environment. While the
// interpreted record belongs to a sibling path, up to redraws times, every
// leaf neither pinned nor in focus is drawn again (redrawValue).
func (c *refPathChecker) checkCase(vals map[string]uint64, focus ...string) error {
	rec, qi, err := c.interpret(vals)
	for r := 0; err == nil && qi >= 0 && c.paths[qi].ID != c.p.ID && r < redraws; r++ {
		for i, l := range c.leaves {
			if _, pinned := c.pins[l.name]; !pinned && !slices.Contains(focus, l.name) {
				vals[l.name] = redrawValue(r, i, l.width, c.p.ID, c.rep.Cases)
			}
		}
		rec, qi, err = c.interpret(vals)
	}
	if err != nil {
		return err
	}
	img := refStaticImage(c.p, vals)
	c.checkAccessors(img, vals)
	c.checkDeparser(img, vals, rec, qi)
	return nil
}

// interpret runs the deparser under the environment (view B) and finds the
// enumerated path its record belongs to.
func (c *refPathChecker) interpret(vals map[string]uint64) (*interp.Record, int, error) {
	env := c.env(vals)
	rec := new(interp.Record)
	if err := c.dp.RunInto(rec, env); err != nil {
		return nil, -1, &RejectedError{Reason: fmt.Sprintf("path %d interp: %v", c.p.ID, err)}
	}
	return rec, matchPath(c.paths, c.p, rec.Fields, env), nil
}

// checkAccessors reads every synthesized hardware accessor off the static
// image and compares against the environment value (view C).
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

// checkDeparser compares the interpreted record's layout and bytes against
// the static view of path qi, the enumerated path it belongs to.
func (c *refPathChecker) checkDeparser(img []byte, vals map[string]uint64, rec *interp.Record, qi int) {
	c.rep.Checks++
	if qi < 0 {
		c.fail("layout", 0, rec.Image, vals, 0, 0,
			fmt.Sprintf("interpreted layout (%d fields, %d bits) matches no enumerated path the environment selects",
				len(rec.Fields), rec.Bits))
		return
	}
	q, qimg := c.paths[qi], img
	if q.ID != c.p.ID {
		c.rep.Skipped++
		qimg = refStaticImage(q, vals)
	}
	if !bytes.Equal(rec.Image, qimg) {
		f := q.Fields[firstImageDiff(q, rec.Image, qimg)]
		d := &Disagreement{
			NIC:         c.name,
			PathID:      q.ID,
			Constraints: constraintStrings(q),
			View:        "interp",
			Field:       f.Name,
			Semantic:    string(f.Semantic),
			OffsetBits:  f.OffsetBits,
			WidthBits:   f.WidthBits,
			Image:       qimg,
			Want:        readField(qimg, f),
			Got:         readField(rec.Image, f),
			Detail:      "interpreted deparser record diverges from static layout",
		}
		c.rep.Disagreements = append(c.rep.Disagreements, d)
	}
}

func (c *refPathChecker) fieldIndex(lf *core.LayoutField) int {
	for i := range c.p.Fields {
		if &c.p.Fields[i] == lf {
			return i
		}
	}
	return 0
}

// fail records a disagreement for field index fi. An accessor failure is
// first shrunk to the minimal environment that still reproduces it:
// everything zero except the failing field and the pinned discriminants.
func (c *refPathChecker) fail(view string, fi int, img []byte, vals map[string]uint64, want, got uint64, detail string) {
	var f core.LayoutField
	if fi < len(c.p.Fields) {
		f = c.p.Fields[fi]
	}
	if view == "accessor" {
		min := make(map[string]uint64, len(c.pins)+1)
		for _, l := range c.leaves {
			min[l.name] = 0
		}
		for k, v := range c.pins {
			min[k] = v
		}
		min[f.Name] = vals[f.Name]
		r := c.rt.Reader(f.Semantic)
		mimg := refStaticImage(c.p, min)
		if mgot := r.Read(mimg, nil); mgot != min[f.Name]&widthMask(f.WidthBits) {
			img, want, got = mimg, min[f.Name]&widthMask(f.WidthBits), mgot
		}
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

// fresh is a model nic.Parse builds from src, with an analysis of its own.
func fresh(t *testing.T, file, src string) *nic.Model {
	t.Helper()
	m, err := nic.Parse(file, src)
	if err != nil {
		t.Fatal(err)
	}
	return m
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
			want, wantErr := refVerify(fresh(t, m.Name+".p4", m.Source), opts)
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
			got, gotErr := VerifyModel(fresh(t, m.Name+".p4", src), Options{})
			want, wantErr := refVerify(fresh(t, m.Name+".p4", src), Options{})
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
	a, err := m.Analysis(core.EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{NIC: m.Name, Paths: len(a.Paths)}
	ck, err := newChecker(m.Name, a.Graph, a.Paths, Options{BreakAccessor: true}, rep)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := ck.bindPath(a.Paths[0])
	if err != nil {
		t.Fatal(err)
	}
	pc.fill(1)
	pc.applyPins()
	if err := pc.checkCase(); err != nil { // the ablation: a minimised reproducer
		t.Fatal(err)
	}
	// Two failures the harness does not minimise keep the case's own
	// images: the static one and the interpreted one.
	pc.fail(pc.p, "interp", 0, pc.img, 1, 2, "forced")
	pc.fail(pc.p, "layout", 0, pc.rec.Image, 3, 4, "forced")
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
	for _, p := range a.Paths {
		pc, err := ck.bindPath(p)
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
