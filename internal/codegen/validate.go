package codegen

import (
	"fmt"

	"opendesc/internal/bitfield"
	"opendesc/internal/core"
	"opendesc/internal/semantics"
)

// This file synthesizes a completion-record *validator* from the same
// compilation result the accessors are generated from. A real device may
// violate its declared contract (bit-flipped DMA, torn writes, stale
// replays); because OpenDesc knows the exact layout the configuration
// selects, the host can mechanically check every bit of a record before
// trusting it:
//
//   - discriminant fields — layout fields that mirror a context register
//     (e.g. a format selector) must carry exactly the value ApplyConfig
//     programmed, recomputed here via core.ConfigAssignment;
//   - pads and reserved fields (no semantic tag) must be zero, as must the
//     slack bits between the end of the layout and the byte boundary;
//   - device-state fields whose value is fixed by the driver's configuration
//     (queue id, mark, …) must carry that constant;
//   - value fields can be *deeply* checked by recomputing the semantic from
//     the raw packet with the SoftNIC reference functions and comparing,
//     masked to the field width.
//
// The structural tiers are O(#fields) bit reads per record and are meant to
// stay enabled in production; the deep tier re-runs the software path per
// packet and is switched on for fault-hunting runs (and the E16 experiment).

// ViolationKind classifies why a completion record was rejected.
type ViolationKind int

const (
	// ViolationShort: the record is smaller than the layout requires.
	ViolationShort ViolationKind = iota
	// ViolationPad: a reserved/pad field or slack bit range is non-zero.
	ViolationPad
	// ViolationDiscriminant: a context-register field does not match the
	// programmed configuration.
	ViolationDiscriminant
	// ViolationConst: a device-state field does not match its configured
	// constant.
	ViolationConst
	// ViolationValue: deep check — a packet-derived field does not match the
	// value recomputed from the raw packet.
	ViolationValue
)

var violationNames = map[ViolationKind]string{
	ViolationShort: "short", ViolationPad: "pad",
	ViolationDiscriminant: "discriminant", ViolationConst: "const",
	ViolationValue: "value",
}

func (k ViolationKind) String() string { return violationNames[k] }

// Violation describes the first check a completion record failed.
type Violation struct {
	Kind     ViolationKind
	Field    string // layout field name ("(slack)" for trailing bits)
	Semantic semantics.Name
	Want     uint64
	Got      uint64
}

func (v *Violation) Error() string {
	return fmt.Sprintf("completion %s violation at %s: got %#x, want %#x", v.Kind, v.Field, v.Got, v.Want)
}

// ValidatorOptions selects the validation tiers.
type ValidatorOptions struct {
	// Deep enables the per-packet conformance tier: packet-derived fields are
	// recomputed with Soft and compared. Structural tiers are always on.
	Deep bool
	// Soft supplies the reference implementations for the deep tier
	// (typically softnic.Funcs()).
	Soft map[semantics.Name]SoftFunc
	// Consts pins device-state semantics to the constants the driver
	// configured (queue id, mark, crypto ctx, …); those fields are checked
	// structurally even when Deep is off.
	Consts map[semantics.Name]uint64
}

// fieldCheck is one precompiled per-field check.
type fieldCheck struct {
	name  string
	sem   semantics.Name
	off   int
	width int
	kind  ViolationKind
	want  uint64   // pad/discriminant/const expectation
	soft  SoftFunc // deep recomputation
	mask  uint64
}

// Validator checks completion records against the compiled contract.
type Validator struct {
	res      *core.Result
	recBytes int
	checks   []fieldCheck
	deep     bool

	// Bit-coverage accounting, which the tests assert through Coverage.
	structuralBits int
	deepBits       int
	totalBits      int
	uncovered      []string
}

// NewValidator compiles the check table for a compilation result.
func NewValidator(res *core.Result, opts ValidatorOptions) (*Validator, error) {
	assign, err := core.ConfigAssignment(res.Config)
	if err != nil {
		return nil, fmt.Errorf("codegen: validator: %w", err)
	}
	path := res.Selected.Path
	v := &Validator{
		res:      res,
		recBytes: res.CompletionBytes(),
		deep:     opts.Deep,
	}
	v.totalBits = v.recBytes * 8
	for _, f := range path.Fields {
		mask := ^uint64(0)
		if f.WidthBits < 64 {
			mask = (uint64(1) << f.WidthBits) - 1
		}
		c := fieldCheck{name: f.Name, sem: f.Semantic, off: f.OffsetBits, width: f.WidthBits, mask: mask}
		if reg, isDiscriminant := assign[f.Name]; isDiscriminant {
			c.kind = ViolationDiscriminant
			c.want = reg & mask
			v.structuralBits += f.WidthBits
		} else if f.Semantic == "" {
			c.kind = ViolationPad
			v.structuralBits += f.WidthBits
		} else if f.Semantic == semantics.Timestamp { // no host-side check can predict it
			v.uncovered = append(v.uncovered, f.Name)
			continue
		} else if konst, isConst := opts.Consts[f.Semantic]; isConst {
			c.kind = ViolationConst
			c.want = konst & mask
			v.structuralBits += f.WidthBits
		} else if soft := opts.Soft[f.Semantic]; soft != nil {
			c.kind = ViolationValue
			c.soft = soft
			v.deepBits += f.WidthBits
		} else {
			v.uncovered = append(v.uncovered, f.Name)
			continue
		}
		v.checks = append(v.checks, c)
	}
	// The slack bits between the end of the layout and the record's byte
	// boundary are never written by the deparser; a flip there is detectable.
	if slack := v.recBytes*8 - path.SizeBits(); slack > 0 {
		v.checks = append(v.checks, fieldCheck{
			name: "(slack)", off: path.SizeBits(), width: slack, kind: ViolationPad,
		})
		v.structuralBits += slack
	}
	return v, nil
}

// Check validates one completion record against the packet it should
// describe. It returns nil for a conforming record, or the first violation.
// The deep tier runs only when the validator was built with Deep. Check is a
// pure function; whoever calls it records the verdict.
func (v *Validator) Check(rec, packet []byte) *Violation {
	i, want, got := v.check(rec, packet, v.deep)
	switch {
	case i == len(v.checks):
		return nil
	case i < 0:
		return &Violation{Kind: ViolationShort, Field: "(record)", Want: uint64(v.recBytes), Got: uint64(len(rec))}
	}
	c := &v.checks[i]
	return &Violation{Kind: c.kind, Field: c.name, Semantic: c.sem, Want: want, Got: got}
}

// Conforms reports whether rec fully describes packet, with the deep tier
// forced on regardless of options. The hardened driver uses it to classify
// rejected records during resynchronization (is this stale record the
// completion of an *earlier* packet?), up to deliveredDepth candidates per
// record, so a mismatch builds no Violation.
func (v *Validator) Conforms(rec, packet []byte) bool {
	i, _, _ := v.check(rec, packet, true)
	return i == len(v.checks)
}

// check runs the checks in order and returns the index of the first that rec
// fails, with the value it wanted and the value it read: −1 for a record
// shorter than the layout, len(v.checks) for a conforming one.
func (v *Validator) check(rec, packet []byte, deep bool) (i int, want, got uint64) {
	if len(rec) < v.recBytes {
		return -1, 0, 0
	}
	for i = range v.checks {
		c := &v.checks[i]
		switch c.kind {
		case ViolationValue:
			if !deep {
				continue
			}
			want := c.soft(packet) & c.mask
			if got := bitfield.Read(rec, c.off, c.width); got != want {
				return i, want, got
			}
		default:
			if c.width > 64 {
				// Wide pads are checked in 64-bit chunks (always want == 0).
				for off := c.off; off < c.off+c.width; off += 64 {
					w := c.off + c.width - off
					if w > 64 {
						w = 64
					}
					if got := bitfield.Read(rec, off, w); got != 0 {
						return i, 0, got
					}
				}
				continue
			}
			if got := bitfield.Read(rec, c.off, c.width); got != c.want {
				return i, c.want, got
			}
		}
	}
	return len(v.checks), 0, 0
}

// NewSoftRuntime builds an accessor table that serves *every* semantic from
// the software reference implementations, ignoring hardware placements —
// the degraded-mode runtime a hardened driver swaps in when it stops
// trusting the device (Meta.Hardware() reports false for all fields).
func NewSoftRuntime(res *core.Result, softImpls map[semantics.Name]SoftFunc) *Runtime {
	return newRuntime(res, softImpls, true)
}
