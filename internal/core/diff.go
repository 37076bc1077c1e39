package core

import (
	"fmt"
	"strings"

	"opendesc/internal/semantics"
)

// The paper motivates OpenDesc with interface drift: "the layout may change
// with firmware updates, product revisions, or the addition of new
// features". With a declarative contract, drift becomes mechanically
// analyzable: recompile the same intent against the new description and diff
// the accessor tables. DiffResults implements that analysis.

// ChangeKind classifies one accessor-level difference between two
// compilations of the same intent.
type ChangeKind int

// Change kinds.
const (
	// ChangeNone: identical placement.
	ChangeNone ChangeKind = iota
	// ChangeMoved: still in hardware, at a different offset — regenerated
	// accessors absorb it; hand-written code would break silently.
	ChangeMoved
	// ChangeResized: width changed.
	ChangeResized
	// ChangeToSoftware: was in hardware, now needs a software shim.
	ChangeToSoftware
	// ChangeToHardware: was software, now served by the NIC.
	ChangeToHardware
	// ChangeLost: was available, now unobtainable (compilation rejected or
	// semantic absent).
	ChangeLost
)

func (k ChangeKind) String() string {
	switch k {
	case ChangeNone:
		return "unchanged"
	case ChangeMoved:
		return "moved"
	case ChangeResized:
		return "resized"
	case ChangeToSoftware:
		return "hardware→software"
	case ChangeToHardware:
		return "software→hardware"
	case ChangeLost:
		return "lost"
	}
	return "?"
}

// Change is one accessor difference.
type Change struct {
	Semantic semantics.Name
	Kind     ChangeKind
	// Old/New describe the placements ("bits[a:b)" or "software").
	Old, New string
}

// Diff is the accessor-level comparison of two compilations.
type Diff struct {
	Changes []Change
	// CompletionBytesOld/New track the DMA footprint drift.
	CompletionBytesOld, CompletionBytesNew int
}

// Breaking reports whether any change would break an application using
// hand-written fixed offsets (anything but ChangeNone and ChangeToHardware
// breaks a hard-coded reader; regenerated accessors only break on
// ChangeLost).
func (d *Diff) Breaking() bool {
	for _, c := range d.Changes {
		if c.Kind != ChangeNone {
			return true
		}
	}
	return false
}

// LostSemantics lists semantics that became unobtainable.
func (d *Diff) LostSemantics() []semantics.Name {
	var out []semantics.Name
	for _, c := range d.Changes {
		if c.Kind == ChangeLost {
			out = append(out, c.Semantic)
		}
	}
	return out
}

func placement(a *Accessor) string {
	if a == nil {
		return "absent"
	}
	if !a.Hardware {
		return "software"
	}
	return fmt.Sprintf("bits[%d:%d)", a.OffsetBits, a.OffsetBits+a.WidthBits)
}

// DiffResults compares two compilations of the same intent (typically: the
// same NIC before and after a firmware update, or two different NICs).
func DiffResults(old, new *Result) (*Diff, error) {
	if old == nil || new == nil {
		return nil, fmt.Errorf("core: DiffResults needs two results")
	}
	if !old.Intent.Req().Equal(new.Intent.Req()) {
		return nil, fmt.Errorf("core: results compile different intents (%s vs %s)",
			old.Intent.Req(), new.Intent.Req())
	}
	d := &Diff{
		CompletionBytesOld: old.CompletionBytes(),
		CompletionBytesNew: new.CompletionBytes(),
	}
	for _, f := range old.Intent.Fields {
		oa := old.Accessor(f.Semantic)
		na := new.Accessor(f.Semantic)
		c := Change{Semantic: f.Semantic, Old: placement(oa), New: placement(na)}
		switch {
		case oa == nil && na == nil:
			c.Kind = ChangeLost
		case na == nil:
			c.Kind = ChangeLost
		case oa == nil:
			c.Kind = ChangeToHardware
		case oa.Hardware && !na.Hardware:
			c.Kind = ChangeToSoftware
		case !oa.Hardware && na.Hardware:
			c.Kind = ChangeToHardware
		case !oa.Hardware && !na.Hardware:
			c.Kind = ChangeNone
		case oa.OffsetBits != na.OffsetBits && oa.WidthBits != na.WidthBits:
			c.Kind = ChangeResized
		case oa.WidthBits != na.WidthBits:
			c.Kind = ChangeResized
		case oa.OffsetBits != na.OffsetBits:
			c.Kind = ChangeMoved
		default:
			c.Kind = ChangeNone
		}
		d.Changes = append(d.Changes, c)
	}
	return d, nil
}

// String renders the diff as a short report.
func (d *Diff) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "completion footprint: %dB -> %dB\n", d.CompletionBytesOld, d.CompletionBytesNew)
	for _, c := range d.Changes {
		fmt.Fprintf(&sb, "  %-14s %-20s %s -> %s\n", c.Semantic, c.Kind, c.Old, c.New)
	}
	return sb.String()
}
