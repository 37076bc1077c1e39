package codegen

// This file exports test-only accessors to the external codegen_test package.

// Coverage reports how much of the completion record the validator can
// vouch for.
type Coverage struct {
	// TotalBits is the record size in bits.
	TotalBits int
	// StructuralBits are covered by the always-on tiers (pads, slack,
	// discriminants, device-state constants).
	StructuralBits int
	// DeepBits are covered only when the deep tier runs.
	DeepBits int
	// Uncovered lists layout fields no check can vouch for (skipped
	// semantics, or value fields with no reference implementation).
	Uncovered []string
}

// Coverage returns the validator's bit-coverage accounting.
func (v *Validator) Coverage() Coverage {
	return Coverage{
		TotalBits:      v.totalBits,
		StructuralBits: v.structuralBits,
		DeepBits:       v.deepBits,
		Uncovered:      append([]string(nil), v.uncovered...),
	}
}
