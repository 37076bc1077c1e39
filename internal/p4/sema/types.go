// Package sema resolves symbols, computes bit widths and field offsets, and
// extracts OpenDesc annotations (@semantic, @cost, @bind) from a parsed P4
// program.
//
// The output Info is the compiler's typed view of a NIC interface description
// or an application intent header: every header/struct is flattened into a
// list of fields with bit offsets, widths and semantic tags, and every
// constant and enum member is folded to a value.
package sema

import (
	"fmt"
	"strings"

	"opendesc/internal/p4/ast"
)

// Type is a resolved P4 type.
type Type interface {
	// BitWidth returns the serialized width in bits, or -1 if the type has no
	// fixed width (varbit) or is not serializable.
	BitWidth() int
	String() string
}

// BitType is bit<W>.
type BitType struct{ Width int }

// BitWidth implements Type.
func (t *BitType) BitWidth() int  { return t.Width }
func (t *BitType) String() string { return fmt.Sprintf("bit<%d>", t.Width) }

// IntType is int<W>.
type IntType struct{ Width int }

// BitWidth implements Type.
func (t *IntType) BitWidth() int  { return t.Width }
func (t *IntType) String() string { return fmt.Sprintf("int<%d>", t.Width) }

// BoolType is bool; it serializes as a single bit.
type BoolType struct{}

// BitWidth implements Type.
func (t *BoolType) BitWidth() int  { return 1 }
func (t *BoolType) String() string { return "bool" }

// VarbitType is varbit<Max>; it has no fixed width.
type VarbitType struct{ MaxWidth int }

// BitWidth implements Type.
func (t *VarbitType) BitWidth() int  { return -1 }
func (t *VarbitType) String() string { return fmt.Sprintf("varbit<%d>", t.MaxWidth) }

// FieldInfo is a resolved header or struct field.
type FieldInfo struct {
	Name       string
	Type       Type
	OffsetBits int // bit offset from the start of the enclosing header
	Annots     ast.Annotations
	Semantic   string  // @semantic tag, "" if untagged
	Cost       float64 // @cost(n) software-emulation cost hint, 0 if absent
}

// CompositeType is a resolved header or struct.
type CompositeType struct {
	Name     string
	IsHeader bool // header vs struct
	Fields   []*FieldInfo
	ByName   map[string]*FieldInfo
	Bits     int // total serialized width; -1 if any field is varbit
	Annots   ast.Annotations
}

// BitWidth implements Type.
func (t *CompositeType) BitWidth() int { return t.Bits }

func (t *CompositeType) String() string {
	kind := "struct"
	if t.IsHeader {
		kind = "header"
	}
	return kind + " " + t.Name
}

// Field returns the named field, or nil.
func (t *CompositeType) Field(name string) *FieldInfo { return t.ByName[name] }

// Semantics returns the set of @semantic tags carried by the composite's
// fields, in declaration order.
func (t *CompositeType) Semantics() []string {
	var out []string
	for _, f := range t.Fields {
		if f.Semantic != "" {
			out = append(out, f.Semantic)
		}
	}
	return out
}

// EnumType is a resolved enum.
type EnumType struct {
	Name    string
	Base    Type // nil for plain enums (treated as bit<32>)
	Members []string
	ByName  map[string]uint64
}

// BitWidth implements Type.
func (t *EnumType) BitWidth() int {
	if t.Base != nil {
		return t.Base.BitWidth()
	}
	return 32
}

func (t *EnumType) String() string { return "enum " + t.Name }

// ExternType marks an extern declaration; opaque.
type ExternType struct{ Name string }

// BitWidth implements Type.
func (t *ExternType) BitWidth() int  { return -1 }
func (t *ExternType) String() string { return "extern " + t.Name }

// TypeVar is an unbound template type parameter.
type TypeVar struct{ Name string }

// BitWidth implements Type.
func (t *TypeVar) BitWidth() int  { return -1 }
func (t *TypeVar) String() string { return t.Name }

// Value is a folded constant.
type Value struct {
	IsBool bool
	Bool   bool
	Uint   uint64
	Width  int // 0 if unsized
}

// String renders the value for diagnostics.
func (v Value) String() string {
	if v.IsBool {
		return fmt.Sprintf("%t", v.Bool)
	}
	if v.Width > 0 {
		return fmt.Sprintf("%dw%d", v.Width, v.Uint)
	}
	return fmt.Sprintf("%d", v.Uint)
}

// BoolValue builds a boolean constant.
func BoolValue(b bool) Value { return Value{IsBool: true, Bool: b} }

// UintValue builds an unsigned integer constant.
func UintValue(u uint64, width int) Value { return Value{Uint: u, Width: width} }

// Truthy reports the value interpreted as a condition.
func (v Value) Truthy() bool {
	if v.IsBool {
		return v.Bool
	}
	return v.Uint != 0
}

// Equal compares two constants by value (ignoring width). A bool equals no
// number: the compiler refuses a comparison between the two (core's graph
// builder types conditions).
func (v Value) Equal(o Value) bool {
	if v.IsBool != o.IsBool {
		return false
	}
	if v.IsBool {
		return v.Bool == o.Bool
	}
	return v.Uint == o.Uint
}

// Error is a semantic-analysis diagnostic.
type Error struct {
	Pos fmt.Stringer
	Msg string
}

func (e *Error) Error() string {
	if e.Pos != nil {
		return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
	}
	return e.Msg
}

// ErrorList aggregates diagnostics.
type ErrorList []*Error

func (el ErrorList) Error() string {
	switch len(el) {
	case 0:
		return "no errors"
	case 1:
		return el[0].Error()
	}
	var sb strings.Builder
	sb.WriteString(el[0].Error())
	fmt.Fprintf(&sb, " (and %d more errors)", len(el)-1)
	return sb.String()
}

// Err returns the list as an error, or nil if empty.
func (el ErrorList) Err() error {
	if len(el) == 0 {
		return nil
	}
	return el
}
