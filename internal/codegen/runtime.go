// Package codegen synthesizes host-side accessors from an OpenDesc
// compilation result in three forms:
//
//   - an executable Runtime of constant-time Go closures (what the simulator
//     datapath and the benchmarks actually run),
//   - Go source (a standalone accessor package),
//   - C and eBPF/XDP C source, mirroring the paper's prototype which exposes
//     descriptor metadata to eBPF programs through bounded descriptor reads.
package codegen

import (
	"fmt"

	"opendesc/internal/bitfield"
	"opendesc/internal/core"
	"opendesc/internal/semantics"
)

// SoftFunc computes a semantic in software from the raw packet bytes
// (a SoftNIC shim body).
type SoftFunc func(packet []byte) uint64

// Reader is a compiled constant-time accessor over a completion record.
type Reader struct {
	Semantic   semantics.Name
	Hardware   bool
	OffsetBits int
	WidthBits  int
	// Name8 is Semantic's first 8 bytes as a little-endian word, packed when
	// the table is linked: what a flight read event carries (flight.PackName).
	Name8 uint64
	// read is non-nil for hardware accessors.
	read func(desc []byte) uint64
	// soft is non-nil for software shims.
	soft SoftFunc
}

// Read returns the metadata value: a direct bit-slice load for hardware
// accessors, the software shim otherwise.
func (r *Reader) Read(desc, packet []byte) uint64 {
	if r.Hardware {
		return r.read(desc)
	}
	if r.soft == nil {
		panic(fmt.Sprintf("codegen: software shim for %q not linked", r.Semantic))
	}
	return r.soft(packet)
}

// Runtime is the executable accessor table for one compilation result.
type Runtime struct {
	Result *core.Result
	// Readers has one accessor per intent field, in Result.Accessors order,
	// pointing into one contiguous table (about ten entries at most) that
	// Lookup scans by length, then bytes: no hashing on the per-read path.
	Readers []*Reader
	table   []Reader
	// CompletionBytes is the size of the completion record the NIC will DMA
	// under the selected configuration.
	CompletionBytes int
}

// NewRuntime builds the executable accessors for a compilation result.
// softImpls supplies SoftNIC shim bodies for the software accessors; a
// missing implementation is only an error when that accessor is actually
// invoked ("the user is responsible for providing a linkable software
// implementation").
func NewRuntime(res *core.Result, softImpls map[semantics.Name]SoftFunc) *Runtime {
	return newRuntime(res, softImpls, false)
}

// newRuntime fills the reader table; allSoft ignores the hardware placements
// (NewSoftRuntime).
func newRuntime(res *core.Result, softImpls map[semantics.Name]SoftFunc, allSoft bool) *Runtime {
	rt := &Runtime{
		Result:          res,
		Readers:         make([]*Reader, len(res.Accessors)),
		table:           make([]Reader, len(res.Accessors)),
		CompletionBytes: res.CompletionBytes(),
	}
	for i, a := range res.Accessors {
		r := &rt.table[i]
		*r = Reader{
			Semantic:   a.Semantic,
			Hardware:   a.Hardware && !allSoft,
			OffsetBits: a.OffsetBits,
			WidthBits:  a.WidthBits,
		}
		for j := 0; j < len(a.Semantic) && j < 8; j++ {
			r.Name8 |= uint64(a.Semantic[j]) << (8 * j)
		}
		if r.Hardware {
			off, w := a.OffsetBits, a.WidthBits
			if off%8 == 0 && (w == 8 || w == 16 || w == 32 || w == 64) {
				r.read = func(d []byte) uint64 { return bitfield.ReadAligned(d, off, w) }
			} else {
				r.read = func(d []byte) uint64 { return bitfield.Read(d, off, w) }
			}
		} else {
			r.soft = softImpls[a.Semantic]
		}
		rt.Readers[i] = r
	}
	return rt
}

// Linked reports whether the reader can execute: hardware accessors always
// can; software accessors need a shim body linked.
func (r *Reader) Linked() bool { return r.Hardware || r.soft != nil }

// Lookup returns the accessor for a semantic and its index in Readers, or
// (nil, -1) for a semantic outside the compiled intent. A result that lists
// a semantic twice resolves to the later accessor.
func (rt *Runtime) Lookup(s semantics.Name) (*Reader, int) {
	for i := len(rt.table) - 1; i >= 0; i-- {
		if r := &rt.table[i]; r.Semantic == s {
			return r, i
		}
	}
	return nil, -1
}

// Reader returns the accessor for a semantic, or nil.
func (rt *Runtime) Reader(s semantics.Name) *Reader {
	r, _ := rt.Lookup(s)
	return r
}

// Read is a convenience wrapper: read one semantic for a received packet.
func (rt *Runtime) Read(s semantics.Name, desc, packet []byte) (uint64, error) {
	r := rt.Reader(s)
	if r == nil {
		return 0, fmt.Errorf("codegen: no accessor for semantic %q", s)
	}
	if !r.Hardware && r.soft == nil {
		return 0, fmt.Errorf("codegen: software shim for %q not linked", s)
	}
	return r.Read(desc, packet), nil
}

// ReadAll reads every accessor into dst (keyed by semantic); used by the
// full-extraction comparison paths and tests.
func (rt *Runtime) ReadAll(desc, packet []byte, dst map[semantics.Name]uint64) {
	for _, r := range rt.Readers {
		dst[r.Semantic] = r.Read(desc, packet)
	}
}
