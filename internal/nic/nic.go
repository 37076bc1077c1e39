// Package nic bundles OpenDesc interface descriptions for four NIC families,
// mirroring the spectrum the paper discusses:
//
//   - e1000:  early Intel fixed-function NIC, a single completion layout
//     carrying the computed IP checksum;
//   - e1000e: newer Intel NIC (the paper's Fig. 6 running example) whose
//     bigger descriptor can contain the RSS hash or the checksum, but not
//     both;
//   - ixgbe:  Intel advanced descriptors with RSS/flow-director variants;
//   - mlx5:   NVIDIA ConnectX-style CQEs with 12 metadata fields and
//     compressed/mini formats;
//   - qdma:   AMD/Xilinx fully-programmable completions of 8/16/32/64 bytes,
//     one layout per installed queue context.
//
// Every model is expressed as P4 source (parsed and checked at load time), so
// the compiler and the simulator operate on exactly the declarative contract
// the paper proposes.
package nic

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"opendesc/internal/core"
	"opendesc/internal/obs"
	"opendesc/internal/p4/parser"
	"opendesc/internal/p4/sema"
	"opendesc/internal/semantics"
)

// Kind classifies how flexible a NIC's descriptor interface is.
type Kind int

// NIC flexibility classes (paper Fig. 1).
const (
	FixedFunction Kind = iota
	PartiallyProgrammable
	FullyProgrammable
)

func (k Kind) String() string {
	switch k {
	case FixedFunction:
		return "fixed-function"
	case PartiallyProgrammable:
		return "partially-programmable"
	case FullyProgrammable:
		return "fully-programmable"
	}
	return "?"
}

// Model is one OpenDesc interface description: a bundled NIC family's, or
// any other that Parse accepted.
type Model struct {
	Name        string
	Vendor      string
	Kind        Kind
	Description string
	// Source is the P4 interface description shipped with the NIC.
	Source string
	// Info is the checked program.
	Info *sema.Info
	// Pipeline describes the programmable-pipeline resources available to
	// pushed features (zero value: not programmable).
	Pipeline core.PipelineCaps

	// analyses holds the description-side half of every compile, one per
	// distinct enumeration option value, errors included. Source never
	// changes after Parse, so entries are never invalidated.
	analyses core.Memo[core.EnumerateOptions, *core.Analysis]
}

// Parse runs the P4 frontend over a description — parse, then semantic
// check — and returns it as a model named after file's base name without
// ".p4". Its errors name the stage that failed: "parse: <file>:…" or
// "sema: …". Vendor, Kind and Pipeline are left zero: only a bundled
// model's file declares them.
func Parse(file, src string) (*Model, error) {
	prog, err := parser.Parse(file, src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("sema: %w", err)
	}
	return &Model{Name: strings.TrimSuffix(filepath.Base(file), ".p4"), Source: src, Info: info}, nil
}

// Analysis returns the cached description-side half for opts, building it on
// first use.
func (m *Model) Analysis(opts core.EnumerateOptions) (*core.Analysis, error) {
	return m.analysis(opts, nil)
}

// analysis is Analysis with the cfg and paths spans recorded in tr when this
// call is the one that builds it.
func (m *Model) analysis(opts core.EnumerateOptions, tr *obs.Trace) (*core.Analysis, error) {
	return m.analyses.Get(opts, func() (*core.Analysis, error) {
		a, err := core.Analyze(m.Info, opts, tr)
		if err != nil {
			err = fmt.Errorf("opendesc %s: %w", m.Name, err)
		}
		return a, err
	})
}

// Graph returns the (lazily built, cached) completion deparser CFG.
func (m *Model) Graph() (*core.Graph, error) {
	a, err := m.Analysis(core.EnumerateOptions{})
	if err != nil {
		return nil, err
	}
	return a.Graph, nil
}

// Paths returns the enumerated completion paths.
func (m *Model) Paths() ([]*core.Path, error) {
	a, err := m.Analysis(core.EnumerateOptions{})
	if err != nil {
		return nil, err
	}
	return a.Paths, nil
}

// ProvidableSet is the union of Prov(p) over all completion paths: everything
// the NIC can deliver in hardware under some configuration.
func (m *Model) ProvidableSet() (semantics.Set, error) {
	a, err := m.Analysis(core.EnumerateOptions{})
	if err != nil {
		return nil, err
	}
	return a.Providable(), nil
}

// Compile maps an intent onto this NIC: the only compile there is. The
// description is analysed once per enumeration option value, so on a fresh
// model the first call is cold; every later call re-solves Eq. 1 and
// synthesizes accessors only.
func (m *Model) Compile(intent *core.Intent, opts core.CompileOptions) (*core.Result, error) {
	a, err := m.analysis(opts.Enumerate, opts.Trace)
	if err != nil {
		return nil, err
	}
	return a.Compile(m.Name, intent, opts)
}

// CompileJoint maps N tenant intents onto this NIC at once, solving the
// joint Eq. 1 objective for one shared device configuration (see
// (*core.Analysis).CompileJoint), on the same cached analysis as Compile.
func (m *Model) CompileJoint(tenants []core.TenantIntent, opts core.CompileOptions) (*core.JointResult, error) {
	a, err := m.analysis(opts.Enumerate, opts.Trace)
	if err != nil {
		return nil, err
	}
	return a.CompileJoint(m.Name, tenants, opts)
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]*Model)
)

// register runs Parse's frontend over a model and registers it; called from
// each NIC file's init. Panics on malformed built-in descriptions
// (programmer error).
func register(m *Model) {
	p, err := Parse(m.Name+".p4", m.Source)
	if err != nil {
		panic("nic " + m.Name + ": " + err.Error())
	}
	m.Info = p.Info
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[m.Name]; dup {
		panic("nic: duplicate model " + m.Name)
	}
	registry[m.Name] = m
}

// Load returns the named model.
func Load(name string) (*Model, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	m, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("nic: unknown model %q (have %v)", name, names())
	}
	return m, nil
}

// MustLoad panics when the model is unknown; for tests and examples.
func MustLoad(name string) *Model {
	m, err := Load(name)
	if err != nil {
		panic(err)
	}
	return m
}

// All returns every registered model sorted by name.
func All() []*Model {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]*Model, 0, len(registry))
	for _, m := range registry {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
