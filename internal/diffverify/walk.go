package diffverify

import (
	"fmt"

	"opendesc/internal/bitfield"
	"opendesc/internal/core"
	"opendesc/internal/p4/sema"
)

// walkStepBound bounds the CFG walk; descriptions are small DAGs, so the
// bound only catches a malformed graph.
const walkStepBound = 10000

// walker is view B of the harness: it executes the deparser CFG under a
// concrete environment and serializes the record it emits. It is
// deliberately an independent reimplementation of the device serializer's
// walk (entry to exit, evaluating each discriminant against the environment,
// appending each emit's fields at the running offset) — sharing no code with
// core.EnumeratePaths beyond the graph itself, so a bug in either side's
// offset or branch bookkeeping surfaces as a byte-level divergence.
type walker struct {
	// fields and img are the last walk's layout and record; the next walk
	// overwrites them in place.
	fields []core.LayoutField
	img    []byte
}

func (w *walker) serialize(g *core.Graph, env sema.Env) error {
	info := g.Info()
	w.fields = w.fields[:0]
	off := 0
	node := g.Entry
	for steps := 0; node.Kind != core.NodeExit; steps++ {
		if steps >= walkStepBound {
			return fmt.Errorf("walk exceeded %d steps in %s", walkStepBound, g.Control)
		}
		if node.Kind == core.NodeEmit {
			for _, f := range node.Emit.Fields {
				w.fields = append(w.fields, core.LayoutField{
					Name:       f.Name,
					Semantic:   f.Semantic,
					OffsetBits: off,
					WidthBits:  f.WidthBits,
				})
				off += f.WidthBits
			}
		}
		next, err := walkStep(node, info, env)
		if err != nil {
			return err
		}
		node = next
	}
	w.img = zeroed(w.img, (off+7)/8)
	for _, f := range w.fields {
		if f.WidthBits > 64 {
			continue
		}
		if v, ok := env.Lookup(f.Name); ok {
			bitfield.Write(w.img, f.OffsetBits, f.WidthBits, v.Uint)
		}
	}
	return nil
}

// walkStep picks the successor the environment selects.
func walkStep(n *core.Node, info *sema.Info, env sema.Env) (*core.Node, error) {
	if len(n.Succs) == 1 {
		e := n.Succs[0]
		if e.Cond == nil && len(e.CaseVals) == 0 && !e.IsDefault {
			return e.To, nil
		}
	}
	switch n.Kind {
	case core.NodeBranch:
		v, err := info.Eval(n.Cond, env)
		if err != nil {
			return nil, fmt.Errorf("branch condition: %v", err)
		}
		for _, e := range n.Succs {
			if v.Truthy() != e.Negate {
				return e.To, nil
			}
		}
		return nil, fmt.Errorf("branch node %d: no edge taken", n.ID)
	case core.NodeSwitch:
		tag, err := info.Eval(n.Tag, env)
		if err != nil {
			return nil, fmt.Errorf("switch tag: %v", err)
		}
		var def *core.Edge
		for _, e := range n.Succs {
			if e.IsDefault {
				def = e
				continue
			}
			for _, cv := range e.CaseVals {
				if cv.Equal(tag) {
					return e.To, nil
				}
			}
		}
		if def != nil {
			return def.To, nil
		}
		return nil, fmt.Errorf("switch node %d: no case matches %s and no default", n.ID, tag)
	}
	if len(n.Succs) > 0 {
		return n.Succs[0].To, nil
	}
	return nil, fmt.Errorf("node %d (%s): dead end", n.ID, n.Kind)
}
