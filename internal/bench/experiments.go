package bench

import (
	"fmt"
	"strings"
	"time"

	"opendesc"
	"opendesc/internal/baseline"
	"opendesc/internal/core"
	"opendesc/internal/nic"
	"opendesc/internal/p4/parser"
	"opendesc/internal/p4/sema"
	"opendesc/internal/semantics"
)

// intentNames renders a semantic list compactly.
func intentNames(sems []semantics.Name) string {
	parts := make([]string, len(sems))
	for i, s := range sems {
		parts[i] = string(s)
	}
	return strings.Join(parts, "+")
}

func mustIntent(sems ...semantics.Name) *core.Intent {
	it, err := core.IntentFromSemantics(intentNames(sems), semantics.Default, sems...)
	if err != nil {
		panic(err)
	}
	return it
}

// E1PathSelection reproduces the paper's Figure 6 running example: the e1000e
// deparser CFG offers an RSS path and an ip_id+checksum path; the compiler's
// choice per requested set shows the Eq. 1 trade-off, including the headline
// case where requesting {rss, csum} selects the checksum branch because
// software RSS is cheaper than software checksum.
func E1PathSelection() (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Fig. 6 running example — path selection on e1000e",
		Note: "Req = {rss, ip_checksum} must select the csum-emitting branch:\n" +
			"w(rss)=18 < w(ip_checksum)=26, so RSS goes to software.",
		Header: []string{"requested", "selected-path", "provides", "software", "cmpt-bytes", "soft-cost", "total-cost"},
	}
	m := nic.MustLoad("e1000e")
	for _, req := range [][]semantics.Name{
		{semantics.RSS},
		{semantics.IPChecksum},
		{semantics.RSS, semantics.IPChecksum},
		{semantics.RSS, semantics.IPChecksum, semantics.VLAN, semantics.PktLen},
		{semantics.VLAN, semantics.PktLen},
	} {
		res, err := m.Compile(mustIntent(req...), core.CompileOptions{})
		if err != nil {
			return nil, err
		}
		branch := "csum"
		if res.Selected.Path.Prov().Has(semantics.RSS) {
			branch = "rss"
		}
		t.AddRow(
			intentNames(req),
			fmt.Sprintf("%d (%s)", res.Selected.Path.ID, branch),
			res.Selected.Path.Prov().String(),
			intentNames(res.Missing()),
			res.CompletionBytes(),
			res.Selected.SoftCost,
			res.Selected.Total,
		)
	}
	return t, nil
}

// standardIntents are the request mixes used by the cross-NIC experiments.
func standardIntents() []struct {
	Name string
	Sems []semantics.Name
} {
	return []struct {
		Name string
		Sems []semantics.Name
	}{
		{"basic", []semantics.Name{semantics.PktLen}},
		{"lb", []semantics.Name{semantics.RSS, semantics.PktLen}},
		{"fw", []semantics.Name{semantics.RSS, semantics.IPChecksum, semantics.L4Checksum, semantics.PktLen}},
		{"telemetry", []semantics.Name{semantics.Timestamp, semantics.RSS, semantics.PktLen}},
		{"vlan-app", []semantics.Name{semantics.VLAN, semantics.IPChecksum, semantics.PktLen}},
		{"kv-store", []semantics.Name{semantics.KVKey, semantics.RSS, semantics.PktLen}},
		{"fig1", []semantics.Name{semantics.IPChecksum, semantics.VLAN, semantics.RSS, semantics.KVKey}},
	}
}

// E2MultiNIC is the §4 prototype showcase: one application intent compiled
// against every bundled NIC, selecting the fittest interface per device and
// listing what must be recomputed in software.
func E2MultiNIC() (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "Multi-NIC selection matrix (the §4 prototype showcase)",
		Note:   "unsat = rejected: a requested semantic has no hardware path and no software fallback.",
		Header: []string{"intent", "nic", "paths", "cmpt-bytes", "hardware", "software", "config"},
	}
	for _, it := range standardIntents() {
		for _, m := range nic.All() {
			paths, err := m.Paths()
			if err != nil {
				return nil, err
			}
			res, err := m.Compile(mustIntent(it.Sems...), core.CompileOptions{})
			if err != nil {
				t.AddRow(it.Name, m.Name, len(paths), "-", "-", "-", "unsat")
				continue
			}
			var cfg []string
			for _, c := range res.Config {
				cfg = append(cfg, c.String())
			}
			cfgs := strings.Join(cfg, ",")
			if cfgs == "" {
				cfgs = "(none)"
			}
			t.AddRow(
				it.Name, m.Name, len(paths),
				res.CompletionBytes(),
				res.HardwareSet().String(),
				intentNames(res.Missing()),
				cfgs,
			)
		}
	}
	return t, nil
}

// E3Coverage quantifies the §2 claim that "the BPF accessors only cover 3 of
// the 12 metadata information available in NVIDIA Mellanox ConnectX
// descriptors": for every stack and NIC, how many of the NIC's providable
// metadata items the stack can deliver to the application.
func E3Coverage() (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "Metadata coverage per host stack (paper §2: XDP = 3/12 on ConnectX)",
		Note: "covered/providable metadata items per stack.\n" +
			"xdp: the 3 standardized accessors; skbuff: fields representable in sk_buff;\n" +
			"mbuf: static area + dynfields; opendesc: everything the description declares.",
		Header: []string{"nic", "providable", "xdp", "skbuff", "mbuf", "opendesc"},
	}
	// Semantics an sk_buff can represent (fixed struct members).
	skbuffRepresentable := semantics.NewSet(
		semantics.RSS, semantics.VLAN, semantics.Timestamp, semantics.PktLen,
		semantics.PType, semantics.Mark, semantics.QueueID, semantics.IPID,
		semantics.FlowID, semantics.TunnelID, semantics.LROSegs,
		semantics.ErrorFlags, semantics.IPChecksum, semantics.L4Checksum,
	)
	xdpSet := semantics.NewSet(baseline.XDPCoveredSemantics...)
	for _, m := range nic.All() {
		prov, err := m.ProvidableSet()
		if err != nil {
			return nil, err
		}
		total := len(prov)
		xdp := len(prov.Intersect(xdpSet))
		skb := len(prov.Intersect(skbuffRepresentable))
		// mbuf: 4 static semantics plus up to 9 dynfield slots.
		mbufStatic := len(prov.Intersect(semantics.NewSet(
			semantics.RSS, semantics.VLAN, semantics.PType, semantics.PktLen)))
		mbufDyn := total - mbufStatic
		if mbufDyn > 9 {
			mbufDyn = 9
		}
		t.AddRow(
			m.Name,
			total,
			fmt.Sprintf("%d/%d", xdp, total),
			fmt.Sprintf("%d/%d", skb, total),
			fmt.Sprintf("%d/%d", mbufStatic+mbufDyn, total),
			fmt.Sprintf("%d/%d", total, total),
		)
	}
	return t, nil
}

// E5FootprintSweep explores the Eq. 1 trade-off on mlx5: as the requested set
// grows or the DMA weight α changes, the optimum crosses over between the
// 8-byte mini CQE, the 16-byte compressed CQE and the 64-byte full CQE.
func E5FootprintSweep() (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "SoftNIC-cost vs DMA-footprint trade-off on mlx5 (Eq. 1)",
		Note: "Selected CQE format as the request grows and the DMA weight α varies.\n" +
			"Small requests fit the mini/compressed CQEs; richer requests or cheap DMA\n" +
			"(low α) push the optimum to the full 64-byte CQE.",
		Header: []string{"requested", "alpha", "selected-bytes", "soft-cost", "dma-cost", "total"},
	}
	m := nic.MustLoad("mlx5")
	reqs := [][]semantics.Name{
		{semantics.RSS},
		{semantics.RSS, semantics.PktLen},
		{semantics.RSS, semantics.VLAN, semantics.PktLen},
		{semantics.RSS, semantics.VLAN, semantics.IPChecksum, semantics.PktLen},
		{semantics.RSS, semantics.VLAN, semantics.IPChecksum, semantics.L4Checksum, semantics.FlowID, semantics.PktLen},
	}
	for _, req := range reqs {
		for _, alpha := range []float64{0.25, 1, 4, 16} {
			res, err := m.Compile(mustIntent(req...), core.CompileOptions{
				Select: core.SelectOptions{Alpha: alpha},
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(
				intentNames(req), alpha,
				res.CompletionBytes(),
				res.Selected.SoftCost,
				res.Selected.DMACost,
				res.Selected.Total,
			)
		}
	}
	return t, nil
}

// E6Unsatisfiable demonstrates program rejection: requested semantics whose
// software cost is infinite and which no completion path of the target NIC
// provides.
func E6Unsatisfiable() (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "Unsatisfiable intents are rejected (w(s)=∞ on every path)",
		Header: []string{"intent", "nic", "outcome"},
	}
	cases := []struct {
		sems []semantics.Name
		nics []string
	}{
		{[]semantics.Name{semantics.Timestamp}, []string{"e1000", "e1000e", "ixgbe", "mlx5", "qdma"}},
		{[]semantics.Name{semantics.CryptoCtx}, []string{"e1000e", "mlx5", "qdma"}},
		{[]semantics.Name{semantics.Mark, semantics.RSS}, []string{"e1000", "mlx5"}},
	}
	for _, c := range cases {
		for _, name := range c.nics {
			m := nic.MustLoad(name)
			res, err := m.Compile(mustIntent(c.sems...), core.CompileOptions{})
			switch {
			case err != nil:
				t.AddRow(intentNames(c.sems), name, "rejected: "+trimErr(err))
			default:
				t.AddRow(intentNames(c.sems), name,
					fmt.Sprintf("ok (%dB completion)", res.CompletionBytes()))
			}
		}
	}
	return t, nil
}

func trimErr(err error) string {
	s := err.Error()
	if i := strings.Index(s, "unsatisfiable"); i >= 0 {
		s = s[i:]
	}
	if len(s) > 80 {
		s = s[:77] + "..."
	}
	return s
}

// E8QDMAFormats shows the fully-programmable case: one completion layout per
// installed queue context, sized 8/16/32/64 bytes, and the compiler picking
// the smallest format satisfying each intent.
func E8QDMAFormats() (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "QDMA fully-programmable completions: format per intent",
		Note:   "The compiler picks the smallest queue format whose Prov covers the request.",
		Header: []string{"intent", "selected-bytes", "hardware", "software", "config"},
	}
	m := nic.MustLoad("qdma")
	for _, it := range standardIntents() {
		res, err := m.Compile(mustIntent(it.Sems...), core.CompileOptions{})
		if err != nil {
			t.AddRow(it.Name, "-", "-", "-", "unsat")
			continue
		}
		var cfg []string
		for _, c := range res.Config {
			cfg = append(cfg, c.String())
		}
		t.AddRow(it.Name, res.CompletionBytes(),
			res.HardwareSet().String(), intentNames(res.Missing()),
			strings.Join(cfg, ","))
	}
	return t, nil
}

// E10Stage is one separately timed piece of a compile.
type E10Stage struct {
	Name string
	Run  func() error
}

// E10Stages splits a compile at its two lines: the frontend (P4 parse +
// semantic check), the description-side analysis (core.Analyze: CFG + path
// enumeration) and the intent-side selection (Model.Compile on the cached
// analysis: Eq. 1 + accessor synthesis — what every renegotiation pays). cold
// is the whole pipeline from source text, opendesc.CompileP4: what open pays
// once.
func E10Stages(m *nic.Model, intent *core.Intent) []E10Stage {
	return []E10Stage{
		{"frontend", func() error {
			prog, err := parser.Parse(m.Name+".p4", m.Source)
			if err == nil {
				_, err = sema.Check(prog)
			}
			return err
		}},
		{"analysis", func() error { _, err := core.Analyze(m.Info, core.EnumerateOptions{}); return err }},
		{"select", func() error { _, err := m.Compile(intent, core.CompileOptions{}); return err }},
		{"cold", func() error {
			_, err := opendesc.CompileP4(m.Name, m.Source, intent, core.CompileOptions{})
			return err
		}},
	}
}

// E10CompileTime reports the E10Stages of every bundled NIC in µs.
func E10CompileTime() (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "Compiler pipeline latency per NIC",
		Note: "intent = {rss, vlan, ip_checksum, pkt_len}. cold = CompileP4 from source text\n" +
			"(frontend + analysis + selection); a renegotiation re-runs selection only.",
		Header: []string{"nic", "paths", "frontend-us", "analysis-us", "select-us", "cold-us"},
	}
	intent := mustIntent(semantics.RSS, semantics.VLAN, semantics.IPChecksum, semantics.PktLen)
	for _, m := range nic.All() {
		paths, err := m.Paths()
		if err != nil {
			return nil, err
		}
		row := []any{m.Name, len(paths)}
		for _, st := range E10Stages(m, intent) {
			const rounds = 200
			start := time.Now()
			for i := 0; i < rounds; i++ {
				if err := st.Run(); err != nil {
					return nil, err
				}
			}
			row = append(row, float64(time.Since(start).Nanoseconds())/1e3/rounds)
		}
		t.AddRow(row...)
	}
	return t, nil
}
