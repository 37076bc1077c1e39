package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"

	"opendesc/internal/perf"
)

// suite is one invocation: which workloads, which passes, how many times.
type suite struct {
	cfg      config
	selected []*workloadDef
	endToEnd bool
	traced   bool
	traceOut string
	repeat   int

	// e2e[i] are the end-to-end results of workload i, one per repetition;
	// layers[i] its traced-pass result.
	e2e    [][]*measured
	layers []*measured
	failed bool
}

func (s *suite) run() int {
	fmt.Printf("benchmark: seed %d, window %.2fs, %d workload(s), GOMAXPROCS %d\n",
		s.cfg.seed, float64(s.cfg.windowNs)/1e9, len(s.selected), runtime.GOMAXPROCS(0))
	s.e2e = make([][]*measured, len(s.selected))
	s.layers = make([]*measured, len(s.selected))
	var traceFile *os.File
	if s.traced && s.traceOut != "" {
		f, err := os.Create(s.traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		traceFile = f
		fmt.Fprint(f, "[\n")
	}
	for i, w := range s.selected {
		for rep := 0; s.endToEnd && rep < s.repeat; rep++ {
			m := s.guard(w, func() (*measured, error) {
				p, err := runPass(w, s.cfg)
				if err != nil {
					return nil, err
				}
				return endToEndMetrics(p), nil
			})
			s.e2e[i] = append(s.e2e[i], m)
			s.print(m, endToEnd, fmt.Sprintf("end to end, tracing off, run %d of %d", rep+1, s.repeat))
		}
		if s.traced {
			var spans []span
			m := s.guard(w, func() (*measured, error) {
				m, sp, err := tracedPass(w, s.cfg)
				spans = sp
				return m, err
			})
			s.layers[i] = m
			s.print(m, perLayer, "per layer, traced pass")
			if traceFile != nil {
				if err := writeChromeTrace(traceFile, i, w.name, spans, i == 0); err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					s.failed = true
				}
			}
		}
	}
	if traceFile != nil {
		fmt.Fprint(traceFile, "\n]\n")
		if err := traceFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			s.failed = true
		}
	}
	if s.repeat > 1 && !s.spreadTable() {
		s.failed = true
	}
	if s.failed {
		return 1
	}
	return 0
}

// guard runs one pass and turns an error into a failed result, so the suite
// reports every workload before it exits non-zero.
func (s *suite) guard(w *workloadDef, pass func() (*measured, error)) *measured {
	m, err := pass()
	if err != nil {
		m = &measured{Workload: w.name, Attempted: 1, Failed: 1, Metrics: map[string]float64{}}
		m.problemf("%v", err)
	}
	if !m.correct() {
		s.failed = true
	}
	return m
}

// print lists every metric of defs by name and unit, then the detail lines.
func (s *suite) print(m *measured, defs []metricDef, title string) {
	fmt.Printf("\n== %s (%s) ==\n", m.Workload, title)
	for _, d := range defs {
		if v, ok := m.Metrics[d.Name]; ok {
			fmt.Printf("  %-32s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}
	fmt.Printf("  %-32s %16d of %d (fail_frac %.6f)\n", "failed", m.Failed, m.Attempted, float64(m.Failed)/float64(max(m.Attempted, 1)))
	for _, l := range m.Detail {
		fmt.Println("  " + l)
	}
	for _, l := range m.Warnings {
		fmt.Println("  WARNING: " + l)
	}
	for _, l := range m.Problems {
		fmt.Println("  FAILED: " + l)
	}
}

// spreadTable prints, per workload × end-to-end metric, the median, the
// quartiles and the run-to-run spread against the metric's bound, and
// reports whether every gated spread held. The spread is the interquartile
// distance over the median from four runs up (the rule the PR gate applies),
// the full range over the median below that. setup_s is listed but not
// gated: it is a handful of milliseconds of mostly one-off work.
func (s *suite) spreadTable() bool {
	ok := true
	fmt.Printf("\n== run-to-run spread over %d runs ==\n", s.repeat)
	fmt.Printf("  %-14s %-18s %14s %14s %14s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for i, w := range s.selected {
		for _, d := range endToEnd {
			var xs []float64
			for _, m := range s.e2e[i] {
				if v, found := m.Metrics[d.Name]; found {
					xs = append(xs, v)
				}
			}
			if len(xs) == 0 {
				continue
			}
			q1, med, q3, spread := quartileSpread(xs)
			if len(xs) < 4 && med != 0 {
				q1, q3 = slices.Min(xs), slices.Max(xs)
				spread = (q3 - q1) / math.Abs(med)
			}
			verdict := ""
			if spread > d.Bound && d.Name != "setup_s" {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Printf("  %-14s %-18s %14.4f %14.4f %14.4f %7.2f%% %5.0f%%%s\n", w.name, d.Name, q1, med, q3, 100*spread, 100*d.Bound, verdict)
		}
	}
	return ok
}

// metricValue is one metric of the machine-readable result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output when one workload ran one
// pass: exactly these keys, every metric of that pass.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// suiteLine is the last line otherwise: the same fields over every workload
// (metrics prefixed with the workload's name), and the claim this benchmark
// run makes about performance — none; it only measures.
type suiteLine struct {
	contractLine
	Claim *string `json:"claim"`
}

func (s *suite) resultLine() any {
	line := contractLine{Correct: !s.failed, Metrics: map[string]metricValue{}}
	single := len(s.selected) == 1 && s.endToEnd != s.traced && s.repeat == 1
	add := func(m *measured, defs []metricDef) {
		if m == nil {
			return
		}
		line.Attempted += m.Attempted
		line.Failed += m.Failed
		for _, d := range defs {
			name := d.Name
			if !single {
				name = m.Workload + ":" + name
			}
			line.Metrics[name] = metricValue{Value: m.Metrics[d.Name], Unit: d.Unit}
		}
	}
	for i := range s.selected {
		if n := len(s.e2e[i]); n > 0 {
			add(s.e2e[i][n-1], endToEnd)
		}
		add(s.layers[i], perLayer)
	}
	line.Attempted = max(line.Attempted, 1)
	if single {
		return line
	}
	return suiteLine{contractLine: line}
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env     perf.Env    `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Results []*measured `json:"results"`
	Claim   *string     `json:"claim"`
}

func (s *suite) writeFile(path string) error {
	rf := resultFile{Env: perf.Fingerprint(), Seed: s.cfg.seed, Seconds: float64(s.cfg.windowNs) / 1e9}
	for i := range s.selected {
		// With -repeat, the file carries each metric's median over the runs.
		if len(s.e2e[i]) > 0 {
			med := *s.e2e[i][len(s.e2e[i])-1]
			med.Metrics = map[string]float64{}
			for _, d := range endToEnd {
				var xs []float64
				for _, m := range s.e2e[i] {
					xs = append(xs, m.Metrics[d.Name])
				}
				med.Metrics[d.Name] = median(xs)
			}
			rf.Results = append(rf.Results, &med)
		}
		if s.layers[i] != nil {
			rf.Results = append(rf.Results, s.layers[i])
		}
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// comparable lists the ways two result files' environments differ. The
// commit is not part of the comparison: comparing commits is the point.
func comparable(a, b *resultFile) []string {
	var diffs []string
	check := func(field string, x, y any) {
		if x != y {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", field, x, y))
		}
	}
	check("cpu model", a.Env.CPUModel, b.Env.CPUModel)
	check("nproc", a.Env.NumCPU, b.Env.NumCPU)
	check("GOMAXPROCS", a.Env.GOMAXPROCS, b.Env.GOMAXPROCS)
	check("go version", a.Env.GoVersion, b.Env.GoVersion)
	check("os/arch", a.Env.GOOS+"/"+a.Env.GOARCH, b.Env.GOOS+"/"+b.Env.GOARCH)
	check("window seconds", a.Seconds, b.Seconds)
	check("seed", a.Seed, b.Seed)
	return diffs
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rf := &resultFile{}
	if err := json.Unmarshal(b, rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// compareFiles prints per-row deltas between two result files. It refuses
// (exit 2) when they were not measured in the same environment with the same
// window and seed, and exits 1 when an end-to-end metric worsened by more
// than its bound.
func compareFiles(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
		return 2
	}
	a, err := readResultFile(paths[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResultFile(paths[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if diffs := comparable(a, b); len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: refusing to compare results from different environments:\n  %s\n", strings.Join(diffs, "\n  "))
		return 2
	}
	fmt.Printf("comparing %s (commit %s) with %s (commit %s)\n", paths[0], a.Env.Commit, paths[1], b.Env.Commit)
	fmt.Printf("  %-14s %-32s %16s %16s %9s %6s\n", "workload", "metric", "a", "b", "delta", "bound")
	regressed := false
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, ra := range a.Results {
			for _, rb := range b.Results {
				if ra.Workload != rb.Workload {
					continue
				}
				for _, d := range defs {
					va, okA := ra.Metrics[d.Name]
					vb, okB := rb.Metrics[d.Name]
					if !okA || !okB || (va == 0 && vb == 0) {
						continue
					}
					delta := (vb - va) / math.Abs(va)
					worse := delta
					if d.Better == higher {
						worse = -delta
					}
					verdict := ""
					if d.Bound > 0 && worse > d.Bound {
						verdict, regressed = "  REGRESSED", true
					}
					bound := "-"
					if d.Bound > 0 {
						bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
					}
					fmt.Printf("  %-14s %-32s %16.4f %16.4f %+8.2f%% %6s%s\n", ra.Workload, d.Name, va, vb, 100*delta, bound, verdict)
				}
			}
		}
	}
	if regressed {
		return 1
	}
	return 0
}
