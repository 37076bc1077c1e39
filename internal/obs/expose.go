package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
)

// Table renders every registered metric as an aligned human-readable table
// (the `ethtool -S`-style dump behind `opendesc run -stats`).
func (r *Registry) Table() string {
	ms := r.snapshot()
	var sb strings.Builder
	width := 0
	rows := make([][2]string, 0, len(ms))
	for _, m := range ms {
		name := m.name + labelString(m.labels)
		var val string
		if m.kind == kindHistogram {
			s := m.h.Snapshot()
			val = fmt.Sprintf("count=%d sum=%d p50=%d p90=%d p99=%d",
				s.Count, s.Sum, m.h.Quantile(0.50), m.h.Quantile(0.90), m.h.Quantile(0.99))
		} else if m.kind == kindGauge {
			val = fmt.Sprintf("%d (max %d)", m.g.Load(), m.g.Max())
		} else {
			val = formatValue(m.value())
		}
		if len(name) > width {
			width = len(name)
		}
		rows = append(rows, [2]string{name, val})
	}
	for _, row := range rows {
		fmt.Fprintf(&sb, "%-*s  %s\n", width, row[0], row[1])
	}
	return sb.String()
}

// formatValue prints integers without a decimal point.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus writes the registry in Prometheus text exposition format
// (version 0.0.4): one # HELP/# TYPE block per metric name, histograms as
// cumulative _bucket{le=...} series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) {
	ms := r.sortedByName()
	lastName := ""
	for _, m := range ms {
		if m.name != lastName {
			if m.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind.promType())
			lastName = m.name
		}
		if m.kind == kindHistogram {
			writePromHistogram(w, m)
			continue
		}
		fmt.Fprintf(w, "%s%s %s\n", m.name, labelString(m.labels), formatValue(m.value()))
	}
}

// writePromHistogram emits the cumulative bucket series for one histogram.
// Empty buckets are elided (the series stays valid: le is cumulative and a
// trailing +Inf bucket always carries the total).
func writePromHistogram(w io.Writer, m *metric) {
	s := m.h.Snapshot()
	var cum uint64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		labels := append(append([]Label{}, m.labels...), L("le", fmt.Sprintf("%d", bucketUpper(i))))
		fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, labelString(labels), cum)
	}
	inf := append(append([]Label{}, m.labels...), L("le", "+Inf"))
	fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, labelString(inf), s.Count)
	fmt.Fprintf(w, "%s_sum%s %d\n", m.name, labelString(m.labels), s.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", m.name, labelString(m.labels), s.Count)
}

// WriteVars writes the registry as a flat JSON object (expvar-style), keyed
// by series name; histograms render as {count, sum, p50, p90, p99}.
func (r *Registry) WriteVars(w io.Writer) error {
	ms := r.snapshot()
	vars := make(map[string]any, len(ms))
	for _, m := range ms {
		key := seriesKey(m.name, m.labels)
		switch m.kind {
		case kindHistogram:
			s := m.h.Snapshot()
			vars[key] = map[string]uint64{
				"count": s.Count,
				"sum":   s.Sum,
				"p50":   m.h.Quantile(0.50),
				"p90":   m.h.Quantile(0.90),
				"p99":   m.h.Quantile(0.99),
			}
		case kindGauge:
			vars[key] = map[string]int64{"value": m.g.Load(), "max": m.g.Max()}
		default:
			vars[key] = m.value()
		}
	}
	keys := make([]string, 0, len(vars))
	for k := range vars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Render with sorted keys for deterministic output.
	var sb strings.Builder
	sb.WriteString("{\n")
	for i, k := range keys {
		b, err := json.Marshal(vars[k])
		if err != nil {
			return err
		}
		fmt.Fprintf(&sb, "  %q: %s", k, b)
		if i < len(keys)-1 {
			sb.WriteString(",")
		}
		sb.WriteString("\n")
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// extraRoute is a caller-mounted handler (e.g. /debug/flight).
type extraRoute struct {
	pattern string
	h       http.Handler
}

// Handle mounts an additional handler on the stats mux built by Handler().
// Registering the same pattern again replaces the previous handler. Call it
// before Handler()/Serve(); later registrations only affect muxes built
// afterwards.
func (r *Registry) Handle(pattern string, h http.Handler) {
	c := r.core
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.extra {
		if c.extra[i].pattern == pattern {
			c.extra[i].h = h
			return
		}
	}
	c.extra = append(c.extra, extraRoute{pattern: pattern, h: h})
}

// Handler returns an http.Handler serving /metrics (Prometheus text format),
// /debug/vars (JSON), the net/http/pprof profiler under /debug/pprof/, any
// routes mounted with Handle, and a tiny index at /.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteVars(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	r.core.mu.Lock()
	extra := append([]extraRoute(nil), r.core.extra...)
	r.core.mu.Unlock()
	for _, e := range extra {
		mux.Handle(e.pattern, e.h)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "opendesc stats: /metrics (Prometheus), /debug/vars (JSON), /debug/pprof/ (profiler)\n")
		for _, e := range extra {
			fmt.Fprintf(w, "extra: %s\n", e.pattern)
		}
	})
	return mux
}

// Serve starts an HTTP stats endpoint on addr in a background goroutine and
// returns the bound address (useful with ":0"). The listener runs until the
// process exits or the returned closer is closed.
func (r *Registry) Serve(addr string) (net.Addr, io.Closer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	go func() { _ = http.Serve(ln, r.Handler()) }()
	return ln.Addr(), ln, nil
}
