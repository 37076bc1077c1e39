// Package obs is the repository's observability substrate: lock-free
// counters, gauges and log-scale histograms, lightweight span tracing for
// the compiler pipeline, and a registry that renders both a human-readable
// table and Prometheus text exposition format (optionally over net/http).
//
// The package is dependency-free (stdlib only) and designed for hot-path
// use: counters are single atomic words padded to a cache line so a device
// goroutine, a host goroutine, and a stats scraper never false-share.
// This is the software analogue of a NIC's ethtool/devlink counter block —
// the paper argues metadata interfaces should be inspectable contracts,
// and an interface you cannot observe is not inspectable.
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// cacheLine is the assumed coherence granule; counters are padded to it so
// adjacent metrics touched by different cores do not false-share.
const cacheLine = 64

// Counter is a monotonically increasing atomic counter (an ethtool-style
// statistic). The zero value is ready to use.
type Counter struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that also tracks its high-water
// mark (the largest value ever Set). The zero value is ready to use.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
	_   [cacheLine - 16]byte
}

// Set stores v and raises the high-water mark when v exceeds it.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Add adjusts the gauge by d and returns the new value (raising the
// high-water mark as needed).
func (g *Gauge) Add(d int64) int64 {
	v := g.v.Add(d)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return v
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

// Label is one key="value" dimension of a metric.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// kind discriminates registry entries.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
	kindFloatFunc
)

func (k kind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// metric is one registered series: a name, an ordered label set, and a
// value source.
type metric struct {
	name   string
	help   string
	labels []Label
	kind   kind

	c  *Counter
	g  *Gauge
	h  *Histogram
	fn func() uint64  // counter-func source
	gf func() int64   // gauge-func source
	ff func() float64 // float-func source
}

// labelString renders {k="v",...} (empty string for no labels).
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	s := "{"
	for i, l := range labels {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return s + "}"
}

// seriesKey uniquely identifies a metric within a registry.
func seriesKey(name string, labels []Label) string { return name + labelString(labels) }

// Registry holds a set of named metrics. Registration is mutex-guarded;
// metric updates are lock-free; rendering takes a snapshot under the mutex
// so it is safe concurrently with updates and further registration.
//
// A Registry value is a view onto a shared store: WithLabels derives a view
// that appends namespace labels (tenant, driver, …) to every series
// registered through it, so multiple components can share one stats
// endpoint without colliding. All views render the same store.
type Registry struct {
	core *regCore
	// base labels are appended to every series registered through this view.
	base []Label
}

// regCore is the store shared by all views of one registry.
type regCore struct {
	mu      sync.Mutex
	ordered []*metric
	byKey   map[string]*metric
	// instances counts auto-disambiguated registrations per colliding key
	// (see register).
	instances  map[string]int
	collisions uint64
	extra      []extraRoute // additional handlers mounted on Handler()'s mux
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{core: &regCore{
		byKey:     make(map[string]*metric),
		instances: make(map[string]int),
	}}
}

// Default is the process-wide registry used by the package-level helpers.
var Default = NewRegistry()

// WithLabels returns a view of the registry that appends the given labels
// to every series registered through it. Views share the store: rendering
// any view renders everything. Give each driver/tenant its own view so
// components sharing a stats endpoint occupy disjoint label namespaces.
func (r *Registry) WithLabels(labels ...Label) *Registry {
	base := make([]Label, 0, len(r.base)+len(labels))
	base = append(base, r.base...)
	base = append(base, labels...)
	return &Registry{core: r.core, base: base}
}

// sameSource reports whether two registrations refer to the same underlying
// value source. Func-kind sources are not comparable and report true, which
// keeps their registration idempotent-by-key.
func sameSource(a, b *metric) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case kindCounter:
		return a.c == b.c
	case kindGauge:
		return a.g == b.g
	case kindHistogram:
		return a.h == b.h
	default:
		return true
	}
}

// register adds m. A series with the same key and the same source is
// returned as-is (idempotent registration so components can re-register on
// reconfiguration). When attach is set and the key is taken by a *different*
// source — two drivers exposing the same counter block on one endpoint —
// the new series is disambiguated with an auto-incrementing instance label
// instead of being silently dropped, so no registration loses its data.
func (r *Registry) register(m *metric, attach bool) *metric {
	if len(r.base) > 0 {
		m.labels = append(append(make([]Label, 0, len(m.labels)+len(r.base)), m.labels...), r.base...)
	}
	key := seriesKey(m.name, m.labels)
	c := r.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.byKey[key]; ok {
		if !attach || sameSource(prev, m) {
			return prev
		}
		c.collisions++
		for {
			c.instances[key]++
			labels := append(append(make([]Label, 0, len(m.labels)+1), m.labels...),
				L("instance", strconv.Itoa(c.instances[key])))
			k := seriesKey(m.name, labels)
			if _, dup := c.byKey[k]; !dup {
				m.labels, key = labels, k
				break
			}
		}
	}
	c.byKey[key] = m
	c.ordered = append(c.ordered, m)
	return m
}

// Collisions reports how many registrations were instance-disambiguated
// because a different source claimed an identical series key.
func (r *Registry) Collisions() uint64 {
	r.core.mu.Lock()
	defer r.core.mu.Unlock()
	return r.core.collisions
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.register(&metric{name: name, help: help, labels: labels, kind: kindCounter, c: &Counter{}}, false)
	return m.c
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.register(&metric{name: name, help: help, labels: labels, kind: kindGauge, g: &Gauge{}}, false)
	return m.g
}

// Histogram registers (or returns the existing) histogram series.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	m := r.register(&metric{name: name, help: help, labels: labels, kind: kindHistogram, h: NewHistogram()}, false)
	return m.h
}

// CounterFunc registers a counter whose value is read from fn at render
// time — for exposing counters owned by another subsystem (e.g. a ring's
// produced count) without double bookkeeping. Func sources are not
// comparable, so re-registering an identical key stays idempotent; give
// each owner a WithLabels view to keep func series distinct.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(&metric{name: name, help: help, labels: labels, kind: kindCounterFunc, fn: fn}, false)
}

// GaugeFunc registers a gauge read from fn at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(&metric{name: name, help: help, labels: labels, kind: kindGaugeFunc, gf: fn}, false)
}

// FloatFunc registers a gauge whose value is a float read from fn at
// render time — for ratios (cache hit rate, utilization) that the integer
// gauge kinds would truncate.
func (r *Registry) FloatFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&metric{name: name, help: help, labels: labels, kind: kindFloatFunc, ff: fn}, false)
}

// AttachCounter registers an externally owned Counter under the given
// series, so subsystems can keep their counters inline (hot, padded) and
// still expose them. Attaching a different Counter under an already-taken
// key disambiguates the new series with an instance label.
func (r *Registry) AttachCounter(name, help string, c *Counter, labels ...Label) {
	r.register(&metric{name: name, help: help, labels: labels, kind: kindCounter, c: c}, true)
}

// AttachHistogram registers an externally owned Histogram.
func (r *Registry) AttachHistogram(name, help string, h *Histogram, labels ...Label) {
	r.register(&metric{name: name, help: help, labels: labels, kind: kindHistogram, h: h}, true)
}

// snapshot copies the metric list under the lock.
func (r *Registry) snapshot() []*metric {
	r.core.mu.Lock()
	defer r.core.mu.Unlock()
	out := make([]*metric, len(r.core.ordered))
	copy(out, r.core.ordered)
	return out
}

// value reads the metric's current scalar value (histograms report count).
func (m *metric) value() float64 {
	switch m.kind {
	case kindCounter:
		return float64(m.c.Load())
	case kindGauge:
		return float64(m.g.Load())
	case kindCounterFunc:
		return float64(m.fn())
	case kindGaugeFunc:
		return float64(m.gf())
	case kindFloatFunc:
		return m.ff()
	case kindHistogram:
		return float64(m.h.Count())
	}
	return 0
}

// sortedByName returns the snapshot grouped by metric name (registration
// order within a name), as Prometheus exposition requires one HELP/TYPE
// block per name.
func (r *Registry) sortedByName() []*metric {
	ms := r.snapshot()
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	return ms
}
