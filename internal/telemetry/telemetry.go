// Package telemetry is DarNet's stdlib-only observability layer: a metrics
// registry of lock-free counters, gauges, and fixed-bucket latency
// histograms; context-carried span tracing with parent/child links; and the
// HTTP ops endpoint darnetd exposes behind -ops (/metrics, /healthz,
// /tracez, and net/http/pprof).
//
// The middleware half of the system is a long-running controller ingesting
// agent streams; real-time claims hinge on measured per-stage latency, so
// the hot-path primitives here are built to be cheap enough to leave on in
// production: counter increments and span start/stop are a handful of atomic
// operations and allocation-free after warm-up (spans are pooled; sampled
// trace retention is the only allocating path, amortized by the sampling
// period).
//
// Metric and span names are literal snake_case strings with a darnet_
// prefix; the metricname analyzer in cmd/darnet-lint enforces this at review
// time and Registry registration enforces it at startup.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry the instrumented packages (wire,
// tsdb, collect, core) register into and the ops endpoint serves.
var Default = NewRegistry()

// ValidName reports whether name is a legal metric/span name: snake_case
// with a darnet_ prefix, e.g. darnet_collect_batches_total.
func ValidName(name string) bool {
	const prefix = "darnet_"
	if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
		return false
	}
	prev := byte('_')
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case c == '_':
			if prev == '_' && i > 0 {
				return false // no double underscores
			}
		default:
			return false
		}
		prev = c
	}
	return prev != '_'
}

// historySuffixes are the sub-series the telemetry→tsdb scraper derives from
// one histogram: its tracked percentiles plus the running count and sum.
var historySuffixes = []string{".p50", ".p90", ".p99", ".count", ".sum"}

// ValidHistorySeries reports whether name is a legal metric-history series:
// a valid metric name, optionally carrying one of the scrape suffixes the
// telemetry→tsdb bridge appends to histogram names (.p50/.p90/.p99/.count/
// .sum). SLO objectives reference scraped series by these names, and the
// metricname analyzer enforces the format on their literal arguments.
func ValidHistorySeries(name string) bool {
	for _, suf := range historySuffixes {
		if len(name) > len(suf) && name[len(name)-len(suf):] == suf {
			return ValidName(name[:len(name)-len(suf)])
		}
	}
	return ValidName(name)
}

func mustValidName(name string) {
	if !ValidName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q: must be snake_case with a darnet_ prefix", name))
	}
}

// Counter is a monotonically increasing lock-free counter.
type Counter struct {
	v    atomic.Int64
	name string
	help string
}

// Inc adds 1.
//
//lint:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n panics (counters are monotonic).
//
//lint:hotpath
func (c *Counter) Add(n int64) {
	if n < 0 {
		//lint:ignore hotalloc formatting a programming-error panic is not a live path
		panic(fmt.Sprintf("telemetry: counter %s cannot decrease", c.name))
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the registered metric name.
func (c *Counter) Name() string { return c.name }

// Gauge is a lock-free instantaneous value (float64 bits in an atomic word).
type Gauge struct {
	bits atomic.Uint64
	name string
	help string
}

// Set replaces the gauge value.
//
//lint:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta (CAS loop; deltas may be negative).
//
//lint:hotpath
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Name returns the registered metric name.
func (g *Gauge) Name() string { return g.name }

// Registry holds named metrics. Registration is guarded by a mutex but
// returns stable handles, so the hot paths (Inc/Set/Observe on the handle)
// never touch the lock: packages register once in a var block and increment
// the handle.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. It panics on an invalid name or if the name is already registered as
// a different metric kind — both are programming errors the metricname
// analyzer catches at review time.
func (r *Registry) Counter(name, help string) *Counter {
	mustValidName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFree(name, "counter")
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	mustValidName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFree(name, "gauge")
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds (seconds, ascending) on first use. A nil
// buckets slice uses the default latency buckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	mustValidName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.checkFree(name, "histogram")
	h := newHistogram(name, help, buckets)
	r.histograms[name] = h
	return h
}

// checkFree panics if name is registered under a kind other than want.
// Callers hold r.mu.
func (r *Registry) checkFree(name, want string) {
	kinds := []struct {
		kind string
		used bool
	}{
		{"counter", r.counters[name] != nil},
		{"gauge", r.gauges[name] != nil},
		{"histogram", r.histograms[name] != nil},
	}
	for _, k := range kinds {
		if k.used && k.kind != want {
			panic(fmt.Sprintf("telemetry: %s already registered as a %s, cannot re-register as a %s", name, k.kind, want))
		}
	}
}

// NewCounter registers (or fetches) a counter in the Default registry.
func NewCounter(name, help string) *Counter { return Default.Counter(name, help) }

// NewGauge registers (or fetches) a gauge in the Default registry.
func NewGauge(name, help string) *Gauge { return Default.Gauge(name, help) }

// NewHistogram registers (or fetches) a histogram in the Default registry.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return Default.Histogram(name, help, buckets)
}

// CounterSnapshot is one counter's state at snapshot time.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Help  string `json:"help,omitempty"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge's state at snapshot time.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Help  string  `json:"help,omitempty"`
	Value float64 `json:"value"`
}

// Snapshot is a point-in-time copy of every metric in a registry, in
// name-sorted order per kind. Values of different metrics are read without
// a global lock, so a snapshot is internally consistent per metric, not
// across metrics — the standard exposition trade-off.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current metric values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	histograms := make([]*Histogram, 0, len(r.histograms))
	for _, h := range r.histograms {
		histograms = append(histograms, h)
	}
	r.mu.RUnlock()

	var s Snapshot
	for _, c := range counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: c.name, Help: c.help, Value: c.Value()})
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: g.name, Help: g.help, Value: g.Value()})
	}
	for _, h := range histograms {
		s.Histograms = append(s.Histograms, h.Snapshot())
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
