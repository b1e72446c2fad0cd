// Package telemetry is the repository's observability substrate: a
// dependency-free metrics registry (counters, gauges, fixed-bucket
// histograms), lightweight hierarchical span tracing with an optional JSONL
// run-event sink, Prometheus-text and JSON exposition, and an HTTP endpoint
// that also mounts net/http/pprof. Every layer of the train/monitor pipeline
// records into it; docs/OBSERVABILITY.md catalogues the metric names and the
// span hierarchy.
//
// Telemetry is always on: Get returns the one process-wide registry from
// the start, and every process records into it. What is exposed is chosen
// separately — the CLIs' -metrics-addr and -trace-out flags attach the HTTP
// server and the event sink (see telemetrycli). Isolated consumers (the
// corpus store's tests, unit tests) create private registries with
// NewRegistry. Callers fetch instrument handles outside hot loops, because a
// lookup takes the registry's mutex; an operation on a held handle is one
// or a few atomics.
package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a process- or component-scoped set of named instruments.
// All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	sinkMu sync.Mutex
	sink   eventSink
	// hasSink mirrors sink.w != nil so event producers can skip building
	// an event nobody will write without taking sinkMu.
	hasSink atomic.Bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// global is the process-wide registry the pipeline instruments record into.
var global = NewRegistry()

// Get returns the process-wide registry.
func Get() *Registry { return global }

// Enable returns Get(). It remains only because the benchmark harness
// (bench/child.go) still calls it; delete it when that file is next edited.
func Enable() *Registry { return Get() }

// ---- counters ---------------------------------------------------------------

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter returns the named counter, creating it on first use. Series labels
// are part of the name, in canonical form (see Name).
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterValue reads the named counter without creating it; missing counters
// read as 0.
func (r *Registry) CounterValue(name string) uint64 {
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// ---- gauges -----------------------------------------------------------------

// Gauge is a float64 that can go up and down (stored as atomic bits).
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// ---- histograms -------------------------------------------------------------

// Histogram counts observations into fixed cumulative-style buckets (upper
// bounds ascending, implicit +Inf last) and tracks sum and count.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (which must be ascending and are not copied; treat the slice
// as immutable) on first use. A later call with different bounds returns the
// original instrument unchanged.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// Shared bucket layouts for the pipeline's recurring quantities.
var (
	// ScoreBuckets spans the normalized perceptron output in [-1, 1].
	ScoreBuckets = []float64{-1, -0.75, -0.5, -0.25, -0.1, 0, 0.1, 0.25, 0.5, 0.75, 1}
	// LatencyBuckets spans per-sample scoring latencies in seconds
	// (sub-microsecond datapath up to pathological stalls). The layout grows
	// only by appending: the first twelve bounds are frozen (pinned by
	// TestLatencyBucketsPrefixFrozen) so dashboards keyed on the historical
	// `le` labels keep working, and the appended tail covers queue-wait
	// under sustained overload, where a sample can sit for whole seconds
	// before its shard scorer reaches it.
	LatencyBuckets = []float64{1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1,
		2.5, 5, 10, 30, 60}
	// DurationBuckets spans phase wall times in seconds (1 ms to 10 min).
	DurationBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120, 300, 600}
	// RatioBuckets spans [0, 1] quantities: error rates, coverage fractions.
	RatioBuckets = []float64{0, 0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1}
)

// ---- series naming ----------------------------------------------------------

// Name renders a metric series name with labels in canonical Prometheus
// form: Name("m", "k", "v") == `m{k="v"}`. Label values are escaped; an odd
// trailing key is ignored. Using one canonical renderer keeps series
// addressable by exact string for readers like CounterValue.
func Name(base string, kv ...string) string {
	if len(kv) < 2 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// splitName separates a canonical series name into its family and label
// body: `m{k="v"}` → ("m", `k="v"`).
func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// sortedKeys returns m's keys sorted, for deterministic exposition.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
