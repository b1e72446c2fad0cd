// Package telemetry is the repository's observability substrate: a
// dependency-free metrics registry (counters, gauges, fixed-bucket
// histograms), lightweight hierarchical span tracing with an optional JSONL
// run-event sink, Prometheus-text and JSON exposition, and an HTTP endpoint
// that also mounts net/http/pprof. Every layer of the train/monitor pipeline
// records into it; docs/OBSERVABILITY.md catalogues the metric names and the
// span hierarchy.
//
// Telemetry is off by default. The process-wide registry starts nil and every
// instrument operation on a nil registry — or on the nil instrument handles a
// nil registry returns — is a single pointer check, so uninstrumented runs
// pay effectively nothing (the nil fast path is pinned by benchmarks in this
// package and on Detector.Monitor). CLIs switch it on with Enable when a
// telemetry flag is given; isolated consumers (the corpus store, tests)
// create private registries with NewRegistry.
package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a process- or component-scoped set of named instruments.
// All methods are safe for concurrent use, and all methods on a nil
// *Registry are no-ops returning nil instruments, whose methods are in turn
// no-ops: callers never branch on whether telemetry is enabled.
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
// It is nil until Enable — the disabled fast path.
var global atomic.Pointer[Registry]

// Enable installs (or returns the already-installed) process-wide registry.
func Enable() *Registry {
	if r := global.Load(); r != nil {
		return r
	}
	r := NewRegistry()
	if global.CompareAndSwap(nil, r) {
		return r
	}
	return global.Load()
}

// Get returns the process-wide registry, or nil when telemetry is disabled.
// All instrument methods tolerate the nil result, so call sites read
// naturally: telemetry.Get().Counter("x").Inc().
func Get() *Registry { return global.Load() }

// Disable removes the process-wide registry; subsequent Get calls return nil
// and instrumentation reverts to the zero-overhead path. Existing instrument
// handles keep working against the detached registry.
func Disable() { global.Store(nil) }

// ---- counters ---------------------------------------------------------------

// Counter is a monotonically increasing uint64. The nil Counter (returned by
// a nil Registry) absorbs all operations.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for the nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns the named counter, creating it on first use. Series labels
// are part of the name, in canonical form (see Name).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
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
// (and nil registries) read as 0.
func (r *Registry) CounterValue(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	return c.Value()
}

// ---- gauges -----------------------------------------------------------------

// Gauge is a float64 that can go up and down (stored as atomic bits). The
// nil Gauge absorbs all operations.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 for the nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeValue reads the named gauge without creating it.
func (r *Registry) GaugeValue(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	g := r.gauges[name]
	r.mu.Unlock()
	return g.Value()
}

// ---- histograms -------------------------------------------------------------

// Histogram counts observations into fixed cumulative-style buckets (upper
// bounds ascending, implicit +Inf last) and tracks sum and count. The nil
// Histogram absorbs all operations.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
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

// Count returns the number of observations (0 for the nil Histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 for the nil Histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (which must be ascending and are not copied; treat the slice
// as immutable) on first use. A later call with different bounds returns the
// original instrument unchanged.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
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
