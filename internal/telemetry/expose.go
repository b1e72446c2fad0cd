package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders every instrument in the Prometheus text exposition
// format (version 0.0.4), deterministically ordered: families sorted by
// name, series sorted within each family, one # TYPE line per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	counterNames := sortedKeys(r.counters)
	gaugeNames := sortedKeys(r.gauges)
	histNames := sortedKeys(r.hists)
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	var b strings.Builder
	lastFamily := ""
	typeLine := func(name, typ string) string {
		family, _ := splitName(name)
		if family == lastFamily {
			return ""
		}
		lastFamily = family
		return fmt.Sprintf("# TYPE %s %s\n", family, typ)
	}
	for _, name := range counterNames {
		b.WriteString(typeLine(name, "counter"))
		fmt.Fprintf(&b, "%s %d\n", name, counters[name].Value())
	}
	for _, name := range gaugeNames {
		b.WriteString(typeLine(name, "gauge"))
		fmt.Fprintf(&b, "%s %s\n", name, formatFloat(gauges[name].Value()))
	}
	for _, name := range histNames {
		b.WriteString(typeLine(name, "histogram"))
		writeHistogram(&b, name, hists[name])
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative _bucket lines with
// the le label merged into any existing labels, then _sum and _count.
func writeHistogram(b *strings.Builder, name string, h *Histogram) {
	family, labels := splitName(name)
	series := func(suffix, extra string) string {
		l := labels
		if extra != "" {
			if l != "" {
				l += ","
			}
			l += extra
		}
		if l == "" {
			return family + suffix
		}
		return family + suffix + "{" + l + "}"
	}
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s %d\n", series("_bucket", `le="`+formatFloat(bound)+`"`), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s %d\n", series("_bucket", `le="+Inf"`), cum)
	fmt.Fprintf(b, "%s %s\n", series("_sum", ""), formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s %d\n", series("_count", ""), h.Count())
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot is the JSON view of a registry at one instant.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is one histogram's JSON form; bucket counts are
// non-cumulative and parallel to Bounds, with the +Inf overflow last.
type HistogramSnapshot struct {
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"`
}

// Snapshot captures every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count:  h.Count(),
			Sum:    h.Sum(),
			Bounds: h.bounds,
		}
		hs.Buckets = make([]uint64, len(h.buckets))
		for i := range h.buckets {
			hs.Buckets[i] = h.buckets[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}
