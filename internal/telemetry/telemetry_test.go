package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if got := r.CounterValue("c_total"); got != 5 {
		t.Errorf("CounterValue = %d, want 5", got)
	}
	if got := r.CounterValue("missing"); got != 0 {
		t.Errorf("missing CounterValue = %d, want 0", got)
	}

	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
	if got := r.Gauge("g").Value(); got != 1.5 {
		t.Errorf("Gauge(g).Value = %v, want 1.5", got)
	}

	h := r.Histogram("h", []float64{1, 10})
	for _, v := range []float64{0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 3 {
		t.Errorf("hist count = %d, want 3", h.Count())
	}
	if h.Sum() != 55.5 {
		t.Errorf("hist sum = %v, want 55.5", h.Sum())
	}
	// Same name returns the same instrument even with different bounds.
	if r.Histogram("h", []float64{7}) != h {
		t.Error("second Histogram call returned a different instrument")
	}
}

// TestGetIsOneLiveRegistry pins the always-on contract: the process
// registry exists from the start and is the same value on every call.
func TestGetIsOneLiveRegistry(t *testing.T) {
	r := Get()
	if r == nil || Get() != r || Enable() != r {
		t.Fatal("Get/Enable did not return one stable registry")
	}
	before := r.CounterValue("telemetry_test_live_total")
	Get().Counter("telemetry_test_live_total").Inc()
	if got := r.CounterValue("telemetry_test_live_total"); got != before+1 {
		t.Fatalf("process registry counter advanced by %d, want 1", got-before)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("c_total").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", RatioBuckets).Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if got := r.CounterValue("c_total"); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("g").Value(); got != workers*per {
		t.Errorf("gauge = %v, want %d", got, workers*per)
	}
	h := r.Histogram("h", RatioBuckets)
	if h.Count() != workers*per {
		t.Errorf("hist count = %d, want %d", h.Count(), workers*per)
	}
	if h.Sum() != workers*per*0.5 {
		t.Errorf("hist sum = %v, want %v", h.Sum(), workers*per*0.5)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter(Name("requests_total", "source", "disk")).Add(3)
	r.Counter(Name("requests_total", "source", "memory")).Add(7)
	r.Gauge("coverage").Set(0.75)
	h := r.Histogram("latency_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	// Families render counters first, then gauges, then histograms, each
	// kind sorted by series name.
	want := `# TYPE requests_total counter
requests_total{source="disk"} 3
requests_total{source="memory"} 7
# TYPE coverage gauge
coverage 0.75
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.1"} 1
latency_seconds_bucket{le="1"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 5.55
latency_seconds_count 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(2)
	r.Histogram("h", []float64{1}).Observe(0.5)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["c_total"] != 2 {
		t.Errorf("round-tripped counter = %d, want 2", back.Counters["c_total"])
	}
	hs := back.Histograms["h"]
	if hs.Count != 1 || len(hs.Buckets) != 2 || hs.Buckets[0] != 1 {
		t.Errorf("round-tripped histogram = %+v", hs)
	}
}

func TestSpanHierarchyAndSink(t *testing.T) {
	r := NewRegistry()
	var sink bytes.Buffer
	r.SetEventSink(&sink)

	ctx, outer := r.StartSpan(context.Background(), "train")
	_, inner := r.StartSpan(ctx, "select")
	if inner.Path() != "train/select" {
		t.Errorf("inner path = %q, want train/select", inner.Path())
	}
	inner.End()
	outer.End()
	r.Event("verdict", map[string]any{"detected": true})
	r.SetEventSink(nil)
	r.Event("dropped", nil) // after detach: must not write

	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d event lines, want 3:\n%s", len(lines), sink.String())
	}
	for i, wantPhase := range []string{"train/select", "train"} {
		var ev map[string]any
		if err := json.Unmarshal([]byte(lines[i]), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if ev["event"] != "span" || ev["phase"] != wantPhase {
			t.Errorf("line %d = %v, want span %q", i, ev, wantPhase)
		}
		if _, ok := ev["seconds"].(float64); !ok {
			t.Errorf("line %d missing seconds", i)
		}
		if _, ok := ev["ts"].(string); !ok {
			t.Errorf("line %d missing ts", i)
		}
	}
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &last); err != nil {
		t.Fatal(err)
	}
	if last["event"] != "verdict" || last["detected"] != true {
		t.Errorf("last event = %v", last)
	}

	// Spans record into the phase histogram.
	if got := r.Histogram(Name(PhaseMetric, "phase", "train"), DurationBuckets).Count(); got != 1 {
		t.Errorf("train phase observations = %d, want 1", got)
	}
}

// TestEventWithoutSinkIsFree pins the no-sink fast path: an Event on a
// registry with no sink attached builds nothing.
func TestEventWithoutSinkIsFree(t *testing.T) {
	r := NewRegistry()
	fields := map[string]any{"worker": "w", "ms": 1.5}
	if n := testing.AllocsPerRun(100, func() { r.Event("slow_sample", fields) }); n != 0 {
		t.Fatalf("Event without a sink allocated %v times per call, want 0", n)
	}
}

func TestNameEscaping(t *testing.T) {
	if got := Name("m"); got != "m" {
		t.Errorf("Name no labels = %q", got)
	}
	if got := Name("m", "k", "v", "k2", "v2"); got != `m{k="v",k2="v2"}` {
		t.Errorf("Name two labels = %q", got)
	}
	if got := Name("m", "k", `a"b\c`+"\n"); got != `m{k="a\"b\\c\n"}` {
		t.Errorf("Name escaped = %q", got)
	}
	family, labels := splitName(`m{k="v"}`)
	if family != "m" || labels != `k="v"` {
		t.Errorf("splitName = %q, %q", family, labels)
	}
}
