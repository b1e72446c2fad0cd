package telemetry

import "testing"

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h", ScoreBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.5)
	}
}

func BenchmarkRegistryLookupCounter(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("c").Inc()
	}
}
