package corpus

import (
	"bytes"
	"strings"
	"testing"

	"perspectron/internal/telemetry"
)

func TestDiskCacheByteCounters(t *testing.T) {
	dir := t.TempDir()

	s1 := newTestStore()
	if err := s1.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	s1.Dataset(tinyCorpus(), tinyConfig())
	st1 := s1.Stats()
	if st1.DiskWrittenBytes <= 0 {
		t.Fatalf("written bytes = %d, want > 0 after persisting", st1.DiskWrittenBytes)
	}
	if st1.DiskReadBytes != 0 {
		t.Fatalf("read bytes = %d, want 0 on a fresh collection", st1.DiskReadBytes)
	}

	s2 := newTestStore()
	if err := s2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	s2.Dataset(tinyCorpus(), tinyConfig())
	st2 := s2.Stats()
	if st2.DiskReadBytes != st1.DiskWrittenBytes {
		t.Fatalf("read %d bytes, want the %d bytes the first store wrote",
			st2.DiskReadBytes, st1.DiskWrittenBytes)
	}
	if st2.DiskWrittenBytes != 0 {
		t.Fatalf("written bytes = %d, want 0 on a pure disk hit", st2.DiskWrittenBytes)
	}
}

func TestSetRegistryExposesCorpusSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestStore()
	s.SetRegistry(reg)

	s.Dataset(tinyCorpus(), tinyConfig())
	s.Dataset(tinyCorpus(), tinyConfig())

	// Stats reads back through the shared registry — one accounting path.
	st := s.Stats()
	if st.Collections != 1 || st.MemoryHits != 1 {
		t.Fatalf("stats = %+v, want 1 collection + 1 memory hit", st)
	}
	if got := reg.CounterValue(MetricDatasetsCollected); got != 1 {
		t.Fatalf("registry collect counter = %d, want 1", got)
	}

	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, series := range []string{
		`perspectron_corpus_datasets_total{source="collect"} 1`,
		`perspectron_corpus_datasets_total{source="memory"} 1`,
	} {
		if !strings.Contains(out, series) {
			t.Errorf("exposition missing %q:\n%s", series, out)
		}
	}
}

// TestDefaultStoreRecordsIntoProcessRegistry pins the always-on wiring: the
// process-wide store's dataset lookups appear as corpus series in the
// process telemetry registry with no SetRegistry call.
func TestDefaultStoreRecordsIntoProcessRegistry(t *testing.T) {
	cfg := tinyConfig()
	cfg.Seed = 4242 // a key no other test collects
	before := telemetry.Get().Snapshot().Counters
	Default().Dataset(tinyCorpus(), cfg)
	Default().Dataset(tinyCorpus(), cfg)
	after := telemetry.Get().Snapshot().Counters
	for _, series := range []string{MetricDatasetsCollected, MetricDatasetsMemory} {
		if got := after[series] - before[series]; got != 1 {
			t.Errorf("%s advanced by %d in the process registry, want 1", series, got)
		}
	}
}

func TestStatsStringIncludesHealth(t *testing.T) {
	s := Stats{Collections: 1, RunsDropped: 2}
	if got := s.String(); !strings.Contains(got, "; 2 runs dropped") {
		t.Errorf("String() = %q, want the dropped-run tally", got)
	}
	clean := Stats{Collections: 1}
	if got := clean.String(); strings.Contains(got, "dropped") {
		t.Errorf("clean String() mentions dropped runs: %q", got)
	}
}
