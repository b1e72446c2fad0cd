package trace

import (
	"context"
	"runtime"
	"testing"

	"perspectron/internal/workload"
	"perspectron/internal/workload/benign"
)

// TestCollectParallelMatchesSerial: collection fans runs out across
// GOMAXPROCS workers; the dataset must not depend on the worker count.
func TestCollectParallelMatchesSerial(t *testing.T) {
	progs := []workload.Program{benign.Bzip2(), benign.Mcf()}
	cfg := CollectConfig{MaxInsts: 20_000, Interval: 10_000, Seed: 9, Runs: 1}
	prev := runtime.GOMAXPROCS(1)
	a := Collect(context.Background(), progs, cfg)[0]
	runtime.GOMAXPROCS(4)
	b := Collect(context.Background(), progs, cfg)[0]
	runtime.GOMAXPROCS(prev)
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i].Program != b.Samples[i].Program {
			t.Fatalf("ordering differs at %d", i)
		}
		for j := range a.Samples[i].Raw {
			if a.Samples[i].Raw[j] != b.Samples[i].Raw[j] {
				t.Fatalf("parallel collection changed values at %d/%d", i, j)
			}
		}
	}
}

func TestEncoderPointFallback(t *testing.T) {
	ds := smallDataset(t)
	m := Maxima(ds)
	// A sample at an execution point far beyond anything observed must
	// scale via the global maxima rather than zeros.
	s := ds.Samples[0]
	s.Index = 10_000
	scaled := m.Scale(s.Raw, s.Index, nil)
	nonzero := false
	for _, v := range scaled {
		if v > 0 {
			nonzero = true
		}
		if v < 0 || v > 1 {
			t.Fatalf("fallback scaling out of range: %v", v)
		}
	}
	if !nonzero {
		t.Fatalf("fallback scaling produced all zeros")
	}
}

func TestFilterSharesUnderlyingSamples(t *testing.T) {
	ds := smallDataset(t)
	f := ds.Filter(func(s *Sample) bool { return true })
	if len(f.Samples) != len(ds.Samples) {
		t.Fatalf("identity filter changed size")
	}
	// Shallow copy by design: the filtered view reuses sample storage.
	if &f.Samples[0].Raw[0] != &ds.Samples[0].Raw[0] {
		t.Fatalf("filter deep-copied raw vectors")
	}
}

func TestLabelValue(t *testing.T) {
	if LabelValue(workload.Malicious) != 1 || LabelValue(workload.Benign) != -1 {
		t.Fatalf("label mapping wrong")
	}
}

func TestCollectZeroRunsIsEmpty(t *testing.T) {
	ds := Collect(context.Background(), []workload.Program{benign.Bzip2()},
		CollectConfig{MaxInsts: 10_000, Interval: 10_000, Seed: 1, Runs: 0})[0]
	if len(ds.Samples) != 0 {
		t.Fatalf("zero runs produced samples")
	}
	if ds.NumFeatures() == 0 {
		t.Fatalf("feature names missing even with zero runs")
	}
}
