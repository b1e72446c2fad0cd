package corpus

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"perspectron/internal/features"
	"perspectron/internal/telemetry"
	"perspectron/internal/trace"
	"perspectron/internal/workload"
	"perspectron/internal/workload/attacks"
	"perspectron/internal/workload/benign"
)

// newTestStore returns an empty in-memory store with a private telemetry
// registry, so a test counts only its own traffic.
func newTestStore() *Store { return newStore(telemetry.NewRegistry()) }

func tinyCorpus() []workload.Program {
	return []workload.Program{benign.Bzip2(), attacks.FlushReload()}
}

func tinyConfig() trace.CollectConfig {
	return trace.CollectConfig{MaxInsts: 30_000, Interval: 10_000, Seed: 11, Runs: 1}
}

// identical reports whether two datasets carry bit-identical samples.
func identical(a, b *trace.Dataset) bool {
	if len(a.Samples) != len(b.Samples) || a.Interval != b.Interval ||
		len(a.FeatureNames) != len(b.FeatureNames) {
		return false
	}
	for i := range a.Samples {
		sa, sb := &a.Samples[i], &b.Samples[i]
		if sa.Program != sb.Program || sa.Run != sb.Run || sa.Index != sb.Index ||
			sa.Label != sb.Label || len(sa.Raw) != len(sb.Raw) {
			return false
		}
		for j := range sa.Raw {
			if math.Float64bits(sa.Raw[j]) != math.Float64bits(sb.Raw[j]) {
				return false
			}
		}
	}
	return true
}

func TestDatasetMemoized(t *testing.T) {
	s := newTestStore()
	collections := 0
	inner := s.collect
	s.collect = func(ctx context.Context, p []workload.Program, c ...trace.CollectConfig) []*trace.Dataset {
		collections++
		return inner(ctx, p, c...)
	}
	a := s.Dataset(tinyCorpus(), tinyConfig())
	b := s.Dataset(tinyCorpus(), tinyConfig())
	if a != b {
		t.Fatalf("second request returned a different dataset pointer")
	}
	if collections != 1 {
		t.Fatalf("collections = %d, want 1", collections)
	}
	st := s.Stats()
	if st.Collections != 1 || st.MemoryHits != 1 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v, want 1 collection + 1 memory hit", st)
	}
}

func TestDatasetKeySensitivity(t *testing.T) {
	base := DatasetKey(tinyCorpus(), tinyConfig())

	if k := DatasetKey(tinyCorpus(), tinyConfig()); k != base {
		t.Fatalf("key not deterministic: %s vs %s", k, base)
	}
	// Every output-relevant config field must move the key.
	mutations := map[string]func(*trace.CollectConfig){
		"MaxInsts": func(c *trace.CollectConfig) { c.MaxInsts++ },
		"Interval": func(c *trace.CollectConfig) { c.Interval = 50_000 },
		"Seed":     func(c *trace.CollectConfig) { c.Seed++ },
		"Runs":     func(c *trace.CollectConfig) { c.Runs++ },
	}
	for field, mut := range mutations {
		c := tinyConfig()
		mut(&c)
		if DatasetKey(tinyCorpus(), c) == base {
			t.Errorf("changing %s did not change the key", field)
		}
	}
	// Workload set and order are part of the identity.
	if DatasetKey([]workload.Program{benign.Bzip2()}, tinyConfig()) == base {
		t.Errorf("dropping a workload did not change the key")
	}
	rev := []workload.Program{attacks.FlushReload(), benign.Bzip2()}
	if DatasetKey(rev, tinyConfig()) == base {
		t.Errorf("reordering workloads did not change the key")
	}
}

func TestDiskCacheRoundTripByteIdentical(t *testing.T) {
	dir := t.TempDir()

	s1 := newTestStore()
	if err := s1.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	fresh := s1.Dataset(tinyCorpus(), tinyConfig())
	key := DatasetKey(tinyCorpus(), tinyConfig())
	if _, err := os.Stat(filepath.Join(dir, cacheFileName(key))); err != nil {
		t.Fatalf("artifact not written: %v", err)
	}

	// A second store (fresh process, same cache dir) must load from disk —
	// zero collections — and serve bit-identical samples.
	s2 := newTestStore()
	s2.collect = func(context.Context, []workload.Program, ...trace.CollectConfig) []*trace.Dataset {
		t.Fatal("disk-cached dataset was re-collected")
		return nil
	}
	if err := s2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded := s2.Dataset(tinyCorpus(), tinyConfig())
	if !identical(fresh, loaded) {
		t.Fatalf("disk round trip is not byte-identical")
	}
	st := s2.Stats()
	if st.Collections != 0 || st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want pure disk hit", st)
	}
}

func TestDiskCacheIgnoresCorruptArtifact(t *testing.T) {
	dir := t.TempDir()
	key := DatasetKey(tinyCorpus(), tinyConfig())
	if err := os.WriteFile(filepath.Join(dir, cacheFileName(key)), []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestStore()
	if err := s.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	ds := s.Dataset(tinyCorpus(), tinyConfig())
	if len(ds.Samples) == 0 {
		t.Fatalf("corrupt artifact produced an empty dataset")
	}
	if st := s.Stats(); st.Collections != 1 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v, want fallback collection", st)
	}
}

func TestConcurrentRequestsCollapse(t *testing.T) {
	s := newTestStore()
	var mu sync.Mutex
	collections := 0
	inner := s.collect
	s.collect = func(ctx context.Context, p []workload.Program, c ...trace.CollectConfig) []*trace.Dataset {
		mu.Lock()
		collections++
		mu.Unlock()
		return inner(ctx, p, c...)
	}
	const goroutines = 8
	out := make([]*trace.Dataset, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = s.Dataset(tinyCorpus(), tinyConfig())
		}(i)
	}
	wg.Wait()
	if collections != 1 {
		t.Fatalf("concurrent requests ran %d collections, want 1", collections)
	}
	for i := 1; i < goroutines; i++ {
		if out[i] != out[0] {
			t.Fatalf("goroutine %d got a different dataset pointer", i)
		}
	}
}

func TestPreparedMemoized(t *testing.T) {
	s := newTestStore()
	selCfg := features.DefaultSelectConfig()
	a := s.PreparedCtx(context.Background(), tinyCorpus(), tinyConfig(), selCfg)
	b := s.PreparedCtx(context.Background(), tinyCorpus(), tinyConfig(), selCfg)
	if a != b {
		t.Fatalf("prepared bundle not memoized")
	}
	if a.DS == nil || a.Enc == nil {
		t.Fatalf("incomplete bundle: %+v", a)
	}
	// A different selection budget is a different artifact over the same
	// dataset: no new collection, one new preparation.
	selCfg.MaxFeatures = 7
	c := s.PreparedCtx(context.Background(), tinyCorpus(), tinyConfig(), selCfg)
	if c == a {
		t.Fatalf("different selection config returned the same bundle")
	}
	if len(c.Sel.Indices) > 7 {
		t.Fatalf("selection budget ignored: %d features", len(c.Sel.Indices))
	}
	st := s.Stats()
	if st.Collections != 1 {
		t.Fatalf("collections = %d, want 1 across all bundles", st.Collections)
	}
	if st.Prepared != 2 || st.PreparedHit != 1 {
		t.Fatalf("stats = %+v, want 2 prepared + 1 hit", st)
	}
}

// TestPreparedCtxCancelledNotMemoized: a bundle built from a cancelled,
// partial collection is not memoized, so the next live request collects
// and prepares afresh and gets samples.
func TestPreparedCtxCancelledNotMemoized(t *testing.T) {
	s := newTestStore()
	selCfg := features.DefaultSelectConfig()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if p := s.PreparedCtx(cancelled, tinyCorpus(), tinyConfig(), selCfg); len(p.DS.Samples) != 0 {
		t.Fatalf("cancelled request collected %d samples", len(p.DS.Samples))
	}
	p := s.PreparedCtx(context.Background(), tinyCorpus(), tinyConfig(), selCfg)
	if len(p.DS.Samples) == 0 || len(p.Sel.Indices) == 0 {
		t.Fatalf("live request after a cancelled one got %d samples and %d selected features",
			len(p.DS.Samples), len(p.Sel.Indices))
	}
	if st := s.Stats(); st.Prepared != 1 || st.PreparedHit != 0 {
		t.Fatalf("stats = %+v, want the live bundle computed and no hit", st)
	}
}

func TestStatsSubAndString(t *testing.T) {
	a := Stats{Collections: 3, MemoryHits: 5, DiskHits: 1, Prepared: 2, PreparedHit: 4}
	b := Stats{Collections: 1, MemoryHits: 2, DiskHits: 1, Prepared: 1, PreparedHit: 1}
	d := a.Sub(b)
	if d != (Stats{Collections: 2, MemoryHits: 3, Prepared: 1, PreparedHit: 3}) {
		t.Fatalf("Sub = %+v", d)
	}
	if d.String() == "" {
		t.Fatalf("empty stats string")
	}
}

// TestDatasetsResolveEachKey: a multi-config request takes what memory
// holds, collects every missing config in one backend call, and memoizes
// and persists each dataset under its own key; a second process then loads
// all of them from disk, bit-identical to separate collections.
func TestDatasetsResolveEachKey(t *testing.T) {
	dir := t.TempDir()
	short, long := tinyConfig(), tinyConfig()
	short.MaxInsts, long.MaxInsts, long.Interval = 20_000, 60_000, 20_000

	s := newTestStore()
	if err := s.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	var calls [][]trace.CollectConfig
	inner := s.collect
	s.collect = func(ctx context.Context, p []workload.Program, c ...trace.CollectConfig) []*trace.Dataset {
		calls = append(calls, c)
		return inner(ctx, p, c...)
	}
	base := s.Dataset(tinyCorpus(), tinyConfig())
	got := s.DatasetsCtx(context.Background(), tinyCorpus(), long, tinyConfig(), short, long)
	if len(calls) != 2 || len(calls[1]) != 2 || calls[1][0] != long || calls[1][1] != short {
		t.Fatalf("backend calls = %v, want the base config, then long and short together", calls)
	}
	if got[1] != base || got[3] != got[0] {
		t.Fatalf("memoized or repeated configs resolved to different datasets")
	}
	if st := s.Stats(); st.Collections != 3 || st.MemoryHits != 1 {
		t.Fatalf("stats = %+v, want 3 collections and 1 memory hit", st)
	}
	for i, c := range []trace.CollectConfig{long, short} {
		if !identical(got[2*i], trace.Collect(context.Background(), tinyCorpus(), c)[0]) {
			t.Fatalf("%v: shared collection differs from a separate one", c)
		}
	}

	s2 := newTestStore()
	s2.collect = func(context.Context, []workload.Program, ...trace.CollectConfig) []*trace.Dataset {
		t.Fatal("disk-cached datasets were re-collected")
		return nil
	}
	if err := s2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	again := s2.DatasetsCtx(context.Background(), tinyCorpus(), short, long, tinyConfig())
	if !identical(again[0], got[2]) || !identical(again[1], got[0]) || !identical(again[2], base) {
		t.Fatalf("disk round trip is not byte-identical")
	}
	if st := s2.Stats(); st.Collections != 0 || st.DiskHits != 3 {
		t.Fatalf("stats = %+v, want 3 disk hits", st)
	}
}

// TestDatasetsCrossedRequestsCollapse: requests for the same keys in
// opposite orders neither deadlock nor collect a key twice.
func TestDatasetsCrossedRequestsCollapse(t *testing.T) {
	s := newTestStore()
	a, b := tinyConfig(), tinyConfig()
	b.Interval = 5_000
	var mu sync.Mutex
	collected := map[trace.CollectConfig]int{}
	inner := s.collect
	s.collect = func(ctx context.Context, p []workload.Program, c ...trace.CollectConfig) []*trace.Dataset {
		mu.Lock()
		for _, x := range c {
			collected[x]++
		}
		mu.Unlock()
		return inner(ctx, p, c...)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				s.DatasetsCtx(context.Background(), tinyCorpus(), a, b)
			} else {
				s.DatasetsCtx(context.Background(), tinyCorpus(), b, a)
			}
		}(i)
	}
	wg.Wait()
	if collected[a] != 1 || collected[b] != 1 {
		t.Fatalf("collections per config = %v, want 1 each", collected)
	}
}
