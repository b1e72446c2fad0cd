package experiments

import (
	"context"
	"testing"

	"perspectron"
	"perspectron/internal/corpus"
	"perspectron/internal/telemetry"
)

// TestSingleCollectionAcrossExperiments is the collect-once acceptance test:
// a sweep of base-corpus experiments — including detector training through
// the public perspectron.Train API, the path FaultTol takes — must trigger
// exactly one base-corpus collection in the shared artifact store. Fig5 then
// adds exactly its two longer-granularity corpora; its 10K-interval request
// is served from the store, and the 50K corpus is nested in the 100K runs,
// so Fig5 simulates each (program, run) once.
func TestSingleCollectionAcrossExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several experiments")
	}
	cfg := QuickConfig()
	cfg.Seed = 424242 // unique to this test: no other corpus shares the key

	store := corpus.Default()
	before := store.Stats()

	Table1(cfg)
	Table3(cfg)
	Multiway(cfg)
	Weights(cfg)

	// Detector training through the public API, exactly as FaultTol invokes
	// it: same workload identities, same collect config, same store.
	opts := perspectron.DefaultOptions()
	opts.MaxInsts = cfg.MaxInsts
	opts.Runs = cfg.Runs
	opts.Seed = cfg.Seed
	opts.Interval = cfg.Interval
	if _, err := perspectron.Train(perspectron.TrainingWorkloads(), opts); err != nil {
		t.Fatal(err)
	}

	d := store.Stats().Sub(before)
	if d.Collections != 1 {
		t.Fatalf("base-corpus experiments ran %d collections, want exactly 1 (stats delta: %s)",
			d.Collections, d)
	}
	if d.MemoryHits == 0 {
		t.Fatalf("no memory hits recorded across the sweep (stats delta: %s)", d)
	}

	// Fig5 sweeps 10K/50K/100K granularities: the 10K corpus is the one
	// already collected above; only the two longer-interval corpora are new.
	mid := store.Stats()
	simRuns := func() uint64 { return telemetry.Get().CounterValue("perspectron_sim_runs_total") }
	runs0 := simRuns()
	Fig5(cfg)
	d5 := store.Stats().Sub(mid)
	if d5.Collections != 2 {
		t.Fatalf("Fig5 ran %d collections, want exactly 2 (50K and 100K; stats delta: %s)",
			d5.Collections, d5)
	}
	if got, want := simRuns()-runs0, uint64(len(perspectron.TrainingWorkloads())*cfg.Runs); got != want {
		t.Fatalf("Fig5 simulated %d machine runs, want %d (one per program and run)", got, want)
	}
}

// TestFaultTolSimulatesEachRunOnce is the simulate-once acceptance test for
// monitoring, counted in machine run loops the way
// TestSingleCollectionAcrossExperiments counts collections: with the
// training corpus already warm in the store, FaultTol simulates each of its
// (workload, seed) runs exactly once however many dropout rates it sweeps,
// and replaying a recording simulates nothing.
func TestFaultTolSimulatesEachRunOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a detector")
	}
	cfg := QuickConfig()
	cfg.MaxInsts = 30_000
	cfg.Seed = 535353 // unique to this test: no other corpus shares the key

	// Warm the training corpus exactly as FaultTol trains.
	opts := perspectron.DefaultOptions()
	opts.MaxInsts = cfg.MaxInsts
	opts.Runs = cfg.Runs
	opts.Seed = cfg.Seed
	opts.Interval = cfg.Interval
	det, err := perspectron.Train(perspectron.TrainingWorkloads(), opts)
	if err != nil {
		t.Fatal(err)
	}

	simRuns := func() uint64 { return telemetry.Get().CounterValue("perspectron_sim_runs_total") }

	before := simRuns()
	if res := FaultTol(cfg); res.Err != nil {
		t.Fatal(res.Err)
	}
	want := len(perspectron.AttackWorkloads()) + len(perspectron.BenignWorkloads())
	if got := simRuns() - before; got != uint64(want) {
		t.Fatalf("FaultTol simulated %d runs, want %d (one per workload)", got, want)
	}

	rec, err := perspectron.Record(context.Background(), perspectron.AttackByName("spectreV1", "fr"),
		cfg.MaxInsts, 1, det.Interval)
	if err != nil {
		t.Fatal(err)
	}
	before = simRuns()
	for _, rate := range []float64{0, 0.3} {
		if _, err := det.Replay(rec, &perspectron.FaultConfig{Seed: 2, Dropout: rate}); err != nil {
			t.Fatal(err)
		}
	}
	if got := simRuns() - before; got != 0 {
		t.Fatalf("Replay simulated %d runs, want 0", got)
	}
}

// TestConfigPrivateStore verifies experiments honour Config.Store, the
// isolation hook this test suite itself depends on.
func TestConfigPrivateStore(t *testing.T) {
	cfg := QuickConfig()
	cfg.MaxInsts = 30_000
	cfg.Store = corpus.NewStore()

	defBefore := corpus.Default().Stats()
	collect(perspectron.TrainingWorkloads(), cfg)
	collect(perspectron.TrainingWorkloads(), cfg)
	st := cfg.Store.Stats()
	if st.Collections != 1 || st.MemoryHits != 1 {
		t.Fatalf("private store stats = %+v, want 1 collection + 1 hit", st)
	}
	if d := corpus.Default().Stats().Sub(defBefore); d.Collections != 0 {
		t.Fatalf("private-store collection leaked into the default store: %s", d)
	}
}
