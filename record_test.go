package perspectron

import (
	"context"
	"sync"
	"testing"
)

// replayCases pin Replay(Record(w, n, seed), &fc) to the reports the
// streaming implementation produced when fault schedules were a simulator
// hook rewriting each vector as it was sampled. The fingerprints were frozen
// from that implementation (its LeakSamples restricted to delivered
// samples), so recording a run once and replaying it under a schedule is
// pinned bit for bit to injecting the schedule into the simulation.
var replayCases = []struct {
	name   string
	w      Workload
	insts  uint64
	seed   int64
	fc     FaultConfig
	golden string
}{
	{"dropout", AttackByName("spectreV1", "fr"), 80_000, 7,
		FaultConfig{Seed: 5, Dropout: 0.2}, "1754100cd4eae2c0"},
	{"stuck-zero", AttackByName("flush+reload", ""), 80_000, 3,
		FaultConfig{Seed: 5, StuckZero: 0.3}, "b12671b98a4482e3"},
	{"stuck-max", AttackByName("prime+probe", ""), 80_000, 4,
		FaultConfig{Seed: 6, StuckMax: 0.1}, "65b5a5537e0260c7"},
	{"noise", BenignWorkloads()[0], 60_000, 2,
		FaultConfig{Seed: 7, Noise: 0.3}, "1775d02c72a7f5aa"},
	{"jitter", AttackByName("meltdown", "fr"), 80_000, 5,
		FaultConfig{Seed: 8, Jitter: 0.4}, "ed4359d54431cd2a"},
	{"blackout-window", AttackByName("spectreV1", "pp"), 80_000, 6,
		FaultConfig{Seed: 9, Blackout: "dcache", BlackoutFrom: 2, BlackoutTo: 5}, "bd8948f4404112ac"},
	{"composite", AttackByName("cacheOut", "fr"), 90_000, 8,
		FaultConfig{Seed: 10, Dropout: 0.1, StuckZero: 0.05, StuckMax: 0.05, Noise: 0.1, Jitter: 0.1,
			Blackout: "icache", BlackoutFrom: 3}, "1537b6d6a59d9dcf"},
}

func TestReplayMatchesStreamingFaults(t *testing.T) {
	det := sharedDetector(t)
	for _, c := range replayCases {
		rec, err := Record(context.Background(), c.w, c.insts, c.seed, det.Interval)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rep, err := det.Replay(rec, &c.fc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := fingerprintRows(reportRows(rep)); got != c.golden {
			t.Errorf("%s: fingerprint %s, golden %s", c.name, got, c.golden)
		}
	}

	cls := sharedClassifier(t)
	rec, err := Record(context.Background(), AttackByName("spectreV2", "fr"), 80_000, 4, cls.Interval)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cls.Replay(rec, &FaultConfig{Seed: 12, Noise: 0.2, Jitter: 0.3,
		Blackout: "branchPred", BlackoutFrom: 1, BlackoutTo: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprintRows(classificationRows(cls, res)), "925b90f388b14d1c"; got != want {
		t.Errorf("classifier replay: fingerprint %s, golden %s", got, want)
	}
}

// TestReplayLeavesRecordingUnmodified replays one recording repeatedly,
// sequentially and from several goroutines at once, under a schedule that
// masks, pins and rescales values: every report is identical, and the
// recording's samples and leak indices are untouched.
func TestReplayLeavesRecordingUnmodified(t *testing.T) {
	det := sharedDetector(t)
	rec, err := Record(context.Background(), AttackByName("spectreV1", "fr"), 60_000, 3, det.Interval)
	if err != nil {
		t.Fatal(err)
	}
	samples, leaks := hashMatrix(rec.Samples), append([]int(nil), rec.LeakSamples...)
	fc := &FaultConfig{Seed: 4, Dropout: 0.3, StuckMax: 0.1, Jitter: 0.2}
	first, err := det.Replay(rec, fc)
	if err != nil {
		t.Fatal(err)
	}
	second, err := det.Replay(rec, fc)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprintRows(reportRows(first))
	if got := fingerprintRows(reportRows(second)); got != want {
		t.Fatalf("replays differ: %s vs %s", got, want)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := det.Replay(rec, fc)
			if err != nil {
				t.Error(err)
				return
			}
			if got := fingerprintRows(reportRows(rep)); got != want {
				t.Errorf("concurrent replay differs: %s vs %s", got, want)
			}
		}()
	}
	wg.Wait()
	if !first.Degraded {
		t.Fatalf("30%% dropout replay not degraded")
	}
	if hashMatrix(rec.Samples) != samples {
		t.Fatalf("Replay rewrote the recording's samples")
	}
	first.LeakSamples[0] = -1 // a report must not alias the recording
	for i, l := range leaks {
		if rec.LeakSamples[i] != l {
			t.Fatalf("recording leak %d changed: %d, want %d", i, rec.LeakSamples[i], l)
		}
	}
	clean, err := det.Replay(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Degraded {
		t.Fatalf("clean replay after a faulty one is degraded")
	}
}

// TestLeakSamplesInRange: every leak index a report carries names a sample
// the report holds, for Monitor (which keeps the trailing partial interval)
// and MonitorWithPolicy (which scores completed intervals only).
func TestLeakSamplesInRange(t *testing.T) {
	det := sharedDetector(t)
	policy := EscalationPolicy(0.25, 0.5, MitigateFence)
	leaky := 0
	for _, w := range AttackWorkloads() {
		for _, insts := range []uint64{40_000, 80_000} {
			rep, err := det.Monitor(w, insts, 1)
			if err != nil {
				t.Fatal(err)
			}
			mrep, err := det.MonitorWithPolicy(w, insts, 1, policy)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*Report{rep, &mrep.Report} {
				if len(r.LeakSamples) > 0 {
					leaky++
				}
				for _, l := range r.LeakSamples {
					if l < 0 || l >= len(r.Samples) {
						t.Fatalf("%s@%d: leak sample %d outside the %d samples", r.Workload, insts, l, len(r.Samples))
					}
				}
			}
		}
	}
	if leaky == 0 {
		t.Fatalf("no attack run reported a leak")
	}
}

func TestReplayErrors(t *testing.T) {
	det := sharedDetector(t)
	rec, err := Record(context.Background(), BenignWorkloads()[0], 20_000, 1, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Replay(rec, nil); err == nil {
		t.Fatalf("replayed a 5K-interval recording with a %d-interval detector", det.Interval)
	}
	if _, err := det.Replay(&Recording{Workload: "literal", Interval: det.Interval}, nil); err == nil {
		t.Fatalf("replayed a recording Record did not make")
	}
	rec, err = Record(context.Background(), BenignWorkloads()[0], 20_000, 1, det.Interval)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Replay(rec, &FaultConfig{Blackout: "nosuchunit"}); err == nil {
		t.Fatalf("unknown blackout component accepted")
	}
	if _, err := Record(context.Background(), nil, 20_000, 1, det.Interval); err == nil {
		t.Fatalf("nil workload recorded")
	}
}
