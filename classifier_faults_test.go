package perspectron

// Degraded-mode serving for the multi-way classifier, mirroring the detector
// coverage in faults_test.go: fault-masked (NaN/Inf) counter values are
// skipped and each class margin is renormalized over the surviving weights.
// Before the shared-encoding refactor the classifier had no masking at all —
// a saturated counter (+Inf) always fired its bit and NaN poisoned nothing
// visibly but corrupted no score only by luck of the >= comparison.

import (
	"context"
	"math"
	"testing"
)

// maskedClassifier returns a fixed synthetic classifier for unit-level
// scoring checks.
func maskedClassifier() *Classifier {
	return &Classifier{
		Classes:      []string{"benign", "x"},
		FeatureNames: []string{"a", "b"},
		Weights:      [][]float64{{0.5, -0.5}, {-0.5, 0.5}},
		Biases:       []float64{0, 0},
		GlobalMax:    []float64{10, 10},
	}
}

func TestClassifierFaultMasking(t *testing.T) {
	c := maskedClassifier()
	scorer := newRawScorer(nil, nil, c, []int{0, 1})
	// classScores returns every class margin and the observable feature count
	// for one raw sample.
	classScores := func(raw []float64) ([]float64, int) {
		_, _, coverage := scorer.Classify(RawSample{Sample: -1, Raw: raw})
		return append([]float64(nil), scorer.scores...), int(coverage * float64(len(c.FeatureNames)))
	}

	// Baseline: both counters healthy, both bits fire.
	full, avail := classScores([]float64{9, 9})
	if avail != 2 {
		t.Fatalf("healthy avail = %d, want 2", avail)
	}

	// A saturated counter (+Inf, the fault sentinel) must be masked, not
	// fired: the score equals the one-feature run, not the two-feature one.
	masked, avail := classScores([]float64{9, math.Inf(1)})
	if avail != 1 {
		t.Fatalf("Inf avail = %d, want 1 (masked)", avail)
	}
	oneBit, _ := classScores([]float64{9, 0})
	for ci := range c.Classes {
		if masked[ci] != oneBit[ci] {
			t.Errorf("class %s: Inf-masked score %v != one-feature score %v",
				c.Classes[ci], masked[ci], oneBit[ci])
		}
		if masked[ci] == full[ci] {
			t.Errorf("class %s: Inf-masked score %v indistinguishable from full score",
				c.Classes[ci], masked[ci])
		}
	}

	// NaN likewise.
	if _, avail := classScores([]float64{math.NaN(), 9}); avail != 1 {
		t.Fatalf("NaN avail = %d, want 1 (masked)", avail)
	}

	// Renormalization: with one surviving weight of magnitude 0.5 the margin
	// must still span the full [-1, 1] confidence range — only bit 0 fires,
	// which carries +0.5 for "benign" and -0.5 for "x".
	if masked[0] != 1 || masked[1] != -1 {
		t.Errorf("renormalized margins = %v, want [1 -1]", masked)
	}
}

func TestClassifyCleanRunNotDegraded(t *testing.T) {
	c := sharedClassifier(t)
	res, err := c.Classify(BenignWorkloads()[0], 60_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("clean run marked degraded (coverage %v)", res.Coverage)
	}
	if res.Coverage != 1 {
		t.Fatalf("clean run coverage = %v, want 1", res.Coverage)
	}
}

// TestClassifierDropoutDegraded is the classifier analogue of the detector's
// TestDropoutAcceptance: with 20% random counter dropout the classifier must
// keep voting, report degraded mode, and reflect the loss in Coverage.
func TestClassifierDropoutDegraded(t *testing.T) {
	c := sharedClassifier(t)
	rec, err := Record(context.Background(), AttackByName("flush+reload", ""), 80_000, 5, c.Interval)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Replay(rec, &FaultConfig{Seed: 99, Dropout: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class == "" || len(res.Votes) == 0 {
		t.Fatalf("degraded classify produced no verdict: %+v", res)
	}
	if !res.Degraded {
		t.Errorf("dropout not reflected in Degraded")
	}
	if res.Coverage < 0.7 || res.Coverage > 0.9 {
		t.Errorf("coverage %.3f, want ~0.8 under 20%% dropout", res.Coverage)
	}

	clean, err := c.Replay(rec, &FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Degraded {
		t.Errorf("empty FaultConfig degraded the run")
	}
}

// TestClassifierBlackoutDegraded covers the scheduled-window fault class: a
// component blackout masks every counter the component owns, so the
// classifier must run degraded for the blacked-out samples and a full-run
// blackout must cost more coverage than a bounded window.
func TestClassifierBlackoutDegraded(t *testing.T) {
	c := sharedClassifier(t)
	rec, err := Record(context.Background(), AttackByName("flush+reload", ""), 80_000, 3, c.Interval)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Replay(rec, &FaultConfig{Blackout: "no-such-component"}); err == nil {
		t.Fatalf("unknown blackout component accepted")
	}

	full, err := c.Replay(rec, &FaultConfig{Seed: 5, Blackout: "dcache"})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Degraded || full.Coverage >= 1 || full.Coverage <= 0 {
		t.Fatalf("full-run dcache blackout not reflected: degraded=%v coverage=%.3f",
			full.Degraded, full.Coverage)
	}
	if full.Class == "" || len(full.Votes) == 0 {
		t.Fatalf("blacked-out classify produced no verdict: %+v", full)
	}

	// Samples [2, 4) only: still degraded, but strictly more coverage than
	// losing the component for the whole run.
	windowed, err := c.Replay(rec, &FaultConfig{Seed: 5, Blackout: "dcache", BlackoutFrom: 2, BlackoutTo: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !windowed.Degraded {
		t.Errorf("windowed blackout not marked degraded")
	}
	if windowed.Coverage <= full.Coverage {
		t.Errorf("windowed blackout coverage %.3f <= full-run %.3f",
			windowed.Coverage, full.Coverage)
	}
}

// TestClassifierStuckAtKeepsFullCoverage pins counters to plausible-but-wrong
// finite values (dead-at-zero and saturated sensors). Unlike dropout or
// blackout there is no sentinel to mask, so the classifier must NOT report
// degraded mode — the corruption is silent — while still producing a
// verdict from the distorted vectors.
func TestClassifierStuckAtKeepsFullCoverage(t *testing.T) {
	c := sharedClassifier(t)
	rec, err := Record(context.Background(), AttackByName("flush+reload", ""), 80_000, 5, c.Interval)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		fc   FaultConfig
	}{
		{"stuck-at-zero", FaultConfig{Seed: 11, StuckZero: 0.3}},
		{"stuck-at-max", FaultConfig{Seed: 11, StuckMax: 0.3}},
		{"both", FaultConfig{Seed: 11, StuckZero: 0.2, StuckMax: 0.2}},
	} {
		res, err := c.Replay(rec, &tc.fc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Class == "" || len(res.Votes) == 0 {
			t.Fatalf("%s: no verdict under stuck-at faults: %+v", tc.name, res)
		}
		if res.Degraded || res.Coverage != 1 {
			t.Errorf("%s: finite stuck-at values were masked: degraded=%v coverage=%.3f",
				tc.name, res.Degraded, res.Coverage)
		}
	}
}
