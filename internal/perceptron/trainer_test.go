package perceptron

import (
	"encoding/json"
	"math/rand"
	"testing"

	"perspectron/internal/encoding"
)

// trainCorpus builds a deterministic, non-trivially-separable 0/1 corpus.
func trainCorpus(n, f int, seed int64) (X [][]float64, Xp []encoding.BitVec, y []float64) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		row := make([]float64, f)
		label := -1.0
		if i%2 == 0 {
			label = 1
		}
		for j := 0; j < f; j++ {
			p := 0.15
			if (label > 0) == (j%3 == 0) {
				p = 0.6
			}
			if r.Float64() < p {
				row[j] = 1
			}
		}
		X = append(X, row)
		Xp = append(Xp, encoding.Pack(row))
		y = append(y, label)
	}
	return X, Xp, y
}

func weightsEqual(t *testing.T, a, b *Perceptron, what string) {
	t.Helper()
	if a.Bias != b.Bias {
		t.Fatalf("%s: bias %v != %v", what, a.Bias, b.Bias)
	}
	for j := range a.W {
		if a.W[j] != b.W[j] {
			t.Fatalf("%s: W[%d] %v != %v", what, j, a.W[j], b.W[j])
		}
	}
}

// TestTrainerStepMatchesFit pins the core contract: stepping a fresh
// trainer to the same epoch budget is bit-identical to batch Fit, and both
// match the dense oracle.
func TestTrainerStepMatchesFit(t *testing.T) {
	X, Xp, y := trainCorpus(64, 130, 7)
	cfg := DefaultConfig()
	cfg.Epochs = 40
	cfg.Seed = 11

	batch := New(130, cfg)
	batch.Fit(Xp, y)

	oracle := New(130, cfg)
	oldFit(oracle, X, y)
	weightsEqual(t, oracle, batch, "Fit vs dense oracle")

	stepped := New(130, cfg)
	tr := NewTrainer(stepped)
	for i := 0; i < cfg.Epochs; i++ {
		if tr.Step(Xp, y) {
			break
		}
	}
	weightsEqual(t, batch, stepped, "steps vs Fit")
}

// TestTrainerResumeBitIdentical interrupts training mid-run, round-trips
// the optimizer state through JSON (the checkpoint form), resumes on a
// fresh trainer, and requires the final weights to match an uninterrupted
// run exactly.
func TestTrainerResumeBitIdentical(t *testing.T) {
	_, Xp, y := trainCorpus(80, 190, 3)
	cfg := DefaultConfig()
	cfg.Epochs = 60
	cfg.Seed = 5

	straight := New(190, cfg)
	straight.Fit(Xp, y)

	interrupted := New(190, cfg)
	tr := NewTrainer(interrupted)
	for i := 0; i < 17; i++ {
		tr.Step(Xp, y)
	}
	blob, err := json.Marshal(tr.State())
	if err != nil {
		t.Fatal(err)
	}
	var st TrainerState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	if st.Epochs != 17 {
		t.Fatalf("state epochs = %d, want 17", st.Epochs)
	}
	resumed, err := ResumeTrainer(interrupted, st)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Fit(Xp, y, cfg.Epochs-17)
	weightsEqual(t, straight, interrupted, "resume vs straight-through")

	// The incremental wrapper from zero must also match.
	inc := New(190, cfg)
	if _, err := inc.FitIncremental(TrainerState{}, Xp, y, 0); err != nil {
		t.Fatal(err)
	}
	weightsEqual(t, straight, inc, "FitIncremental from zero vs Fit")
}

// TestTrainerGrownCorpus verifies the incremental path over a corpus that
// grows between steps: appending samples keeps training deterministic
// (same result when replayed), and resuming across the growth boundary is
// bit-identical to not stopping.
func TestTrainerGrownCorpus(t *testing.T) {
	_, Xp, y := trainCorpus(100, 150, 9)
	first, firstY := Xp[:60], y[:60]
	cfg := DefaultConfig()
	cfg.Seed = 13

	run := func(pauseAt int) *Perceptron {
		p := New(150, cfg)
		tr := NewTrainer(p)
		for i := 0; i < 10; i++ {
			if i == pauseAt {
				st := tr.State()
				var err error
				if tr, err = ResumeTrainer(p, st); err != nil {
					t.Fatal(err)
				}
			}
			if i < 4 {
				tr.Step(first, firstY)
			} else {
				tr.Step(Xp, y) // corpus grew 60 -> 100
			}
		}
		if got := len(tr.State().ShuffleLog); got != 2 {
			t.Fatalf("shuffle journal has %d runs, want 2 (one per corpus size)", got)
		}
		return p
	}
	weightsEqual(t, run(-1), run(4), "resume across growth boundary")
	weightsEqual(t, run(-1), run(7), "resume after growth")
}

// TestResumeTrainerRejectsCorruptJournal covers the validation path.
func TestResumeTrainerRejectsCorruptJournal(t *testing.T) {
	p := New(8, DefaultConfig())
	if _, err := ResumeTrainer(p, TrainerState{Epochs: 3, ShuffleLog: []ShuffleRun{{N: 4, Count: 2}}}); err == nil {
		t.Fatal("journal/epoch mismatch accepted")
	}
	if _, err := ResumeTrainer(p, TrainerState{Epochs: 1, ShuffleLog: []ShuffleRun{{N: -1, Count: 1}}}); err == nil {
		t.Fatal("negative shuffle size accepted")
	}
}
