package perceptron

// Incremental training: the continual-learning half of the perceptron.
// Perceptron.Fit is the one-shot batch driver; a Trainer exposes the same
// epoch loop one step at a time, so a background shadow trainer can
// interleave training with serving, stop at any epoch, serialize its
// optimizer state into a checkpoint, and resume later — on the original
// corpus or on a grown one — with results bit-identical to an uninterrupted
// run.
//
// Bit-identity is load-bearing (the promotion gate compares models trained
// on different schedules) and rests on two reconstructions:
//
//   - the shuffle RNG: math/rand sources are not serializable, so the
//     TrainerState journals the sample count of every epoch's shuffle
//     (run-length encoded — a fixed-size corpus is one entry no matter how
//     many epochs ran) and Resume replays Shuffle calls to put the stream
//     back exactly where it was;
//   - the index permutation: the epoch loop shuffles one persistent index
//     slice in place, so the permutation after N epochs depends on all N
//     shuffles. Resume performs the replayed shuffles on a real index
//     slice, growing it between runs exactly as Step does when the corpus
//     grows.
//
// TestTrainerResumeBitIdentical and the golden-corpus pin in the root
// package's equivalence_test.go hold this contract.

import (
	"fmt"
	"math/bits"
	"math/rand"

	"perspectron/internal/encoding"
	"perspectron/internal/telemetry"
)

// ShuffleRun is one run-length-encoded span of the shuffle journal: Count
// consecutive epochs shuffled N samples.
type ShuffleRun struct {
	N     int `json:"n"`
	Count int `json:"count"`
}

// TrainerState is the serializable optimizer state of an in-progress fit —
// what a checkpoint must carry for training to resume bit-identically.
type TrainerState struct {
	// Seed is the shuffle RNG's seed (the perceptron config's Seed at
	// NewTrainer time).
	Seed int64 `json:"seed"`
	// Epochs is the number of completed training epochs.
	Epochs int `json:"epochs"`
	// Updates is the cumulative weight-update count.
	Updates uint64 `json:"updates"`
	// Converged records whether the last step reported convergence (no
	// updates, or error rate under target for margin-less configs).
	Converged bool `json:"converged"`
	// ShuffleLog is the run-length-encoded journal of per-epoch shuffle
	// sizes Resume replays; len(runs) grows only when the corpus size
	// changes between epochs.
	ShuffleLog []ShuffleRun `json:"shuffle_log,omitempty"`
}

// Clone returns a deep copy, so a serialized snapshot cannot alias the
// trainer's live journal.
func (st TrainerState) Clone() TrainerState {
	out := st
	out.ShuffleLog = append([]ShuffleRun(nil), st.ShuffleLog...)
	return out
}

// Trainer drives a Perceptron's training one epoch at a time. Create with
// NewTrainer (fresh) or ResumeTrainer (from a serialized TrainerState);
// call Step per epoch or Fit for a budgeted loop. A Trainer is not safe for
// concurrent use and must not be shared with other writers of the same
// Perceptron.
type Trainer struct {
	p     *Perceptron
	rng   *rand.Rand
	idx   []int // persistent permutation, shuffled in place each epoch
	state TrainerState
}

// NewTrainer starts a fresh training run over p, seeded from p's config.
func NewTrainer(p *Perceptron) *Trainer {
	return &Trainer{
		p:     p,
		rng:   rand.New(rand.NewSource(p.cfg.Seed)),
		state: TrainerState{Seed: p.cfg.Seed},
	}
}

// ResumeTrainer reconstructs a trainer from a serialized state: the shuffle
// RNG and index permutation are replayed from the journal, so the next Step
// is bit-identical to what the next Step of the original trainer would have
// been. p must carry the weights the state was captured against (normally
// both come from the same checkpoint).
func ResumeTrainer(p *Perceptron, st TrainerState) (*Trainer, error) {
	epochs := 0
	for _, run := range st.ShuffleLog {
		if run.N < 0 || run.Count <= 0 {
			return nil, fmt.Errorf("perceptron: corrupt shuffle journal entry (n=%d count=%d)", run.N, run.Count)
		}
		epochs += run.Count
	}
	if epochs != st.Epochs {
		return nil, fmt.Errorf("perceptron: shuffle journal covers %d epochs, state says %d", epochs, st.Epochs)
	}
	t := &Trainer{p: p, rng: rand.New(rand.NewSource(st.Seed)), state: st.Clone()}
	for _, run := range st.ShuffleLog {
		t.syncIdx(run.N)
		for i := 0; i < run.Count; i++ {
			t.rng.Shuffle(len(t.idx), func(a, b int) { t.idx[a], t.idx[b] = t.idx[b], t.idx[a] })
		}
	}
	return t, nil
}

// State snapshots the optimizer state for serialization.
func (t *Trainer) State() TrainerState { return t.state.Clone() }

// Epochs returns the number of completed epochs.
func (t *Trainer) Epochs() int { return t.state.Epochs }

// Converged reports whether the last step converged.
func (t *Trainer) Converged() bool { return t.state.Converged }

// syncIdx sizes the permutation for n samples. New samples append in
// ascending order (the incremental-corpus case: training sets only grow); a
// shrink rebuilds the identity permutation, forfeiting replay continuity
// for the removed tail — callers growing a corpus never hit it.
func (t *Trainer) syncIdx(n int) {
	switch {
	case n < len(t.idx):
		t.idx = t.idx[:0]
		fallthrough
	case n > len(t.idx):
		for i := len(t.idx); i < n; i++ {
			t.idx = append(t.idx, i)
		}
	}
}

// Step runs one training epoch over the bit-packed rows X, reporting
// convergence: shuffle the persistent permutation, sweep every sample,
// update on errors and low-margin correct predictions, journal the shuffle,
// and report convergence exactly as the batch driver always has. Samples
// may be appended to X and y between steps.
func (t *Trainer) Step(X []encoding.BitVec, y []float64) (converged bool) {
	p := t.p
	n := len(X)
	reg := telemetry.Get()
	t.syncIdx(n)
	t.rng.Shuffle(len(t.idx), func(a, b int) { t.idx[a], t.idx[b] = t.idx[b], t.idx[a] })
	errs, updates := 0, 0
	for _, i := range t.idx {
		out, norm := encoding.RawNorm(p.Bias, p.W, X[i])
		// The prediction is the sign of the raw sum, not of the clamped
		// ratio the margin check uses.
		pred := 1.0
		if out < 0 {
			pred = -1
		}
		wrong := pred != y[i]
		if wrong {
			errs++
		}
		// Update on error, and also on low-margin correct predictions
		// (threshold training). The margin check normalizes the raw output
		// already in hand instead of recomputing the full dot product.
		if wrong || (p.cfg.Margin > 0 && y[i]*encoding.Normalize(out, norm) < p.cfg.Margin) {
			updates++
			p.update(X[i], 2*p.cfg.LearningRate*y[i])
		}
	}
	t.state.Epochs++
	t.state.Updates += uint64(updates)
	t.journalShuffle(n)
	reg.Counter("perspectron_train_epochs_total").Inc()
	reg.Counter("perspectron_train_updates_total").Add(uint64(updates))
	if n > 0 {
		reg.Histogram("perspectron_train_epoch_error", telemetry.RatioBuckets).
			Observe(float64(errs) / float64(n))
	}
	switch {
	case updates == 0:
		converged = true // every sample beyond margin
	case p.cfg.Margin == 0 && float64(errs)/float64(n) < p.cfg.TargetError:
		converged = true
	}
	t.state.Converged = converged
	return converged
}

// journalShuffle appends one epoch's shuffle size to the run-length log.
func (t *Trainer) journalShuffle(n int) {
	if k := len(t.state.ShuffleLog); k > 0 && t.state.ShuffleLog[k-1].N == n {
		t.state.ShuffleLog[k-1].Count++
		return
	}
	t.state.ShuffleLog = append(t.state.ShuffleLog, ShuffleRun{N: n, Count: 1})
}

// Fit runs Step until convergence or the epoch budget is spent (budget 0
// uses the config's Epochs, default 1000), reporting convergence. Calling
// it on a fresh trainer reproduces Perceptron.Fit exactly; calling it again
// after appending samples is the incremental path.
func (t *Trainer) Fit(X []encoding.BitVec, y []float64, budget int) (converged bool) {
	if budget <= 0 {
		budget = t.p.cfg.Epochs
		if budget <= 0 {
			budget = 1000
		}
	}
	for used := 0; used < budget; used++ {
		if t.Step(X, y) {
			return true
		}
	}
	return false
}

// FitIncremental resumes training from a serialized optimizer state over a
// (possibly grown) bit-packed corpus: at most budget additional epochs,
// stopping early on convergence. It returns the advanced state for the next
// checkpoint. A zero-valued state (no epochs) starts a fresh run, making
// FitIncremental-from-zero bit-identical to Fit on the same corpus.
func (p *Perceptron) FitIncremental(st TrainerState, X []encoding.BitVec, y []float64, budget int) (TrainerState, error) {
	t, err := p.resumeOrNew(st)
	if err != nil {
		return st, err
	}
	t.Fit(X, y, budget)
	return t.State(), nil
}

// resumeOrNew treats a zero-epoch state as "start fresh with the state's
// seed (or the config's, when unset)".
func (p *Perceptron) resumeOrNew(st TrainerState) (*Trainer, error) {
	if st.Epochs == 0 && len(st.ShuffleLog) == 0 {
		if st.Seed != 0 {
			p.cfg.Seed = st.Seed
		}
		return NewTrainer(p), nil
	}
	return ResumeTrainer(p, st)
}

// update applies one learning step to the set bits of x.
func (p *Perceptron) update(x encoding.BitVec, step float64) {
	for w, word := range x {
		for word != 0 {
			p.W[w<<6+bits.TrailingZeros64(word)] += step
			word &= word - 1
		}
	}
	p.Bias += step
}
