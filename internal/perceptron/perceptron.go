// Package perceptron implements PerSpectron's detector: a single-layer
// perceptron over k-sparse binary microarchitectural features (§II-C, §IV),
// its resumable trainer, an 8-bit quantized variant matching the hardware
// datapath, the one-vs-rest multi-class bank, the RHMD randomized-ensemble
// baseline, and the hardware cost model of §IV-F (serial adder, ~1 cycle per
// input, negligible area).
package perceptron

import (
	"math"
	"math/bits"

	"perspectron/internal/encoding"
)

// Config holds training hyperparameters.
type Config struct {
	// Epochs is the maximum number of training passes (paper: 1000).
	Epochs int
	// LearningRate is µ in w(n+1) = w(n) + µ[d(n)-y(n)]x(n).
	LearningRate float64
	// TargetError stops training early once the epoch error rate falls
	// below it (the paper trains "until the training error falls below
	// 0.4" in FANN's MSE terms; as a misclassification rate we use 0.004).
	TargetError float64
	// Threshold is the decision cut on the normalized output (paper: 0.25
	// gave the best ROC operating point).
	Threshold float64
	// Margin also triggers weight updates on correctly classified samples
	// whose normalized confidence is below it — the θ-style threshold
	// training of perceptron branch predictors, which builds margin and
	// stabilizes the operating point across folds.
	Margin float64
	// Seed drives the per-epoch shuffle.
	Seed int64
}

// DefaultConfig returns the paper's training setup.
func DefaultConfig() Config {
	return Config{
		Epochs:       1000,
		LearningRate: 0.05,
		TargetError:  0.004,
		Threshold:    0.25,
		Margin:       0.3,
		Seed:         1,
	}
}

// Perceptron is a trained detector. The zero value is not usable; call New.
type Perceptron struct {
	W         []float64 // per-feature weights
	Bias      float64
	Threshold float64

	cfg Config
}

// New returns an untrained perceptron over n features.
func New(n int, cfg Config) *Perceptron {
	return &Perceptron{W: make([]float64, n), Threshold: cfg.Threshold, cfg: cfg}
}

// Fit trains with the perceptron learning rule on bit-packed k-sparse rows X
// and targets y (±1), shuffling each epoch. The dot product, margin check and
// weight update iterate only the set bits of each row. Fit records per-epoch
// error rates, total epochs/updates, the epoch count at convergence and the
// quantized weight-saturation count into the process telemetry registry. It is
// exactly a fresh Trainer run to the config's epoch budget — the incremental
// path in trainer.go replays the identical epoch loop one step at a time.
func (p *Perceptron) Fit(X []encoding.BitVec, y []float64) {
	NewTrainer(p).Fit(X, y, 0)
}

// Score returns the normalized pre-threshold output in [-1, 1]: the raw sum
// divided by the total weight magnitude of the *active* inputs, so +1 means
// every active feature voted suspicious. This is the paper's confidence
// measurement passed to the OS on detection (§IV-G1); the default decision
// threshold on it is 0.25.
func (p *Perceptron) Score(x encoding.BitVec) float64 {
	return encoding.MarginPacked(p.Bias, p.W, x)
}

// TopWeights returns the k most positive and k most negative weight indices
// (most suspicious / most benign features) for the interpretability analysis
// of §VII-C.
func (p *Perceptron) TopWeights(k int) (positive, negative []int) {
	type wi struct {
		j int
		w float64
	}
	all := make([]wi, len(p.W))
	for j, w := range p.W {
		all[j] = wi{j, w}
	}
	// Selection by partial sorts keeps this dependency-free.
	sortBy := func(less func(a, b wi) bool) []int {
		cp := append([]wi(nil), all...)
		for i := 0; i < k && i < len(cp); i++ {
			best := i
			for j := i + 1; j < len(cp); j++ {
				if less(cp[j], cp[best]) {
					best = j
				}
			}
			cp[i], cp[best] = cp[best], cp[i]
		}
		out := make([]int, 0, k)
		for i := 0; i < k && i < len(cp); i++ {
			out = append(out, cp[i].j)
		}
		return out
	}
	positive = sortBy(func(a, b wi) bool { return a.w > b.w })
	negative = sortBy(func(a, b wi) bool { return a.w < b.w })
	return positive, negative
}

// SaturatedWeights counts the weights that clip to ±127 in the 8-bit
// hardware datapath (Quantized) — a high count means the weight distribution
// has outgrown the fixed-point range and the quantized detector is losing
// resolution on the remaining weights.
func (p *Perceptron) SaturatedWeights() int {
	q := p.Quantized()
	n := 0
	for _, w := range q.W {
		if w == 127 || w == -127 || w == -128 {
			n++
		}
	}
	return n
}

// Quantized returns an 8-bit fixed-point copy of the detector — the form the
// hardware stores and the vendor weight patches of §IV-G1 distribute.
func (p *Perceptron) Quantized() *Quantized {
	maxAbs := math.Abs(p.Bias)
	for _, w := range p.W {
		if a := math.Abs(w); a > maxAbs {
			maxAbs = a
		}
	}
	q := &Quantized{W: make([]int8, len(p.W)), Threshold: p.Threshold}
	if maxAbs == 0 {
		return q
	}
	scale := 127 / maxAbs
	q.Scale = scale
	for j, w := range p.W {
		q.W[j] = int8(math.Round(w * scale))
	}
	q.Bias = int32(math.Round(p.Bias * scale))
	return q
}

// Quantized is the 8-bit hardware form of the detector.
type Quantized struct {
	W         []int8
	Bias      int32
	Scale     float64
	Threshold float64
}

// Score normalizes the integer output into [-1, 1] over the active inputs,
// mirroring Perceptron.Score: the serial adder's one add per set input bit,
// over the bit-packed input.
func (q *Quantized) Score(x encoding.BitVec) float64 {
	raw := q.Bias
	norm := math.Abs(float64(q.Bias))
	for w, word := range x {
		for word != 0 {
			wj := q.W[w<<6+bits.TrailingZeros64(word)]
			raw += int32(wj)
			norm += math.Abs(float64(wj))
			word &= word - 1
		}
	}
	return encoding.Normalize(float64(raw), norm)
}
