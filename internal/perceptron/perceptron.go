// Package perceptron implements PerSpectron's detector: a single-layer
// perceptron over k-sparse binary microarchitectural features (§II-C, §IV),
// the replicated per-component detector bank used in the ablation study, an
// 8-bit quantized variant matching the hardware datapath, and the hardware
// cost model of §IV-F (serial adder, ~1 cycle per input, negligible area).
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

// Name implements the shared classifier interface.
func (p *Perceptron) Name() string { return "PerSpectron" }

// Fit trains with the perceptron learning rule on inputs X (0/1 features)
// and targets y (±1), shuffling each epoch. When telemetry is enabled, Fit
// records per-epoch error rates, total epochs/updates, the epoch count at
// convergence and the quantized weight-saturation count. It is exactly a
// fresh Trainer run to the config's epoch budget — the incremental path in
// trainer.go replays the identical epoch loop one step at a time.
func (p *Perceptron) Fit(X [][]float64, y []float64) {
	NewTrainer(p).Fit(X, y, 0)
}

// FitPacked is Fit over bit-packed rows: the dot product, margin check and
// weight update iterate only the set words of each k-sparse vector instead
// of all f floats. For rows packed from the same 0/1 matrix it produces
// bit-identical weights to Fit — set bits are visited in the same ascending
// order, and w·1 is exactly w — which TestFitPackedBitIdentical pins.
func (p *Perceptron) FitPacked(X []encoding.BitVec, y []float64) {
	NewTrainer(p).FitPacked(X, y, 0)
}

// clampScore normalizes a raw output by the active-weight magnitude into
// [-1, 1] — the shared tail of every Score variant.
func clampScore(raw, norm float64) float64 {
	if norm == 0 {
		return 0
	}
	s := raw / norm
	if s > 1 {
		s = 1
	} else if s < -1 {
		s = -1
	}
	return s
}

// Raw returns the un-normalized dot product w·x + b — the quantity the
// hardware's serial adder accumulates.
func (p *Perceptron) Raw(x []float64) float64 {
	s := p.Bias
	for j, v := range x {
		if v != 0 {
			s += p.W[j] * v
		}
	}
	return s
}

// rawNorm accumulates the raw output and the active-weight magnitude in a
// single pass over the input — Score used to make two.
func (p *Perceptron) rawNorm(x []float64) (raw, norm float64) {
	raw = p.Bias
	norm = math.Abs(p.Bias)
	for j, v := range x {
		if v != 0 {
			raw += p.W[j] * v
			norm += math.Abs(p.W[j] * v)
		}
	}
	return raw, norm
}

// rawNormPacked is rawNorm over a bit-packed input.
func (p *Perceptron) rawNormPacked(x encoding.BitVec) (raw, norm float64) {
	raw = p.Bias
	norm = math.Abs(p.Bias)
	for w, word := range x {
		for word != 0 {
			wj := p.W[w<<6+bits.TrailingZeros64(word)]
			raw += wj
			norm += math.Abs(wj)
			word &= word - 1
		}
	}
	return raw, norm
}

// Score returns the normalized pre-threshold output in [-1, 1]: the raw sum
// divided by the total weight magnitude of the *active* inputs, so +1 means
// every active feature voted suspicious. This is the paper's confidence
// measurement passed to the OS on detection (§IV-G1); the default decision
// threshold on it is 0.25.
func (p *Perceptron) Score(x []float64) float64 {
	return clampScore(p.rawNorm(x))
}

// ScorePacked is Score over a bit-packed input, iterating set words only.
func (p *Perceptron) ScorePacked(x encoding.BitVec) float64 {
	return clampScore(p.rawNormPacked(x))
}

// Predict returns +1 (suspicious) when the normalized output exceeds the
// configured threshold, else -1 (benign).
func (p *Perceptron) Predict(x []float64) float64 {
	if p.Score(x) >= p.Threshold {
		return 1
	}
	return -1
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

// Raw accumulates the integer dot product exactly as the serial adder does:
// one add per set input bit.
func (q *Quantized) Raw(x []float64) int32 {
	s := q.Bias
	for j, v := range x {
		if v != 0 {
			s += int32(q.W[j])
		}
	}
	return s
}

// Score normalizes the integer output into [-1, 1] over the active inputs,
// mirroring Perceptron.Score. Like its float mirror it accumulates the raw
// sum and the norm in one pass instead of re-walking the input through Raw.
func (q *Quantized) Score(x []float64) float64 {
	raw := q.Bias
	norm := math.Abs(float64(q.Bias))
	for j, v := range x {
		if v != 0 {
			raw += int32(q.W[j])
			norm += math.Abs(float64(q.W[j]) * v)
		}
	}
	return clampScore(float64(raw), norm)
}

// Predict thresholds the normalized integer output.
func (q *Quantized) Predict(x []float64) float64 {
	if q.Score(x) >= q.Threshold {
		return 1
	}
	return -1
}
