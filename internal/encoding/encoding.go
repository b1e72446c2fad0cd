// Package encoding is the single implementation of PerSpectron's
// normalize→binarize→score math. The paper's pipeline scales every counter
// delta by the maximum matrix M (per execution point, falling back to the
// corpus-wide maximum), sets the k-sparse bit when the scaled statistic
// reaches 0.5, and sums perceptron weights over the fired bits with the
// margin renormalized so that a partially observable sample (missing
// counters, fault-masked values — the degraded serving mode) degrades
// gracefully instead of collapsing.
//
// BitsPacked is the one raw→bits kernel: the training, cross-validation and
// experiment rows (trace.Bits, over an encoding projected onto the model's
// feature slots) and the root package's RawScorer — the one per-sample
// scorer behind detection, classification, the promotion gate and serving —
// all binarize through it, so the bits a model scores are the bits it was
// trained on. Scoring pairs it with MarginPacked. Equivalence tests in the
// root package pin the outputs to the pre-unification implementations bit
// for bit.
package encoding

import (
	"math"
	"math/bits"
)

// BinarizeThreshold is the paper's k-sparse firing cut: a feature's bit is
// set when its scaled statistic reaches this value. Consumers inspecting
// already-scaled matrices (feature selection, figure rendering) share the
// constant rather than re-deriving it.
const BinarizeThreshold = 0.5

// Encoding holds the normalization maxima for a feature space: the paper's
// matrix M. GlobalMax is indexed by feature; PerPoint, when present, is
// indexed [execution point][feature] and takes precedence wherever its
// entry is positive. A nil PerPoint (the Classifier's configuration, and the
// global-max normalization ablation) normalizes by the global column only.
type Encoding struct {
	GlobalMax []float64
	PerPoint  [][]float64
}

// New returns an empty encoding for nFeatures features.
func New(nFeatures int) *Encoding {
	return &Encoding{GlobalMax: make([]float64, nFeatures)}
}

// NumFeatures returns the feature-space width u.
func (e *Encoding) NumFeatures() int { return len(e.GlobalMax) }

// NumPoints returns the number of execution points s with recorded maxima.
func (e *Encoding) NumPoints() int { return len(e.PerPoint) }

// Observe folds one program run's sample sequence into the maxima: sample j
// of the run updates point column j.
func (e *Encoding) Observe(samples [][]float64) {
	for j, vec := range samples {
		if len(vec) != len(e.GlobalMax) {
			panic("encoding: sample width mismatch in Observe")
		}
		for len(e.PerPoint) <= j {
			e.PerPoint = append(e.PerPoint, make([]float64, len(e.GlobalMax)))
		}
		col := e.PerPoint[j]
		for i, v := range vec {
			if v > col[i] {
				col[i] = v
			}
			if v > e.GlobalMax[i] {
				e.GlobalMax[i] = v
			}
		}
	}
}

// Project returns the slot-indexed view of e for a model whose feature slot s
// reads counter idx[s]: GlobalMax[s] = GlobalMax[idx[s]] and
// PerPoint[pt][s] = Max(idx[s], pt), so the view's Max(s, pt) equals
// e.Max(idx[s], pt) at every point. This is the form BitsPacked and a
// trained detector's embedded maxima take. A nil idx (all features, slot =
// counter) returns e itself.
func (e *Encoding) Project(idx []int) *Encoding {
	if idx == nil {
		return e
	}
	p := &Encoding{GlobalMax: make([]float64, len(idx))}
	for s, j := range idx {
		p.GlobalMax[s] = e.GlobalMax[j]
	}
	for pt := range e.PerPoint {
		row := make([]float64, len(idx))
		for s, j := range idx {
			row[s] = e.Max(j, pt)
		}
		p.PerPoint = append(p.PerPoint, row)
	}
	return p
}

// Max returns the normalizing maximum for feature i at execution point
// point: the per-point maximum when one is recorded and positive, otherwise
// the corpus-wide maximum. A result of 0 means the counter never fired
// anywhere in training.
func (e *Encoding) Max(i, point int) float64 {
	if point >= 0 && point < len(e.PerPoint) {
		if v := e.PerPoint[point][i]; v > 0 {
			return v
		}
	}
	return e.GlobalMax[i]
}

// Scale normalizes sample vec taken at execution point point into [0,1] per
// feature. Counters that never fired scale to 0. The result is written into
// dst (pass nil to allocate).
func (e *Encoding) Scale(vec []float64, point int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(vec))
	}
	for i, v := range vec {
		mx := e.Max(i, point)
		if mx <= 0 {
			dst[i] = 0
			continue
		}
		s := v / mx
		if s > 1 {
			s = 1
		}
		dst[i] = s
	}
	return dst
}

// fires reports the paper's k-sparse bit for raw value v of feature i at
// execution point point: the scaled statistic v/M reaches BinarizeThreshold.
// A counter that never fired in training (M = 0) never fires.
func (e *Encoding) fires(i, point int, v float64) bool {
	mx := e.Max(i, point)
	return mx > 0 && v/mx >= BinarizeThreshold
}

// BitsPacked computes the bit-packed fired set of one raw sample, so one
// packed vector feeds a MarginPacked sweep per model (detector, or one per
// classifier class) without re-walking the raw sample. indices maps each
// feature slot to its raw counter index on the current machine; a negative
// or out-of-range index marks a counter missing from the machine, and
// non-finite raw values are the fault sentinel (see internal/faults) — both
// are masked: the slot neither fires nor counts as observable. avail is the
// number of observable slots, the numerator of the degraded-mode coverage.
// The encoding is slot-indexed (GlobalMax[slot], not GlobalMax[counter]).
// The result is written into dst (pass nil or a short dst to allocate); dst
// is cleared first.
func (e *Encoding) BitsPacked(raw []float64, indices []int, point int, dst BitVec) (bits BitVec, avail int) {
	if words := (len(indices) + 63) / 64; len(dst) < words {
		dst = make(BitVec, words)
	} else {
		dst = dst[:words]
		for i := range dst {
			dst[i] = 0
		}
	}
	for slot, j := range indices {
		if j < 0 || j >= len(raw) {
			continue
		}
		v := raw[j]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		avail++
		if e.fires(slot, point, v) {
			dst.Set(slot)
		}
	}
	return dst, avail
}

// RawNorm returns the perceptron's raw output over a bit-packed fired set,
// bias + Σ w_fired (the quantity the hardware's serial adder accumulates),
// together with the active-weight magnitude |bias| + Σ |w_fired|. Set bits
// are visited in ascending slot order, so the float accumulation order is
// fixed. It is the one per-sample sum behind MarginPacked, Perceptron.Score
// and the trainer's update rule.
func RawNorm(bias float64, w []float64, fired BitVec) (raw, norm float64) {
	raw = bias
	norm = math.Abs(bias)
	for wi, word := range fired {
		base := wi << 6
		for word != 0 {
			j := base + bits.TrailingZeros64(word)
			raw += w[j]
			norm += math.Abs(w[j])
			word &= word - 1
		}
	}
	return raw, norm
}

// Normalize divides a raw output by its active-weight magnitude, clamped to
// [-1, 1], or 0 when the magnitude is zero.
func Normalize(raw, norm float64) float64 {
	if norm == 0 {
		return 0
	}
	v := raw / norm
	if v > 1 {
		v = 1
	} else if v < -1 {
		v = -1
	}
	return v
}

// MarginPacked returns the renormalized perceptron output over a bit-packed
// fired set: (bias + Σ w_fired) / (|bias| + Σ |w_fired|), clamped to
// [-1, 1], or 0 when the denominator is zero. Because masked slots
// contribute to neither sum, losing a random subset of counters shrinks
// numerator and denominator together and the normalized confidence degrades
// gracefully instead of collapsing (docs/FAULTS.md).
func MarginPacked(bias float64, w []float64, fired BitVec) float64 {
	return Normalize(RawNorm(bias, w, fired))
}
