package perspectron

// Raw-sample scoring: the one sample→verdict implementation. Every path that
// turns a raw counter-delta vector into a score — Replay (behind Monitor
// and Classify), MonitorWithPolicy, the
// promotion gate's golden evaluation and the serving runtime's stream
// workers (internal/serve) — goes through a RawScorer, so no two of them
// can drift apart. Sessions only produce raw samples; a RawScorer scores
// them with one bit-pack plus one packed margin sweep per sample. The
// models are read, never written, so any number of RawScorers can share
// one hot-reloaded pair.

import (
	"fmt"

	"perspectron/internal/encoding"
	"perspectron/internal/sim"
)

// RawSample is one sampling interval's raw counter-delta vector as produced
// by Session.NextRaw, before any scoring: the unit of work a serving
// stream scores. Raw is machine-width (indexed by counter, not model
// slot) and may contain NaN/Inf fault sentinels.
type RawSample struct {
	// Sample is the sampling-interval index within the run (the encoding's
	// execution point).
	Sample int
	// Raw is the machine-width counter-delta vector. The slice is owned by
	// the caller once returned; the session never rewrites it.
	Raw []float64
}

// RawScorer scores RawSamples against an immutable Detector/Classifier pair
// through the bit-packed hot path: each sample is packed once per model
// encoding, the detector margin is one MarginPacked sweep, and the
// classifier's one-vs-rest bank reuses a single packed vector for all
// classes. Unresolved counters (index -1) and non-finite raw values are
// masked, and each margin is renormalized over the surviving weights: the
// score is s/(|bias|+Σ|w_fired|) over firing features only, so losing a
// random subset shrinks numerator and denominator together and the
// normalized confidence degrades gracefully instead of collapsing.
//
// A RawScorer reuses internal scratch buffers and is NOT safe for
// concurrent use — give each serving stream its own.
type RawScorer struct {
	det    *Detector
	cls    *Classifier
	detIdx []int
	clsIdx []int

	detBits encoding.BitVec // scratch, reused across calls
	clsBits encoding.BitVec
	scores  []float64
}

// NewRawScorer builds a scorer for the model pair; either model may be nil
// but not both. Indices resolve against a fresh default machine — the same
// homogeneous configuration every serving Session runs on.
func NewRawScorer(det *Detector, cls *Classifier) (*RawScorer, error) {
	if det == nil && cls == nil {
		return nil, fmt.Errorf("perspectron: raw scorer needs a detector or a classifier")
	}
	detIdx, clsIdx, err := resolveModels(sim.NewMachine().Reg, det, cls)
	if err != nil {
		return nil, err
	}
	return newRawScorer(det, detIdx, cls, clsIdx), nil
}

// newRawScorer builds a scorer over explicit slot→counter indices, one per
// model feature; a negative index masks its slot. A nil model takes nil
// indices.
func newRawScorer(det *Detector, detIdx []int, cls *Classifier, clsIdx []int) *RawScorer {
	return &RawScorer{det: det, cls: cls, detIdx: detIdx, clsIdx: clsIdx}
}

// Detect scores one raw sample with the detector: the normalized margin,
// the threshold cut, and the fraction of detector features observable (the
// degradation ladder's input). With no detector it returns zeros.
func (r *RawScorer) Detect(s RawSample) (score float64, flagged bool, coverage float64) {
	if r.det == nil {
		return 0, false, 0
	}
	var avail int
	r.detBits, avail = r.det.encoding().BitsPacked(s.Raw, r.detIdx, s.Sample, r.detBits)
	score = encoding.MarginPacked(r.det.Bias, r.det.Weights, r.detBits)
	return score, score >= r.det.Threshold, float64(avail) / float64(len(r.det.FeatureNames))
}

// Classify names one raw sample's class with the classifier bank: the
// argmax class, its normalized margin, and the classifier-feature coverage.
// With no classifier it returns ("", 0, 0).
func (r *RawScorer) Classify(s RawSample) (class string, score float64, coverage float64) {
	if r.cls == nil {
		return "", 0, 0
	}
	var avail int
	r.clsBits, avail = r.cls.encoding().BitsPacked(s.Raw, r.clsIdx, -1, r.clsBits)
	if cap(r.scores) < len(r.cls.Classes) {
		r.scores = make([]float64, len(r.cls.Classes))
	}
	scores := r.scores[:len(r.cls.Classes)]
	best := 0
	for ci := range r.cls.Classes {
		scores[ci] = encoding.MarginPacked(r.cls.Biases[ci], r.cls.Weights[ci], r.clsBits)
		if scores[ci] > scores[best] {
			best = ci
		}
	}
	return r.cls.Classes[best], scores[best], float64(avail) / float64(len(r.cls.FeatureNames))
}
