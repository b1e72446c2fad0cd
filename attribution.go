package perspectron

// Per-verdict feature attribution: the forensic half of the serving path.
// The detector is a linear perceptron over binarized counters, so a
// verdict's score decomposes exactly into its fired weights — the invariant
// footprint the paper reads off the learned weights is equally readable off
// any single decision. AttributeFired reproduces the packed scorer's margin
// bit-for-bit from just the fired slot list, which is why verdict records
// need only stamp the (small) fired set for `perspectron explain` to
// re-derive the full attribution offline from the checkpoint the verdict's
// Version names.

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"perspectron/internal/encoding"
)

// Contribution is one feature's exact share of a verdict's normalized
// score: the detector margin is (bias + Σ w_fired) / (|bias| + Σ|w_fired|),
// so each fired feature contributes Weight to the numerator and |Weight| to
// the norm. Share is Weight divided by that verdict's norm — the signed
// fraction of the final score this feature is responsible for (all Shares
// plus the bias share sum to the unclamped score).
type Contribution struct {
	// Slot is the feature's index in the model's FeatureNames/Weights.
	Slot int `json:"slot"`
	// Feature is the counter name at Slot.
	Feature string `json:"feature"`
	// Weight is the learned weight that fired.
	Weight float64 `json:"weight"`
	// Share is Weight / (|bias| + Σ|w_fired|), this verdict's normalization.
	Share float64 `json:"share"`
}

// AttributeFired recomputes the normalized score and per-feature
// attribution for a sample on which exactly the given feature slots fired.
// The score is encoding.MarginPacked over the fired set, so it is
// bit-identical to the one the serving scorer logged for the same fired set
// (pinned by TestAttributionMatchesScorer).
// attr holds the top-k contributions by |Weight| (ties broken by slot
// ascending); k <= 0 returns all fired features. fired may be unsorted; it
// is not modified.
func (d *Detector) AttributeFired(fired []int, k int) (score float64, attr []Contribution, err error) {
	slots := make([]int, len(fired))
	copy(slots, fired)
	sort.Ints(slots)
	for i, slot := range slots {
		if slot < 0 || slot >= len(d.Weights) {
			return 0, nil, fmt.Errorf("perspectron: fired slot %d outside model width %d", slot, len(d.Weights))
		}
		if i > 0 && slots[i-1] == slot {
			return 0, nil, fmt.Errorf("perspectron: fired slot %d duplicated", slot)
		}
	}
	bits := encoding.NewBitVec(len(d.Weights))
	norm := math.Abs(d.Bias)
	for _, slot := range slots {
		bits.Set(slot)
		norm += math.Abs(d.Weights[slot])
	}
	score = encoding.MarginPacked(d.Bias, d.Weights, bits)
	attr = make([]Contribution, len(slots))
	for i, slot := range slots {
		c := Contribution{Slot: slot, Weight: d.Weights[slot]}
		if slot < len(d.FeatureNames) {
			c.Feature = d.FeatureNames[slot]
		}
		if norm != 0 {
			c.Share = c.Weight / norm
		}
		attr[i] = c
	}
	sort.SliceStable(attr, func(i, j int) bool {
		ai, aj := math.Abs(attr[i].Weight), math.Abs(attr[j].Weight)
		if ai != aj {
			return ai > aj
		}
		return attr[i].Slot < attr[j].Slot
	})
	if k > 0 && k < len(attr) {
		attr = attr[:k]
	}
	return score, attr, nil
}

// appendSetBits appends the set-bit positions of v to dst, ascending — the
// same TrailingZeros64 walk MarginPacked scores with.
func appendSetBits(dst []int, v encoding.BitVec) []int {
	for wi, word := range v {
		base := wi << 6
		for word != 0 {
			dst = append(dst, base+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return dst
}

// Attribution explains the sample most recently passed to Detect: the fired
// slot set (ascending) and the top-k contributions, exactly consistent with
// the score Detect returned. It costs one bit walk plus a sort over the
// fired set — call it only for verdicts worth explaining (flagged samples,
// a sampled fraction of benign ones). Errors before any Detect call or
// without a detector.
func (r *RawScorer) Attribution(k int) (fired []int, attr []Contribution, err error) {
	if r.det == nil {
		return nil, nil, fmt.Errorf("perspectron: attribution needs a detector")
	}
	if r.detBits == nil {
		return nil, nil, fmt.Errorf("perspectron: attribution before any Detect call")
	}
	fired = appendSetBits(nil, r.detBits)
	_, attr, err = r.det.AttributeFired(fired, k)
	if err != nil {
		return nil, nil, err
	}
	return fired, attr, nil
}
