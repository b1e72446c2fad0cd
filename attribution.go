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
	slots := fired
	if !sort.IntsAreSorted(slots) {
		slots = append([]int(nil), fired...)
		sort.Ints(slots)
	}
	bits := encoding.NewBitVec(len(d.Weights))
	for i, slot := range slots {
		if slot < 0 || slot >= len(d.Weights) {
			return 0, nil, fmt.Errorf("perspectron: fired slot %d outside model width %d", slot, len(d.Weights))
		}
		if i > 0 && slots[i-1] == slot {
			return 0, nil, fmt.Errorf("perspectron: fired slot %d duplicated", slot)
		}
		bits.Set(slot)
	}
	score = encoding.MarginPacked(d.Bias, d.Weights, bits)
	return score, d.topContributions(slots, k), nil
}

// topContributions returns the top-k contributions over fired, which must
// be ascending, in range and duplicate-free; k <= 0 or k > len(fired) keeps
// them all. Each slot is ranked by insertion into a k-slot array ordered by
// |Weight| descending: slots arrive ascending, so a newcomer goes after
// every entry of equal magnitude, which is the slot-ascending tie-break.
// The norm |bias| + Σ|w_fired| accumulates in the same ascending order as
// encoding.RawNorm, so every Share is bit-identical to one derived from the
// scorer's own norm. The result is never nil, even for an empty fired set.
func (d *Detector) topContributions(fired []int, k int) []Contribution {
	if k <= 0 || k > len(fired) {
		k = len(fired)
	}
	top := make([]Contribution, 0, k)
	norm := math.Abs(d.Bias)
	floor := 0.0 // |Weight| of the last kept contribution once top is full
	for _, slot := range fired {
		w := d.Weights[slot]
		mag := math.Abs(w)
		norm += mag
		i := len(top)
		if i < k {
			top = top[:i+1]
		} else if mag <= floor {
			continue // ranks below every kept contribution
		} else {
			i = k - 1 // evict the last kept contribution
		}
		for ; i > 0 && math.Abs(top[i-1].Weight) < mag; i-- {
			top[i] = top[i-1]
		}
		top[i] = Contribution{Slot: slot, Weight: w}
		if len(top) == k {
			floor = math.Abs(top[k-1].Weight)
		}
	}
	for i := range top {
		if slot := top[i].Slot; slot < len(d.FeatureNames) {
			top[i].Feature = d.FeatureNames[slot]
		}
		if norm != 0 {
			top[i].Share = top[i].Weight / norm
		}
	}
	return top
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
// the score Detect returned. It costs one bit walk plus an insertion of each
// fired slot into the k-slot top list — O(fired·k), cheap at serving's
// default k; call it only for verdicts worth explaining (flagged samples, a
// sampled fraction of benign ones). Errors before any Detect call or
// without a detector.
func (r *RawScorer) Attribution(k int) (fired []int, attr []Contribution, err error) {
	if r.det == nil {
		return nil, nil, fmt.Errorf("perspectron: attribution needs a detector")
	}
	if r.detBits == nil {
		return nil, nil, fmt.Errorf("perspectron: attribution before any Detect call")
	}
	if n := r.detBits.Ones(); n > 0 {
		fired = appendSetBits(make([]int, 0, n), r.detBits)
	}
	return fired, r.det.topContributions(fired, k), nil
}
