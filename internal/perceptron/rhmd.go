package perceptron

import (
	"math/rand"

	"perspectron/internal/encoding"
)

// RHMD is the stochastic multi-detector defense the paper proposes adopting
// from Khasawneh et al. (RHMD, MICRO'17) to harden PerSpectron against
// adversarial evasion (§VI-A, §IX): K detectors are trained on distinct
// random feature subsets, and each sample is scored by a pseudorandomly
// chosen detector. An attacker who reverse-engineers one detector and
// suppresses its positive-weight features still faces the other K-1 with
// high probability, and cannot predict which detector judges which interval.
type RHMD struct {
	Detectors []*Perceptron
	Subsets   [][]int // per-detector feature indices into the full vector
	Threshold float64

	nonce uint64
}

// NewRHMD builds K detectors over *disjoint* random partitions of the n
// features, each of size min(subset, n/k) — as in Khasawneh et al., where
// the detectors use different feature sets so that a perturbation crafted
// against one detector's features leaves the others' inputs untouched.
// Replicated features across pipeline components are what make every
// partition carry enough signal to detect on its own. r drives the
// partition draw (deterministic per seed).
func NewRHMD(k, n, subset int, cfg Config, r *rand.Rand) *RHMD {
	if subset > n/k {
		subset = n / k
	}
	if subset < 1 {
		subset = 1
	}
	perm := r.Perm(n)
	e := &RHMD{Threshold: cfg.Threshold}
	for d := 0; d < k; d++ {
		idx := append([]int(nil), perm[d*subset:(d+1)*subset]...)
		c := cfg
		c.Seed = cfg.Seed + int64(d)*101
		e.Detectors = append(e.Detectors, New(subset, c))
		e.Subsets = append(e.Subsets, idx)
	}
	return e
}

// Fit trains every detector on its subset view of the bit-packed rows X.
func (e *RHMD) Fit(X []encoding.BitVec, y []float64) {
	for d, det := range e.Detectors {
		sub := make([]encoding.BitVec, len(X))
		for i, row := range X {
			sub[i] = row.Project(e.Subsets[d])
		}
		det.Fit(sub, y)
	}
}

// pick selects the detector for the current decision. The hardware draws
// from an internal PRNG the attacker cannot observe; a simple LCG over an
// internal nonce models that.
func (e *RHMD) pick() int {
	e.nonce = e.nonce*6364136223846793005 + 1442695040888963407
	return int((e.nonce >> 33) % uint64(len(e.Detectors)))
}

// Score scores x with a stochastically chosen detector.
func (e *RHMD) Score(x encoding.BitVec) float64 {
	return e.ScoreWith(e.pick(), x)
}

// ScoreWith scores x with a specific detector (used by evasion analyses).
func (e *RHMD) ScoreWith(d int, x encoding.BitVec) float64 {
	return e.Detectors[d].Score(x.Project(e.Subsets[d]))
}

// EvadeOne returns a copy of x adversarially modified against detector d:
// every feature with a positive weight in d is cleared and every negative-
// weight feature is set — the strongest white-box bit-flip attack available
// on a linear detector over binary features.
func (e *RHMD) EvadeOne(d int, x encoding.BitVec) encoding.BitVec {
	out := append(encoding.BitVec(nil), x...)
	det := e.Detectors[d]
	for i, j := range e.Subsets[d] {
		if det.W[i] > 0 {
			out.Clear(j)
		} else if det.W[i] < 0 {
			out.Set(j)
		}
	}
	return out
}
