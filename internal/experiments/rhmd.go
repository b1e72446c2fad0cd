package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"perspectron/internal/perceptron"
	"perspectron/internal/trace"
)

// RHMDResult evaluates the stochastic multi-detector hardening the paper
// proposes as future work (§VI-A, §IX, after Khasawneh et al.): K
// perceptrons over random feature subsets, one chosen unpredictably per
// sample. A white-box adversary who reverse-engineers one detector and
// flips exactly the feature bits that detector weighs cannot evade the
// ensemble, because the next interval is judged by a different detector —
// and the replicated features mean every subset still carries signal.
type RHMDResult struct {
	Detectors int
	SubsetLen int
	// BaselineTPR is the single-detector true-positive rate on attack
	// samples before evasion.
	BaselineTPR float64
	// EvadedSingle is the fraction of attack samples whose white-box
	// modification evades the targeted detector.
	EvadedSingle float64
	// CaughtByEnsemble is the fraction of those evading samples still
	// flagged by the stochastic ensemble (expected ≈ (K-1)/K per look).
	CaughtByEnsemble float64
}

// RHMD trains the ensemble on the base corpus and runs the white-box
// evasion study.
func RHMD(cfg Config) *RHMDResult {
	p := Prepare(cfg)
	Xp, y := trace.Bits(p.Enc, p.DS, p.Sel.Indices)

	const k = 4
	subset := len(p.Sel.Indices) / 2
	e := perceptron.NewRHMD(k, len(p.Sel.Indices), subset,
		perceptron.DefaultConfig(), rand.New(rand.NewSource(cfg.Seed)))
	e.Fit(Xp, y)

	res := &RHMDResult{Detectors: k, SubsetLen: len(e.Subsets[0])}
	var attacks, detected, evaded, caught float64
	for i, x := range Xp {
		if y[i] != 1 {
			continue
		}
		attacks++
		if e.ScoreWith(0, x) >= e.Threshold {
			detected++
		}
		adv := e.EvadeOne(0, x)
		if e.ScoreWith(0, adv) < e.Threshold {
			evaded++
			// The ensemble judges each interval with an unpredictable
			// detector; count the probability mass that still flags.
			flagging := 0
			for d := 1; d < k; d++ {
				if e.ScoreWith(d, adv) >= e.Threshold {
					flagging++
				}
			}
			caught += float64(flagging) / float64(k-1)
		}
	}
	if attacks > 0 {
		res.BaselineTPR = detected / attacks
	}
	if attacks > 0 {
		res.EvadedSingle = evaded / attacks
	}
	if evaded > 0 {
		res.CaughtByEnsemble = caught / evaded
	}
	return res
}

// Render formats the evasion study.
func (r *RHMDResult) Render() string {
	var b strings.Builder
	b.WriteString("§IX — RHMD-style stochastic ensemble vs white-box evasion\n\n")
	fmt.Fprintf(&b, "detectors: %d over disjoint random %d-feature partitions\n", r.Detectors, r.SubsetLen)
	fmt.Fprintf(&b, "single-detector TPR (no evasion):        %.3f\n", r.BaselineTPR)
	fmt.Fprintf(&b, "white-box evasion of that detector:      %.3f of attack samples\n", r.EvadedSingle)
	fmt.Fprintf(&b, "evading samples caught by the ensemble:  %.3f\n", r.CaughtByEnsemble)
	b.WriteString("\n(an attacker evading one detector is still judged by the other K-1\n")
	b.WriteString(" with unpredictable selection — the paper's proposed evasion hardening)\n")
	return b.String()
}
