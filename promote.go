package perspectron

// Promotion gate: a candidate checkpoint goes live only if it is no worse
// than the current live model on every tier-1 metric over a held-out golden
// corpus. The gate is the write half of the continual-learning loop — the
// shadow trainer (internal/shadow) produces candidates, PromoteDetector
// decides, and the serving runtime's checkpoint watcher picks up whatever the
// gate atomically renames into place. Rejected candidates are preserved next
// to the live file for inspection rather than discarded.

import (
	"fmt"
	"time"

	"perspectron/internal/corpus"
	"perspectron/internal/eval"
	"perspectron/internal/telemetry"
	"perspectron/internal/trace"
)

// GoldenSet is a held-out evaluation corpus in raw counter form, collected
// once and reused across promotion decisions. It deliberately stores the
// full-width raw vectors (not a projection onto any one detector's feature
// set) so candidates with different feature selections are all scoreable
// against the same frozen samples.
type GoldenSet struct {
	// FeatureNames is the dataset's full feature space; detectors map their
	// selected features onto it by name at evaluation time.
	FeatureNames []string
	// Raw holds one full-width counter-delta vector per sample.
	Raw [][]float64
	// Points holds each sample's execution point (sampling-interval index).
	Points []int
	// Y holds ±1 labels (+1 malicious).
	Y []float64
}

// CollectGolden collects a held-out golden corpus from the given workloads.
// Pass a Seed different from the training options' so the gate never scores
// the samples the candidate trained on. Collection goes through the
// process-wide corpus store, so repeated gates reuse the cached dataset.
func CollectGolden(workloads []Workload, opts Options) (*GoldenSet, error) {
	if len(workloads) == 0 {
		return nil, fmt.Errorf("perspectron: no golden workloads")
	}
	ds := corpus.Default().Dataset(workloads, opts.CollectConfig())
	b, m := ds.ClassCounts()
	if b == 0 || m == 0 {
		return nil, fmt.Errorf("perspectron: golden corpus needs both classes (benign=%d malicious=%d)", b, m)
	}
	g := &GoldenSet{FeatureNames: ds.FeatureNames}
	for i := range ds.Samples {
		s := &ds.Samples[i]
		g.Raw = append(g.Raw, s.Raw)
		g.Points = append(g.Points, s.Index)
		g.Y = append(g.Y, trace.LabelValue(s.Label))
	}
	return g, nil
}

// EvaluateGolden scores the detector over the golden corpus at its own
// threshold and returns the gated metric vector. Detector features absent
// from the golden feature space are masked (index -1) exactly as missing
// counters are in degraded serving, so the comparison stays meaningful when
// feature selections drift between generations.
func (d *Detector) EvaluateGolden(g *GoldenSet) EvalScores {
	idx, _ := resolveNames(d.FeatureNames, g.FeatureNames)
	scorer := newRawScorer(d, idx, nil, nil)
	scores := make([]float64, len(g.Raw))
	for i, raw := range g.Raw {
		scores[i], _, _ = scorer.Detect(RawSample{Sample: g.Points[i], Raw: raw})
	}
	m := eval.Score(scores, g.Y, d.Threshold)
	return EvalScores{
		Samples:   m.Total(),
		Accuracy:  m.Accuracy(),
		Precision: m.Precision(),
		Recall:    m.Recall(),
		FPR:       m.FPR(),
		F1:        m.F1(),
		AUC:       eval.AUC(eval.ROC(scores, g.Y)),
	}
}

// Promotion is the gate's decision record.
type Promotion struct {
	// Promoted reports whether the candidate went live.
	Promoted bool
	// Reason explains a rejection (or the promotion basis).
	Reason string
	// CandidateVersion / BaselineVersion are the content versions compared;
	// BaselineVersion is empty on a first promotion with no live model.
	CandidateVersion string
	BaselineVersion  string
	// Candidate / Baseline are the measured golden-corpus scores. Baseline
	// is zero when no live model existed.
	Candidate EvalScores
	Baseline  EvalScores
	// RejectedPath is where a rejected candidate was preserved for
	// inspection (empty on promotion or when the candidate failed to load).
	RejectedPath string
}

// PromoteDetector runs the gate: load the candidate at candPath, evaluate it
// and the live model at livePath over the golden corpus, and atomically
// replace the live checkpoint only if the candidate regresses on no gated
// metric (no-worse promotes, so a retrained-but-equivalent model goes live).
//
// Failure containment mirrors the serving watcher's: a candidate that fails
// to load or verify is a rejection, not an error — the live model is never
// touched by a corrupt candidate. A missing live file means first promotion
// and the candidate goes live on its own scores. Rejected candidates are
// preserved at livePath+".rejected" with their measured scores stamped.
//
// The replace is writeFileAtomic's temp+fsync+rename, so a serving watcher
// hot-reloading livePath concurrently observes either the old or the new
// complete checkpoint, never a torn one.
func PromoteDetector(candPath, livePath string, golden *GoldenSet) (*Promotion, error) {
	if golden == nil || len(golden.Raw) == 0 {
		return nil, fmt.Errorf("perspectron: promotion gate needs a non-empty golden corpus")
	}
	reg := telemetry.Get()

	cand, err := LoadFile(candPath)
	if err != nil {
		reg.Counter(telemetry.Name("perspectron_promote_total", "result", "rejected")).Inc()
		return &Promotion{Promoted: false, Reason: fmt.Sprintf("candidate unloadable: %v", err)}, nil
	}
	p := &Promotion{CandidateVersion: cand.Version()}
	p.Candidate = cand.EvaluateGolden(golden)

	live, liveErr := LoadFile(livePath)
	if liveErr == nil {
		p.BaselineVersion = live.Version()
		p.Baseline = live.EvaluateGolden(golden)
		if regs := p.Candidate.RegressionsAgainst(p.Baseline); len(regs) > 0 {
			p.Reason = fmt.Sprintf("regressed vs %s: %v", p.BaselineVersion, regs)
			p.RejectedPath = livePath + ".rejected"
			stampEval(cand, p.Candidate, "")
			if err := cand.SaveFile(p.RejectedPath); err != nil {
				p.RejectedPath = ""
				p.Reason += fmt.Sprintf(" (preserving rejected candidate failed: %v)", err)
			}
			reg.Counter(telemetry.Name("perspectron_promote_total", "result", "rejected")).Inc()
			return p, nil
		}
		p.Reason = fmt.Sprintf("no regression vs %s on %d golden samples", p.BaselineVersion, p.Candidate.Samples)
	} else {
		// No readable live model: first promotion (or the live file was
		// corrupt, in which case any verified candidate is an improvement).
		p.Reason = fmt.Sprintf("no live baseline (%v)", liveErr)
	}

	stampEval(cand, p.Candidate, time.Now().UTC().Format(time.RFC3339))
	if live != nil && cand.Lineage != nil && cand.Lineage.Parent == "" {
		cand.Lineage.Parent = live.Checksum
		cand.Lineage.Generation = liveGeneration(live) + 1
	}
	if err := cand.SaveFile(livePath); err != nil {
		return nil, fmt.Errorf("perspectron: promoting %s: %w", p.CandidateVersion, err)
	}
	p.Promoted = true
	reg.Counter(telemetry.Name("perspectron_promote_total", "result", "promoted")).Inc()
	if reg.HasEventSink() {
		reg.Event("promote", map[string]any{
			"candidate": p.CandidateVersion,
			"baseline":  p.BaselineVersion,
			"reason":    p.Reason,
			"accuracy":  p.Candidate.Accuracy,
			"auc":       p.Candidate.AUC,
		})
	}
	return p, nil
}

// stampEval records the gate's measured scores (and, when promoting, the
// timestamp) in the candidate's lineage, creating one for legacy checkpoints.
func stampEval(d *Detector, scores EvalScores, promotedAt string) {
	if d.Lineage == nil {
		d.Lineage = &Lineage{}
	}
	ev := scores
	d.Lineage.Eval = &ev
	if promotedAt != "" {
		d.Lineage.PromotedAt = promotedAt
	}
}

// liveGeneration reads a detector's lineage generation, treating legacy
// checkpoints as generation zero.
func liveGeneration(d *Detector) int {
	if d.Lineage == nil {
		return 0
	}
	return d.Lineage.Generation
}
