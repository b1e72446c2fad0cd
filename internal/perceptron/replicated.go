package perceptron

import (
	"perspectron/internal/encoding"
	"perspectron/internal/stats"
)

// ReplicatedBank is the per-component replicated-detector organization of
// §IV-A: one perceptron per pipeline component over that component's
// features, combined by summing normalized outputs. A misclassification by
// one component's detector is recovered by the replicated detectors in
// other components (§VII-B). The single 106-feature PerSpectron is the
// paper's final design; the bank exists for the replication ablation.
type ReplicatedBank struct {
	Detectors []*Perceptron
	Features  [][]int // per-detector feature indices into the full vector
	Threshold float64
}

// NewReplicatedBank groups the selected feature indices by component and
// builds one perceptron per non-empty component.
func NewReplicatedBank(selected []int, comps []stats.Component, cfg Config) *ReplicatedBank {
	byComp := map[stats.Component][]int{}
	for _, j := range selected {
		byComp[comps[j]] = append(byComp[comps[j]], j)
	}
	b := &ReplicatedBank{Threshold: cfg.Threshold}
	for c := stats.Component(0); c < stats.NumComponents; c++ {
		idx := byComp[c]
		if len(idx) == 0 {
			continue
		}
		b.Detectors = append(b.Detectors, New(len(idx), cfg))
		b.Features = append(b.Features, idx)
	}
	return b
}

// Fit trains every component detector on its feature slice. X rows are full
// bit-packed feature vectors.
func (b *ReplicatedBank) Fit(X []encoding.BitVec, y []float64) {
	for d, det := range b.Detectors {
		sub := make([]encoding.BitVec, len(X))
		for i, row := range X {
			sub[i] = row.Project(b.Features[d])
		}
		det.Fit(sub, y)
	}
}

// Score averages the component detectors' normalized outputs.
func (b *ReplicatedBank) Score(x encoding.BitVec) float64 {
	if len(b.Detectors) == 0 {
		return 0
	}
	var s float64
	for d, det := range b.Detectors {
		s += det.Score(x.Project(b.Features[d]))
	}
	return s / float64(len(b.Detectors))
}
