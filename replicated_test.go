package perspectron_test

import (
	"math/rand"
	"testing"

	"perspectron/internal/encoding"
	"perspectron/internal/perceptron"
	"perspectron/internal/stats"
)

// replicatedBank is the per-component replicated-detector organization of
// §IV-A: one perceptron per pipeline component over that component's
// features, combined by summing normalized outputs. A misclassification by
// one component's detector is recovered by the replicated detectors in
// other components (§VII-B). The single 106-feature PerSpectron is the
// paper's final design; the bank exists only for BenchmarkAblationReplication.
type replicatedBank struct {
	Detectors []*perceptron.Perceptron
	Features  [][]int // per-detector feature indices into the full vector
	Threshold float64
}

// newReplicatedBank groups the selected feature indices by component and
// builds one perceptron per non-empty component.
func newReplicatedBank(selected []int, comps []stats.Component, cfg perceptron.Config) *replicatedBank {
	byComp := map[stats.Component][]int{}
	for _, j := range selected {
		byComp[comps[j]] = append(byComp[comps[j]], j)
	}
	b := &replicatedBank{Threshold: cfg.Threshold}
	for c := stats.Component(0); c < stats.NumComponents; c++ {
		idx := byComp[c]
		if len(idx) == 0 {
			continue
		}
		b.Detectors = append(b.Detectors, perceptron.New(len(idx), cfg))
		b.Features = append(b.Features, idx)
	}
	return b
}

// Fit trains every component detector on its feature slice. X rows are full
// bit-packed feature vectors.
func (b *replicatedBank) Fit(X []encoding.BitVec, y []float64) {
	for d, det := range b.Detectors {
		sub := make([]encoding.BitVec, len(X))
		for i, row := range X {
			sub[i] = row.Project(b.Features[d])
		}
		det.Fit(sub, y)
	}
}

// Score averages the component detectors' normalized outputs.
func (b *replicatedBank) Score(x encoding.BitVec) float64 {
	if len(b.Detectors) == 0 {
		return 0
	}
	var s float64
	for d, det := range b.Detectors {
		s += det.Score(x.Project(b.Features[d]))
	}
	return s / float64(len(b.Detectors))
}

func TestReplicatedBankLearns(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	// Feature 0 (fetch) and feature 3 (commit) both carry the signal.
	comps := []stats.Component{stats.CompFetch, stats.CompFetch,
		stats.CompCommit, stats.CompCommit}
	var X []encoding.BitVec
	var y []float64
	for i := 0; i < 300; i++ {
		cls := -1.0
		sig := 0.0
		if r.Intn(2) == 0 {
			cls, sig = 1, 1
		}
		noise := float64(r.Intn(2))
		X = append(X, encoding.Pack([]float64{sig, noise, noise, sig}))
		y = append(y, cls)
	}
	b := newReplicatedBank([]int{0, 1, 2, 3}, comps, perceptron.DefaultConfig())
	if len(b.Detectors) != 2 {
		t.Fatalf("detectors = %d, want 2", len(b.Detectors))
	}
	b.Fit(X, y)
	errs := 0
	for i, x := range X {
		pred := -1.0
		if b.Score(x) >= 0 {
			pred = 1
		}
		if pred != y[i] {
			errs++
		}
	}
	if float64(errs)/float64(len(X)) > 0.02 {
		t.Fatalf("bank training error %d/%d", errs, len(X))
	}
}

func TestReplicatedBankRecoversFromOneComponent(t *testing.T) {
	// One component's detector is deliberately wrong; the other recovers
	// the decision (the paper's recovery argument in §VII-B).
	comps := []stats.Component{stats.CompFetch, stats.CompCommit, stats.CompIQ}
	b := newReplicatedBank([]int{0, 1, 2}, comps, perceptron.DefaultConfig())
	b.Detectors[0].W = []float64{-1} // wrong polarity
	b.Detectors[1].W = []float64{3}  // right
	b.Detectors[2].W = []float64{2}  // right
	if b.Score(encoding.Pack([]float64{1, 1, 1})) <= 0 {
		t.Fatalf("bank did not recover from one bad component")
	}
}
