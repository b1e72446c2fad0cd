package experiments

import (
	"fmt"
	"sort"
	"strings"

	"perspectron/internal/perceptron"
	"perspectron/internal/stats"
	"perspectron/internal/trace"
)

// WeightEntry pairs a feature with its learned weight.
type WeightEntry struct {
	Name      string
	Component string
	Weight    float64
}

// WeightsResult regenerates the §VII-C interpretability analysis: the
// learned weights grouped by pipeline component, positive weights marking
// suspicious activity and negative weights marking benign behaviour.
type WeightsResult struct {
	ByComponent map[string][]WeightEntry
	TopPositive []WeightEntry
	TopNegative []WeightEntry
}

// Weights trains PerSpectron on the full base corpus and reports the
// learned weights.
func Weights(cfg Config) *WeightsResult {
	p := Prepare(cfg)
	X, y := trace.Bits(p.Enc, p.DS, p.Sel.Indices)
	det := perceptron.New(len(p.Sel.Indices), perceptron.DefaultConfig())
	det.Fit(X, y)

	res := &WeightsResult{ByComponent: map[string][]WeightEntry{}}
	var all []WeightEntry
	for i, j := range p.Sel.Indices {
		e := WeightEntry{
			Name:      p.DS.FeatureNames[j],
			Component: p.DS.Components[j].String(),
			Weight:    det.W[i],
		}
		all = append(all, e)
		res.ByComponent[e.Component] = append(res.ByComponent[e.Component], e)
	}
	for _, list := range res.ByComponent {
		sort.Slice(list, func(a, b int) bool { return list[a].Weight > list[b].Weight })
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Weight > all[b].Weight })
	k := 10
	if len(all) < k {
		k = len(all)
	}
	res.TopPositive = append(res.TopPositive, all[:k]...)
	neg := make([]WeightEntry, k)
	copy(neg, all[len(all)-k:])
	for i, j := 0, len(neg)-1; i < j; i, j = i+1, j-1 {
		neg[i], neg[j] = neg[j], neg[i]
	}
	res.TopNegative = neg
	return res
}

// Render formats the per-component weight analysis.
func (r *WeightsResult) Render() string {
	var b strings.Builder
	b.WriteString("§VII-C — interpretation through feature analysis\n\n")
	b.WriteString("Most suspicious features (largest positive weights):\n")
	for _, e := range r.TopPositive {
		fmt.Fprintf(&b, "  %+8.3f  %-12s %s\n", e.Weight, e.Component, e.Name)
	}
	b.WriteString("\nMost benign features (largest negative weights):\n")
	for _, e := range r.TopNegative {
		fmt.Fprintf(&b, "  %+8.3f  %-12s %s\n", e.Weight, e.Component, e.Name)
	}
	b.WriteString("\nSelected features per component (replication coverage):\n")
	for c := stats.Component(0); c < stats.NumComponents; c++ {
		list := r.ByComponent[c.String()]
		if len(list) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-12s %2d features", c.String(), len(list))
		if len(list) > 0 {
			fmt.Fprintf(&b, "  (strongest: %s %+0.3f)", list[0].Name, list[0].Weight)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
