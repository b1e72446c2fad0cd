package experiments

import (
	"fmt"
	"sort"
	"strings"

	"perspectron/internal/encoding"
	"perspectron/internal/eval"
	"perspectron/internal/perceptron"
	"perspectron/internal/trace"
)

// Table3Result regenerates Table III's attack-holdout cross-validation and
// the §VI-B generalization numbers (CacheOut and SpectreV2 held out of all
// training folds).
type Table3Result struct {
	Folds        []eval.Fold
	FoldAccuracy []float64
	FoldAUC      []float64
	MeanAccuracy float64
	Confidence   float64
	CacheOutTP   float64
	SpectreV2TP  float64
	PerCategory  map[string]float64
	FPPrograms   []string
}

// Table3 runs the paper's three folds with PerSpectron (106 selected
// features, k-sparse binary inputs, threshold 0.25).
func Table3(cfg Config) *Table3Result {
	p := Prepare(cfg)
	folds := eval.TableIIIFolds()
	res := eval.CrossValidate(p.DS, func() eval.Model[encoding.BitVec] {
		return perceptron.New(len(p.Sel.Indices), perceptron.DefaultConfig())
	}, trace.Bits, eval.CVConfig{
		Folds:      folds,
		FeatureIdx: p.Sel.Indices,
		Threshold:  0.25,
	})

	out := &Table3Result{
		Folds:        folds,
		MeanAccuracy: res.MeanAccuracy,
		Confidence:   res.Confidence,
		PerCategory:  map[string]float64{},
	}
	for _, f := range res.Folds {
		out.FoldAccuracy = append(out.FoldAccuracy, f.Metrics.Accuracy())
		out.FoldAUC = append(out.FoldAUC, f.AUC)
	}
	cats := map[string]bool{}
	for _, f := range res.Folds {
		for c := range f.PerCatTP {
			cats[c] = true
		}
	}
	for c := range cats {
		rate, _ := res.CategoryTPRate(c)
		out.PerCategory[c] = rate
	}
	out.CacheOutTP, _ = res.CategoryTPRate("cacheout")
	out.SpectreV2TP, _ = res.CategoryTPRate("spectre_v2")
	out.FPPrograms = res.FalsePositivePrograms(2)
	return out
}

// Render formats the folds, accuracies and generalization rates.
func (r *Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("Table III — attack-holdout cross-validation\n\n")
	var rows [][]string
	for i, f := range r.Folds {
		rows = append(rows, []string{
			fmt.Sprint(i + 1),
			strings.Join(f.TestCategories, ", "),
			fmt.Sprintf("%.4f", r.FoldAccuracy[i]),
			fmt.Sprintf("%.4f", r.FoldAUC[i]),
		})
	}
	b.WriteString(table([]string{"fold", "held-out attacks (D_k)", "accuracy", "AUC"}, rows))
	fmt.Fprintf(&b, "\nCV accuracy: %.4f ± %.4f   (paper: 0.9979 ± 0.0065)\n",
		r.MeanAccuracy, r.Confidence)
	fmt.Fprintf(&b, "CacheOut   holdout TP rate: %.3f (paper: 0.94)\n", r.CacheOutTP)
	fmt.Fprintf(&b, "SpectreV2  holdout TP rate: %.3f (paper: 0.91)\n", r.SpectreV2TP)

	b.WriteString("\nPer-category holdout TP rates:\n")
	var cats []string
	for c := range r.PerCategory {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	for _, c := range cats {
		fmt.Fprintf(&b, "  %-16s %.3f\n", c, r.PerCategory[c])
	}
	if len(r.FPPrograms) > 0 {
		fmt.Fprintf(&b, "\nBenign programs with >2 false positives: %s (paper: gobmk)\n",
			strings.Join(r.FPPrograms, ", "))
	} else {
		b.WriteString("\nNo benign program exceeded 2 false positives (paper: gobmk did)\n")
	}
	return b.String()
}
